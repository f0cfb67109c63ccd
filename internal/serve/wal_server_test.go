package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/taskrt"
	"kdrsolvers/internal/wal"
)

// A drain with a journal persists queued jobs instead of losing them:
// the next server on the same WAL directory replays and runs them.
func TestWALDrainPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, Config{MaxActive: 1, QueueDepth: 16, CoalesceMax: 1, WALDir: dir, FsyncEvery: 1})
	inflight, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Matrix = "lap2d:48x48" }))
	if err != nil {
		t.Fatal(err)
	}
	for inflight.Snapshot().State != StateRunning {
		runtime.Gosched()
	}
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Tol = 1e-6 / float64(i+1) }))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	s.Drain()
	// This incarnation rejected the queued jobs retryable...
	for _, j := range queued {
		if r := j.Result(); !r.Retryable {
			t.Fatalf("queued job %s at drain = %+v, want retryable", j.ID, r)
		}
	}

	// ...and the next incarnation owes them: replay re-enqueues exactly
	// the three queued jobs (the in-flight one finished and journaled
	// done), and they complete for real.
	s2 := mustServer(t, Config{MaxActive: 2, CoalesceMax: 1, WALDir: dir, FsyncEvery: 1})
	defer s2.Drain()
	for _, old := range queued {
		j, ok := s2.Job(old.ID)
		if !ok {
			t.Fatalf("job %s not replayed", old.ID)
		}
		r := j.Result()
		if !r.Converged || r.Err != "" {
			t.Fatalf("replayed job %s: %+v", old.ID, r)
		}
	}
	// The in-flight job's journaled result survived the restart too.
	j, ok := s2.Job(inflight.ID)
	if !ok {
		t.Fatalf("done job %s lost across restart", inflight.ID)
	}
	if r := j.Result(); !r.Converged {
		t.Fatalf("done job %s replayed result = %+v", inflight.ID, r)
	}
	// Replay is idempotent: the done job was not re-run.
	if m := s2.Metrics(); m.Completed != 3 {
		t.Fatalf("second server completed %d jobs, want exactly the 3 replayed", m.Completed)
	}
}

// A job whose process dies mid-solve resumes from its last persisted
// checkpoint, not iteration 0. The crash is simulated in-process: the
// journal holds an accept and checkpoints up to a cutoff iteration,
// and no terminal record — exactly the on-disk state a SIGKILL at that
// moment leaves behind.
func TestWALResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(func(sp *jobspec.Spec) {
		sp.Matrix = "lap2d:24x24"
		sp.CheckpointEvery = 3
		sp.MaxRestarts = 3
	})
	a, err := jobspec.LoadMatrix(spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}

	// "Crashed" run: journal the admission and every checkpoint at or
	// below the cutoff, then stop recording — as if the process died.
	jn, _, err := OpenJournal(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Accept("job-1", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	const cutoff = 6
	rt := taskrt.New()
	sess := rt.NewSession("crashed")
	RunSolve(a, spec, Options{
		Session: sess,
		CheckpointSink: func(iter int, residual float64, x []float64) {
			if iter <= cutoff {
				if err := jn.Checkpoint("job-1", iter, residual, x); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
			}
		},
	})
	sess.Close()
	rt.Drain()
	jn.Close()

	// Restart: the server replays the journal and finishes the job from
	// the checkpoint.
	s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1, WALDir: dir, FsyncEvery: 1})
	defer s.Drain()
	j, ok := s.Job("job-1")
	if !ok {
		t.Fatal("crashed job not replayed")
	}
	r := j.Result()
	if !r.Converged || r.Err != "" {
		t.Fatalf("resumed job: %+v", r)
	}
	if r.TrueResidual > 1.05*spec.Tol {
		t.Fatalf("resumed job true residual %g > %g", r.TrueResidual, 1.05*spec.Tol)
	}
	if r.ResumedFrom == 0 || r.ResumedFrom > cutoff {
		t.Fatalf("resumed from iteration %d, want in (0, %d]", r.ResumedFrom, cutoff)
	}
	if r.Iterations <= r.ResumedFrom {
		t.Fatalf("total iterations %d not past the checkpoint at %d", r.Iterations, r.ResumedFrom)
	}
}

// Replay is a pure fold of the record stream: replaying again
// reconstructs identical state, and close/reopen changes nothing.
//
// The compacted case runs the same history through segments smaller
// than a record: every append rotates, so what is replayed has been
// rewritten by compaction more than once.
func TestJournalReplayIdempotent(t *testing.T) {
	t.Run("one-segment", func(t *testing.T) {
		jn := journalReplayIdempotent(t, func(dir string) (*Journal, *JournalReplay, error) { return OpenJournal(dir, 1) })
		if got := jn.Metrics().Compactions; got != 0 {
			t.Fatalf("%d compactions of a one-segment journal", got)
		}
	})
	t.Run("compacted", func(t *testing.T) {
		jn := journalReplayIdempotent(t, func(dir string) (*Journal, *JournalReplay, error) {
			return openJournal(dir, wal.Options{SegmentBytes: 64, FsyncEvery: 1}, defaultRetainDone)
		})
		if got := jn.Metrics().Compactions; got < 2 {
			t.Fatalf("%d compactions: the history was not rewritten", got)
		}
	})
}

func journalReplayIdempotent(t *testing.T, open func(dir string) (*Journal, *JournalReplay, error)) *Journal {
	dir := t.TempDir()
	spec := testSpec(nil)
	jn, _, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0).UTC()
	// A history with every idempotency hazard: duplicate accepts,
	// checkpoint after done, accept after done, interleaved completions.
	// (The journal writes no record for an accept of a job it holds.)
	jn.Accept("job-1", spec, now)
	jn.Accept("job-2", spec, now)
	jn.Checkpoint("job-1", 4, 1e-3, []float64{1, 2})
	jn.Accept("job-1", spec, now) // duplicate accept
	jn.Checkpoint("job-1", 8, 1e-5, []float64{3, 4})
	jn.Done("job-2", &JobResult{Solver: "cg", Converged: true})
	jn.Accept("job-2", spec, now)        // accept after done: stays done
	jn.Checkpoint("job-2", 2, 1e-2, nil) // checkpoint after done: ignored
	jn.Accept("job-3", spec, now)

	first, err := jn.Replay()
	if err != nil {
		t.Fatal(err)
	}
	second, err := jn.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same log, different folds:\n%+v\n%+v", first, second)
	}
	// What a restart does: close, reopen.
	jn.Close()
	jn2, third, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("fold changed across restart:\n%+v\n%+v", first, third)
	}

	// And the fold itself is right: job-2 done, job-1 pending at its
	// LATEST checkpoint, job-3 pending from scratch, ids past job-3.
	if len(third.Pending) != 2 || third.Pending[0].ID != "job-1" || third.Pending[1].ID != "job-3" {
		t.Fatalf("pending = %+v", third.Pending)
	}
	rp := third.Pending[0].Resume
	if rp == nil || rp.Iter != 8 || !reflect.DeepEqual(rp.X, []float64{3, 4}) {
		t.Fatalf("job-1 resume point = %+v, want latest checkpoint", rp)
	}
	if third.Pending[1].Resume != nil {
		t.Fatalf("job-3 has a resume point from nowhere")
	}
	if len(third.DoneOrder) != 1 || third.DoneOrder[0] != "job-2" || !third.Done["job-2"].Converged {
		t.Fatalf("done = %+v", third.Done)
	}
	if third.MaxID != 3 {
		t.Fatalf("MaxID = %d, want 3", third.MaxID)
	}
	return jn
}

// The registry is bounded: completed jobs past RetainDone are evicted
// oldest-first, and evicted ids look up as unknown (the HTTP layer
// then 404s).
func TestServerRetainDoneEviction(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1, RetainDone: 2})
	defer s.Drain()
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s.Submit(testSpec(nil))
		if err != nil {
			t.Fatal(err)
		}
		j.Result()
		ids = append(ids, j.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatalf("oldest completed job %s still in the registry past RetainDone=2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("recent job %s evicted too early", id)
		}
	}
	if got := s.Metrics().EvictedJobs; got != 1 {
		t.Fatalf("EvictedJobs = %d, want 1", got)
	}

	// The HTTP layer maps the eviction to 404, same as never-submitted.
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	for _, id := range []string{ids[0], "job-999"} {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /jobs/%s = %d, want 404", id, resp.StatusCode)
		}
	}
}

// RetainTTL expires completed jobs by age, independent of count.
func TestServerRetainTTLEviction(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1, RetainTTL: 20 * time.Millisecond})
	defer s.Drain()
	j, err := s.Submit(testSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	j.Result()
	if _, ok := s.Job(j.ID); !ok {
		t.Fatal("job evicted before its TTL")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Job(j.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job outlived its TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Metrics().EvictedJobs; got != 1 {
		t.Fatalf("EvictedJobs = %d, want 1", got)
	}
}

// GET /metrics surfaces the session error-window accounting and the
// WAL counters, and both move when the server does matching work.
func TestHTTPMetricsErrsDroppedAndWAL(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1, WALDir: t.TempDir(), FsyncEvery: 1})
	defer s.Drain()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	fetch := func() map[string]json.RawMessage {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	num := func(m map[string]json.RawMessage, key string) int64 {
		raw, ok := m[key]
		if !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("metrics %q: %v", key, err)
		}
		return v
	}
	walCounters := func(m map[string]json.RawMessage) map[string]int64 {
		raw, ok := m["wal"]
		if !ok {
			t.Fatalf("metrics missing \"wal\" with durability on: %v", m)
		}
		var w map[string]int64
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatal(err)
		}
		return w
	}

	before := fetch()
	if got := num(before, "errs_dropped"); got != 0 {
		t.Fatalf("errs_dropped = %d before any job", got)
	}
	walBefore := walCounters(before)

	// Overflow one session error window in a single resilient attempt:
	// 128 pieces means the first task wave has well over the window's 64
	// independent root tasks, every one of which panics (rate 1), so the
	// window must evict. The resilient driver then rolls back, the
	// injector's budget runs out, and the job still converges. (Vectors
	// are cut at 64-point leaves, so 128 pieces need 8 192 rows or more.)
	j, err := s.Submit(testSpec(func(sp *jobspec.Spec) {
		sp.Matrix = "lap2d:96x96"
		sp.Pieces = 128
		sp.Faults = "panic=1,max=128,seed=1"
		sp.CheckpointEvery = 1
		sp.MaxRestarts = 200
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Converged must mean the host-side residual: a first verification
	// whose tasks all fail has to read NaN, not the 0 its reduction finds
	// in a workspace nothing wrote (the session must remember the
	// failures until the driver drains, however fast they retire).
	if r := j.Result(); !r.Converged || r.TrueResidual > 1.05e-8 {
		t.Fatalf("faulted resilient job did not converge: %+v", r)
	}

	after := fetch()
	if got := num(after, "errs_dropped"); got <= 0 {
		t.Fatalf("errs_dropped = %d after >64 failures in one attempt, want > 0", got)
	}
	walAfter := walCounters(after)
	for _, key := range []string{"records_appended", "fsyncs", "checkpoints_persisted"} {
		if walAfter[key] <= walBefore[key] {
			t.Fatalf("wal.%s did not move: %d -> %d", key, walBefore[key], walAfter[key])
		}
	}
	if walAfter["bytes_on_disk"] <= walBefore["bytes_on_disk"] {
		t.Fatalf("wal.bytes_on_disk did not grow with the journal: %d -> %d", walBefore["bytes_on_disk"], walAfter["bytes_on_disk"])
	}
	for _, key := range []string{"records_replayed", "records_truncated", "recovery_ns", "segments", "jobs_resumed", "truncated_bytes", "compactions", "segments_dropped"} {
		if _, ok := walAfter[key]; !ok {
			t.Fatalf("wal metrics missing %q: %v", key, walAfter)
		}
	}
	if _, ok := after["evicted_jobs"]; !ok {
		t.Fatal("metrics missing evicted_jobs")
	}
}

// A finished job whose residual is not finite must still reach its
// client and its journal. encoding/json refuses NaN: the HTTP answer
// used to be a 200 with an empty body, and the done record was never
// written, so every restart re-queued and re-ran the job.
func TestNonFiniteResultSurvivesHTTPAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxActive: 1, CoalesceMax: 1, WALDir: dir, FsyncEvery: 1}
	s := mustServer(t, cfg)
	ts := httptest.NewServer(Handler(s))
	resp, err := http.Post(ts.URL+"/solve?wait=1", "application/json",
		strings.NewReader(`{"matrix":"lap2d:16x16","solver":"cg","faults":"nan=0.2,seed=1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	ts.Close()
	s.Drain()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("POST /solve?wait=1: status %d, decode error %v", resp.StatusCode, err)
	}
	nonFiniteDone := func(v JobView) bool {
		r := v.Result
		return v.State == StateDone && r != nil && !r.Converged &&
			(math.IsNaN(r.Residual) || math.IsInf(r.Residual, 0))
	}
	if !nonFiniteDone(view) {
		t.Fatalf("served view = %+v (result %+v), want done, not converged, non-finite residual", view, view.Result)
	}

	s2 := mustServer(t, cfg)
	defer s2.Drain()
	j, ok := s2.Job(view.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", view.ID)
	}
	if v := j.Snapshot(); !nonFiniteDone(v) {
		t.Fatalf("replayed view = %+v (result %+v), want the journaled done result", v, v.Result)
	}
	if m := s2.Metrics(); m.Completed != 0 {
		t.Fatalf("restart re-ran %d job(s): the done record was not journaled", m.Completed)
	}
}
