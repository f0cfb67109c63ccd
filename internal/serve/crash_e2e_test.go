package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/wal"
)

// TestCrashRecoveryEndToEnd is the tentpole proof: a real mmserve
// process is SIGKILLed mid-batch — jobs done, jobs mid-solve with
// persisted checkpoints, jobs still queued — and a fresh process on
// the same WAL directory completes every accepted job, resuming
// in-flight ones from their last verified checkpoint rather than
// iteration 0.
//
// The timeline is made deterministic, not hoped for: stall fault
// injection stretches every job to seconds of wall time, the kill
// waits for the journal to report at least one completion and then for
// running jobs to accumulate mid-flight checkpoints, and fsync-every=1
// means every acknowledged record survives the kill.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}

	bin := filepath.Join(t.TempDir(), "mmserve")
	if out, err := exec.Command("go", "build", "-o", bin, "kdrsolvers/cmd/mmserve").CombinedOutput(); err != nil {
		t.Fatalf("build mmserve: %v\n%s", err, out)
	}
	walDir := t.TempDir()

	const tol = 1e-8
	const jobs = 8

	// --- first incarnation -------------------------------------------
	srv1, base1 := startMMServe(t, bin, walDir)

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		spec := jobspec.Default()
		spec.Matrix = "lap2d:32x32"
		spec.Solver = "cg"
		spec.Tol = tol
		spec.Pieces = 8
		spec.CheckpointEvery = 2
		spec.MaxRestarts = 3
		// Half the tasks stall 10ms: at the three or four grouped tasks
		// of a CG iteration, tens of milliseconds per iteration, seconds
		// per job — the batch is guaranteed to still be in flight when
		// the kill lands. Stalls never fail tasks, so convergence is
		// untouched.
		spec.Faults = fmt.Sprintf("stall=0.5,stallms=10,seed=%d", i+1)
		body, _ := json.Marshal(spec)
		resp, err := http.Post(base1+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || view.ID == "" {
			t.Fatalf("submit %d: status %d, view %+v", i, resp.StatusCode, view)
		}
		ids = append(ids, view.ID)
	}

	// Kill mid-batch: wait until some jobs finished but not all, then
	// give the in-flight ones time to checkpoint past iteration 0.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m := fetchMetrics(t, base1)
		if m.Completed >= 1 && m.Completed <= jobs-3 && m.WAL != nil && m.WAL.CheckpointsPersisted > 0 {
			break
		}
		if m.Completed > jobs-3 {
			t.Fatalf("jobs finished too fast to kill mid-batch (completed %d) — stalls not stretching the solve?", m.Completed)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no completions before deadline: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // running jobs now hold checkpoints at iter > 0
	preKill := fetchMetrics(t, base1)
	if err := srv1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	srv1.Wait()
	t.Logf("killed with %d/%d completed, %d checkpoints persisted",
		preKill.Completed, jobs, preKill.WAL.CheckpointsPersisted)

	// --- second incarnation ------------------------------------------
	srv2, base2 := startMMServe(t, bin, walDir)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()

	// Every accepted job completes, and every completion is backed by a
	// host-recomputed true residual at tolerance — journaled pre-crash
	// results and post-crash (re)runs alike.
	resumedJobs := 0
	for _, id := range ids {
		view := waitJobDone(t, base2, id, deadline)
		r := view.Result
		if r == nil || !r.Converged || r.Err != "" {
			t.Fatalf("job %s after restart: %+v", id, r)
		}
		if r.TrueResidual > 1.05*tol {
			t.Fatalf("job %s true residual %g > %g", id, r.TrueResidual, 1.05*tol)
		}
		if r.ResumedFrom > 0 {
			resumedJobs++
			if r.Iterations <= r.ResumedFrom {
				t.Fatalf("job %s: %d total iterations not past its checkpoint at %d",
					id, r.Iterations, r.ResumedFrom)
			}
		}
	}
	if resumedJobs == 0 {
		t.Fatal("no job reports resuming from a checkpoint — the restart re-ran everything from scratch")
	}

	// Independent evidence from the journal itself: the second
	// incarnation journaled done records of jobs resumed at iteration
	// > 0, and replay recovered records the first incarnation wrote.
	m2 := fetchMetrics(t, base2)
	if m2.WAL == nil || m2.WAL.RecordsReplayed == 0 {
		t.Fatalf("second incarnation replayed nothing: %+v", m2.WAL)
	}
	if m2.WAL.JobsResumed == 0 {
		t.Fatalf("second incarnation resumed no jobs from checkpoints: %+v", m2.WAL)
	}
	srv2.Process.Signal(syscall.SIGTERM)
	srv2.Wait()

	resumedDone := 0
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Replay(func(p []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return nil
		}
		if rec.T == recDone && rec.Result != nil && rec.Result.ResumedFrom > 0 {
			resumedDone++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if resumedDone == 0 {
		t.Fatal("journal holds no done record of a job resumed at iteration > 0")
	}
	t.Logf("restart: %d job(s) resumed from checkpoints (%d done records say so), all %d jobs converged ≤ %g",
		resumedJobs, resumedDone, jobs, 1.05*tol)
}

// startMMServe launches the built binary against walDir and waits for
// it to serve /healthz.
func startMMServe(t *testing.T, bin, walDir string) (*exec.Cmd, string) {
	t.Helper()
	addr := freeAddr(t)
	cmd := exec.Command(bin,
		"-addr", addr, "-wal-dir", walDir, "-fsync-every", "1",
		"-max-active", "2", "-coalesce-max", "1", "-queue-depth", "64")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start mmserve: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("mmserve at %s never became healthy", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// freeAddr reserves a localhost port long enough to hand it to the
// child process.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func fetchMetrics(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func waitJobDone(t *testing.T, base, id string, deadline time.Time) JobView {
	t.Helper()
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		decErr := json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Fatalf("job %s unknown after restart — lost by the journal", id)
		}
		if decErr != nil {
			t.Fatal(decErr)
		}
		if view.State == StateDone {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at deadline", id, view.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
