package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/sparse"
)

// mustServer starts a server, failing the test on a journal-open
// error (impossible without WALDir).
func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

func testSpec(mut func(*jobspec.Spec)) jobspec.Spec {
	s := jobspec.Default()
	s.Matrix = "lap2d:16x16"
	s.Solver = "cg"
	s.Pieces = 4
	if mut != nil {
		mut(&s)
	}
	return s
}

func TestServerSolvesConcurrently(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 4, QueueDepth: 32, CoalesceMax: 1})
	defer s.Drain()
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(testSpec(nil))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		r := j.Result()
		if !r.Converged || r.Err != "" {
			t.Fatalf("job %s: converged=%v err=%q", j.ID, r.Converged, r.Err)
		}
		if r.TrueResidual > 1.05e-8 {
			t.Fatalf("job %s: true residual %g", j.ID, r.TrueResidual)
		}
	}
	m := s.Metrics()
	if m.Completed != 8 || m.Failed != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestServerRetainsNoGraph pins the server's memory per job: its runtime
// must not keep a graph node per launched task (a long-lived server
// would grow by megabytes per solve).
func TestServerRetainsNoGraph(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, QueueDepth: 8, CoalesceMax: 1})
	defer s.Drain()
	for i := 0; i < 5; i++ {
		j, err := s.Submit(testSpec(nil))
		if err != nil {
			t.Fatal(err)
		}
		if r := j.Result(); !r.Converged || r.Err != "" {
			t.Fatalf("job %s: converged=%v err=%q", j.ID, r.Converged, r.Err)
		}
	}
	if st := s.rt.Stats(); st.Launched == 0 {
		t.Fatal("no tasks launched: the jobs did not run on the server's runtime")
	}
	if n := s.rt.Graph().Len(); n != 0 {
		t.Fatalf("server runtime retains %d graph nodes after 5 solo jobs, want 0", n)
	}
}

func TestServerRejectsInvalidSpec(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Drain()
	_, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Pieces = 0; sp.MaxIter = -1 }))
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"pieces must be", "maxiter must be"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if s.Metrics().RejectedInvalid != 1 {
		t.Fatal("rejection not counted")
	}
}

// wedgeWorker submits a job that occupies one worker until release is
// called, however fast a solve is: the job's matrix-cache entry is planted
// first with its sync.Once already taken, so the worker's load waits on
// the test instead of racing it. It returns once a worker has claimed the
// job. release is idempotent; call it before Drain.
func wedgeWorker(t *testing.T, s *Server) (blocker *Job, release func()) {
	t.Helper()
	const key = "lap2d:9x9" // a valid matrix no other test job names
	e := &matrixEntry{}
	s.mu.Lock()
	s.matrices[key] = e
	s.mu.Unlock()
	gate, taken := make(chan struct{}), make(chan struct{})
	go e.once.Do(func() {
		close(taken)
		<-gate
		e.a, e.err = jobspec.LoadMatrix(key)
	})
	<-taken
	blocker, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Matrix = key }))
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Snapshot().State != StateRunning {
		runtime.Gosched()
	}
	var once sync.Once
	return blocker, func() { once.Do(func() { close(gate) }) }
}

// Queue admission is bounded: with the worker wedged the queue fills, and
// the next submission gets ErrQueueFull instead of unbounded growth.
func TestServerQueueBound(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, QueueDepth: 2, CoalesceMax: 1})
	defer s.Drain()
	// Occupy the single worker, then fill the queue.
	_, release := wedgeWorker(t, s)
	defer release()
	// Distinct tols so the queued pair can't be coalesced away even if
	// config changes; they just wait.
	var lastErr error
	full := 0
	for i := 0; i < 8; i++ {
		_, lastErr = s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Tol = 1e-6 / float64(i+1) }))
		if lastErr != nil {
			full++
		}
	}
	if full == 0 {
		t.Fatal("queue never filled")
	}
	if lastErr != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", lastErr)
	}
	if s.Metrics().RejectedFull == 0 {
		t.Fatal("queue-full rejection not counted")
	}
}

// Coalesced same-operator jobs produce the same per-job answers a solo
// run would, and the batch actually forms.
func TestServerCoalescesSameOperatorJobs(t *testing.T) {
	solo := func() JobResult {
		s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1})
		defer s.Drain()
		j, err := s.Submit(testSpec(nil))
		if err != nil {
			t.Fatal(err)
		}
		return *j.Result()
	}()

	s := mustServer(t, Config{MaxActive: 1, QueueDepth: 32, CoalesceMax: 8})
	defer s.Drain()
	// Wedge the worker so the compatible group queues up behind it.
	blocker, release := wedgeWorker(t, s)
	defer release()
	var group []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(testSpec(nil))
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, j)
	}
	release()
	blocker.Result()
	for _, j := range group {
		r := j.Result()
		if !r.Converged || r.Err != "" {
			t.Fatalf("coalesced job %s failed: %+v", j.ID, r)
		}
		if r.Coalesced != 4 {
			t.Fatalf("job %s ran in batch of %d, want 4", j.ID, r.Coalesced)
		}
		// Identical spec, identical RHS: the block solve must reproduce
		// the solo solution. A member is judged by its own residual.
		if r.TrueResidual > 1.05e-8 {
			t.Fatalf("coalesced job %s: true residual %g", j.ID, r.TrueResidual)
		}
		a, err := jobspec.LoadMatrix(j.Spec.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		if host := HostResidual(a, r.X, j.Spec.BuildRHS(a, r.N)); r.Converged != (host <= j.Spec.Tol) {
			t.Fatalf("coalesced job %s: converged=%v with host residual %g (tol %g)", j.ID, r.Converged, host, j.Spec.Tol)
		}
		for i, v := range r.X {
			if dv := v - solo.X[i]; dv > 1e-9 || dv < -1e-9 {
				t.Fatalf("coalesced solution diverges from solo at %d: %g vs %g", i, v, solo.X[i])
			}
		}
	}
	m := s.Metrics()
	if m.Batches != 1 || m.CoalescedJobs != 4 {
		t.Fatalf("batches=%d coalesced=%d, want 1/4", m.Batches, m.CoalescedJobs)
	}
}

// A claimed group runs as one batch however large its operator: the
// batch tiles one stored operator, so there is no storage budget to cut
// it by. (At 8 × 1.12 M nonzeros a budget of 8 Mi stored entries would
// split these jobs 7 + 1.)
func TestServerRunsClaimedGroupAsOneBatch(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("writes and loads a 1.12 M-nonzero matrix")
	}
	const rows, perRow = 2000, 560
	r := rand.New(rand.NewSource(35))
	coords := make([]sparse.Coord, 0, rows*perRow)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < perRow; j++ {
			// 3 and rows are coprime, so a row's columns are distinct.
			coords = append(coords, sparse.Coord{Row: i, Col: (i + 3*j) % rows, Val: r.NormFloat64()})
		}
	}
	path := filepath.Join(t.TempDir(), "wide.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, sparse.CSRFromCoords(rows, rows, coords)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := mustServer(t, Config{MaxActive: 1, QueueDepth: 16, CoalesceMax: 8})
	defer s.Drain()
	blocker, release := wedgeWorker(t, s)
	defer release()
	var group []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(testSpec(func(sp *jobspec.Spec) {
			sp.Matrix, sp.MaxIter, sp.RHS = path, 2, fmt.Sprintf("rand:%d", i+1)
		}))
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, j)
	}
	release()
	blocker.Result()
	for _, j := range group {
		if r := j.Result(); r.Coalesced != 8 || r.Err != "" {
			t.Fatalf("job %s ran in a batch of %d (err %q), want 8", j.ID, r.Coalesced, r.Err)
		}
	}
	if m := s.Metrics(); m.Batches != 1 || m.CoalescedJobs != 8 {
		t.Fatalf("batches=%d coalesced=%d, want 1/8", m.Batches, m.CoalescedJobs)
	}
}

// A faulted tenant and clean tenants on the SAME server: failure stays
// in its session.
func TestServerContainsFaultedTenant(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 2, CoalesceMax: 1})
	defer s.Drain()
	bad, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Faults = "panic=0.05,seed=3" }))
	if err != nil {
		t.Fatal(err)
	}
	var clean []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(testSpec(nil))
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, j)
	}
	if r := bad.Result(); r.Err == "" {
		t.Fatal("faulted job reported no error")
	}
	for _, j := range clean {
		if r := j.Result(); !r.Converged || r.Err != "" || r.Session.Failed != 0 {
			t.Fatalf("clean tenant polluted: %+v", r)
		}
	}
	if m := s.Metrics(); m.Failed != 1 {
		t.Fatalf("Failed = %d, want exactly the faulted job", m.Failed)
	}
}

// Same matrix + gcrodr: the matrix entry's one recycle space carries
// over from job to job in every storage format — a job converts or
// tunes its own operator, and the space does not care which object it
// was harvested over — so the second job converges in fewer iterations.
func TestServerSharesRecycleCache(t *testing.T) {
	for _, format := range []string{"csr", "auto", "ell"} {
		t.Run(format, func(t *testing.T) {
			s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1})
			defer s.Drain()
			spec := testSpec(func(sp *jobspec.Spec) {
				sp.Solver = "gcrodr"
				sp.Matrix = "lap2d:20x20"
				sp.Format = format
				sp.Tol = 1e-8
			})
			var r [2]*JobResult
			for i := range r {
				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if r[i] = j.Result(); !r[i].Converged {
					t.Fatalf("gcrodr job %d failed: %+v", i+1, r[i])
				}
			}
			if r[1].Iterations >= r[0].Iterations {
				t.Fatalf("recycled job took %d iterations vs %d cold — shared space not used",
					r[1].Iterations, r[0].Iterations)
			}
		})
	}
}

// A matrix that fails to load is not remembered: the entry leaves the
// map, and once the file exists the next job on its path solves.
func TestServerRetriesFailedMatrixLoad(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, CoalesceMax: 1})
	defer s.Drain()
	path := filepath.Join(t.TempDir(), "late.mtx")
	spec := testSpec(func(sp *jobspec.Spec) { sp.Matrix = path })
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r := j.Result(); r.Err == "" {
		t.Fatalf("job on a missing file = %+v, want a load error", r)
	}
	s.mu.Lock()
	left := len(s.matrices)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d matrix entries left after a failed load, want 0", left)
	}

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, sparse.Laplacian2D(16, 16)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if r := j.Result(); !r.Converged || r.Err != "" {
		t.Fatalf("job after the file was written = %+v, want a converged solve", r)
	}
}

// Drain: in-flight jobs finish, queued jobs come back retryable, new
// submissions are refused.
func TestServerDrain(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1, QueueDepth: 16, CoalesceMax: 1})
	inflight, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Matrix = "lap2d:48x48" }))
	if err != nil {
		t.Fatal(err)
	}
	for inflight.Snapshot().State != StateRunning {
		runtime.Gosched() // drain must see it in flight, not queued
	}
	queued, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Tol = 1e-6 }))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Drain() }()
	qr := queued.Result()
	if !qr.Retryable || qr.Err == "" {
		t.Fatalf("queued job at drain = %+v, want retryable rejection", qr)
	}
	ir := inflight.Result()
	if ir.Retryable || !ir.Converged {
		t.Fatalf("in-flight job at drain = %+v, want a finished solve", ir)
	}
	wg.Wait()
	if _, err := s.Submit(testSpec(nil)); err != ErrDraining {
		t.Fatalf("post-drain Submit err = %v, want ErrDraining", err)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 2})
	defer s.Drain()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Submit with wait: the response carries the finished result.
	resp, err := http.Post(ts.URL+"/solve?wait=1", "application/json",
		strings.NewReader(`{"matrix":"lap2d:16x16","solver":"cg","pieces":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.State != StateDone || view.Result == nil || !view.Result.Converged {
		t.Fatalf("view = %+v", view)
	}

	// The job stays queryable.
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", view.ID, resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown job: 404.
	resp, _ = http.Get(ts.URL + "/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The CLI's invalid flag combinations are this API's 400s, with the
	// same validation messages.
	resp, err = http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"matrix":"lap2d:16x16","pieces":0,"maxiter":-1,"retries":-5}`))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d", resp.StatusCode)
	}
	for _, want := range []string{"pieces must be", "maxiter must be", "retries must not"} {
		if !strings.Contains(string(body[:n]), want) {
			t.Errorf("400 body missing %q: %s", want, body[:n])
		}
	}
	// The periodic-replacement knobs are gone: naming one is an unknown
	// field, not a silently ignored one.
	for _, field := range []string{`"replace_every":50`, `"drift_tol":1e-6`} {
		resp, err = http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(`{"matrix":"lap2d:16x16","checkpoint_every":10,`+field+`}`))
		if err != nil {
			t.Fatal(err)
		}
		n, _ = resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body[:n]), "unknown field") {
			t.Errorf("POST /solve with %s = %d %s, want 400 naming an unknown field", field, resp.StatusCode, body[:n])
		}
	}

	// Metrics is live JSON.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Completed < 1 || m.RejectedInvalid != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// A generated stencil's size is a resource a client names too. A product
// nx·ny above 2^31 − 1 — including one that wraps int64, which used to
// pass validation and panic the worker goroutine in sparse.Laplacian2D,
// killing the process and, with a journal, every restart after it — is
// a 400 from validation before anything is allocated, and the server
// goes on serving.
func TestStencilSizeIsBounded(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1})
	defer s.Drain()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	for _, matrix := range []string{
		"lap2d:4294967296x4294967296", // nx·ny wraps to 0
		"lap2d:3037000500x3037000500", // wraps negative
		"lap2d:100000x100000",         // 1e10: no overflow, 800 GB of CSR
		"lap2d:46341x46341",           // first square above the cap
		"lap2d:1x2147483648",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(`{"matrix":"`+matrix+`","solver":"cg"}`))
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 4096)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body[:n]), "too large") {
			t.Errorf("%s: status %d, body %s", matrix, resp.StatusCode, body[:n])
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("rejecting %s allocated %d bytes", matrix, grew)
		}
	}

	j, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Matrix = "lap2d:32x32" }))
	if err != nil {
		t.Fatal(err)
	}
	if res := j.Result(); !res.Converged || res.Err != "" {
		t.Fatalf("job after the rejections failed: %+v", res)
	}
}

// A request body is a resource too. A 16 MiB spec (one long matrix
// string) used to be decoded whole and accepted (202) — a 64 MiB one
// allocated about 1.3 GB — and a body holding a spec and more was
// answered for the first spec with the rest silently dropped. Now a body
// over maxSpecBytes is a 413 that reads no further than the bound (the
// decoder's buffer doublings allocate about 4 MiB on the way), and
// anything after the spec but white space is a 400.
func TestSolveBodyIsBounded(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1})
	defer s.Drain()
	h := Handler(s)
	post := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}

	huge := `{"matrix":"` + strings.Repeat("a", 16<<20) + `"}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, body := post(huge)
	runtime.ReadMemStats(&after)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("16 MiB body: status %d, body %s", code, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("rejecting a 16 MiB body allocated %d bytes", grew)
	}

	for _, body := range []string{
		`{"matrix":"lap2d:8x8"} {"solver":"bogus"} garbage`,
		`{"matrix":"lap2d:8x8"} garbage`,
		`{"matrix":"lap2d:8x8"}}`,
	} {
		if code, msg := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", body, code, msg)
		}
	}
	if code, msg := post("{\"matrix\":\"lap2d:8x8\",\"solver\":\"cg\"}\n\t "); code != http.StatusAccepted {
		t.Errorf("a spec with trailing white space: status %d, body %s", code, msg)
	}
}

// A format is a resource a client names as well: padded formats multiply
// a matrix's size by its shape, so this 70-byte request asked
// DenseFromMatrix for 262 144² × 8 B and the runtime died of it ("fatal
// error: out of memory" is not a panic; nothing recovers it). The
// conversion now refuses before allocating: the job finishes with an
// error naming the format and the bound, and the server goes on serving.
func TestFormatBlowUpIsBounded(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1})
	defer s.Drain()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/solve?wait=1", "application/json",
		strings.NewReader(`{"matrix":"lap2d:512x512","format":"dense"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if view.State != StateDone || view.Result == nil || view.Result.Converged ||
		!strings.Contains(view.Result.Err, "Dense") || !strings.Contains(view.Result.Err, "above the bound") {
		t.Fatalf("dense lap2d:512x512: %+v, result %+v", view, view.Result)
	}
	// The 262 144-row CSR and its vectors are ≈ 35 MB; the dense form
	// would be 550 GB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("refusing the conversion allocated %d bytes", grew)
	}

	j, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Matrix = "lap2d:32x32" }))
	if err != nil {
		t.Fatal(err)
	}
	if res := j.Result(); !res.Converged || res.Err != "" {
		t.Fatalf("job after the refusal failed: %+v", res)
	}
}

// pieces is a resource a client names. An absurd width is a 400 from
// validation — before a partition with one interval set per color is
// ever allocated — and a merely large one is cheap: the solve clamps the
// width to the row count and the planner launches the one-row pieces by
// the grain, so it runs the 8-piece solve's iterations with a handful of
// launches each (the parent launched one task per piece per sweep and did
// not finish -pieces 2000 on lap2d:32x32 in two minutes).
func TestPiecesAreBounded(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1})
	defer s.Drain()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"matrix":"lap2d:32x32","solver":"cg","pieces":1000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body[:n]), "pieces must be at most") {
		t.Fatalf("pieces 1e9: status %d, body %s", resp.StatusCode, body[:n])
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting pieces 1e9 allocated %d bytes", grew)
	}

	solve := func(pieces int) JobResult {
		j, err := s.Submit(testSpec(func(sp *jobspec.Spec) { sp.Matrix = "lap2d:32x32"; sp.Pieces = pieces }))
		if err != nil {
			t.Fatal(err)
		}
		return *j.Result()
	}
	few, many := solve(8), solve(2000)
	if !many.Converged || many.Err != "" {
		t.Fatalf("pieces 2000 failed: %+v", many)
	}
	if d := many.Iterations - few.Iterations; d < -1 || d > 1 {
		t.Errorf("pieces 2000 took %d iterations, pieces 8 took %d", many.Iterations, few.Iterations)
	}
	if perIter := float64(many.Session.Launched) / float64(many.Iterations); perIter > 12 {
		t.Errorf("pieces 2000 launched %.1f tasks per iteration, want at most 12", perIter)
	}
}

// A retry runs back to back and its count is bounded, so a spec cannot
// park a shared worker: retry_backoff is an unknown field, a 400 that
// names it, and a retry count above the cap is a 400 too.
func TestFaultRetrySpecsAreBounded(t *testing.T) {
	s := mustServer(t, Config{MaxActive: 1})
	defer s.Drain()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	for _, tc := range []struct{ body, want string }{
		{`{"matrix":"lap2d:8x8","retries":2,"retry_backoff":1000000000}`, `unknown field "retry_backoff"`},
		{`{"matrix":"lap2d:8x8","faults":"panic=1,sticky=1,seed=1","retries":9}`, "retries must be at most 8"},
	} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 4096)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body[:n]), tc.want) {
			t.Errorf("POST /solve %s = %d %s, want 400 naming %q", tc.body, resp.StatusCode, body[:n], tc.want)
		}
	}
	if m := s.Metrics(); m.Completed+m.Failed != 0 || m.Active+m.Queued != 0 {
		t.Errorf("a rejected spec ran: %+v", m)
	}
}
