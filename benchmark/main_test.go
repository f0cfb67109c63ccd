package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/serve"
)

// TestCheckerCountsFailures sends the verification path every way a
// served answer goes wrong at the seed — a NaN result (which the server
// encodes as a 200 with an empty body), a 503, a non-converged solve, a
// residual of twice the tolerance — plus one good answer, through the
// same solveWait the workloads use. Each bad answer must be counted as
// failed and leave no latency sample behind.
func TestCheckerCountsFailures(t *testing.T) {
	const tol = 1e-8
	view := func(mut func(*serve.JobResult)) []byte {
		res := &serve.JobResult{Solver: "cg", Iterations: 10, Converged: true, TrueResidual: tol / 2, Elapsed: time.Millisecond}
		mut(res)
		b, err := json.Marshal(serve.JobView{ID: "job-1", State: serve.StateDone, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	replies := []struct {
		name   string
		status int
		body   []byte
		reason string
	}{
		{"good", 200, view(func(*serve.JobResult) {}), ""},
		{"NaN result served as empty 200", 200, nil, "empty body"},
		{"queue full", 503, []byte("serve: admission queue full, retry later\n"), "http 503"},
		{"not converged", 200, view(func(r *serve.JobResult) { r.Converged = false }), "not converged"},
		{"residual 2·tol", 200, view(func(r *serve.JobResult) { r.TrueResidual = 2 * tol }), "residual above tolerance"},
		{"truncated body", 200, []byte(`{"id":"job-1","state":`), "undecodable body"},
		{"still running", 200, []byte(`{"id":"job-1","state":"running"}`), "job not done"},
	}
	next := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply := replies[next]
		next++
		w.WriteHeader(reply.status)
		w.Write(reply.body)
	}))
	defer ts.Close()
	s := &liveServer{base: ts.URL, client: ts.Client()}

	var tl tally
	sp := jobspec.Default()
	sp.Tol = tol
	for range replies {
		s.solveWait(sp, &tl)
	}
	if tl.attempted != len(replies) || tl.failed != len(replies)-1 || tl.ok() != 1 {
		t.Fatalf("attempted %d failed %d, want %d and %d", tl.attempted, tl.failed, len(replies), len(replies)-1)
	}
	if len(tl.latMS) != 1 || len(tl.elapsedS) != 1 || len(tl.iterUS) != 1 {
		t.Fatalf("failed operations left samples: %d latencies, %d elapsed, %d iter", len(tl.latMS), len(tl.elapsedS), len(tl.iterUS))
	}
	for _, reply := range replies[1:] {
		if tl.reasons[reply.reason] != 1 {
			t.Errorf("%s: reason %q counted %d times, want 1 (all: %v)", reply.name, reply.reason, tl.reasons[reply.reason], tl.reasons)
		}
	}

	// The one-shot path checks the struct itself, where NaN survives.
	for name, mut := range map[string]func(*serve.JobResult){
		"NaN":         func(r *serve.JobResult) { r.TrueResidual = math.NaN() },
		"Inf":         func(r *serve.JobResult) { r.TrueResidual = math.Inf(1) },
		"error":       func(r *serve.JobResult) { r.Err = "task failed" },
		"breakdown":   func(r *serve.JobResult) { r.Breakdown = "rho vanished" },
		"claims only": func(r *serve.JobResult) { r.TrueResidual = 1.06 * tol },
	} {
		res := serve.JobResult{Converged: true, TrueResidual: tol}
		if reason := checkResult(&res, tol); reason != "" {
			t.Fatalf("clean result rejected: %s", reason)
		}
		mut(&res)
		if checkResult(&res, tol) == "" {
			t.Errorf("%s result accepted", name)
		}
	}
	if checkResult(nil, tol) == "" {
		t.Error("missing result accepted")
	}
}

// TestSmokeSuite runs the whole protocol at smoke scale: every workload,
// timed then traced, in this process. It pins what the report must
// hold — every metric by its exact name, nothing failed, the
// environment — and the stress/bypass design: coalescing only on
// served-batch, the journal only on served-durable.
func TestSmokeSuite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.json")
	var out bytes.Buffer
	o := runOpts{seed: 7, scale: "smoke", workdir: t.TempDir(), rep: runRep}
	if err := suite(&out, path, o); err != nil {
		t.Fatalf("suite: %v\n%s", err, out.String())
	}
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.NumCPU < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" || rep.Env.CPUModel == "" || rep.Seed != 7 {
		t.Errorf("environment not captured: %+v seed %d", rep.Env, rep.Seed)
	}
	if len(rep.Workloads) != 6 {
		t.Fatalf("%d workloads, want 6", len(rep.Workloads))
	}
	for _, w := range rep.Workloads {
		if w.Failed != 0 || w.Attempted == 0 || w.OK != w.Attempted || w.FailShare != 0 {
			t.Errorf("%s: attempted %d ok %d failed %d (%v)", w.Name, w.Attempted, w.OK, w.Failed, w.Reasons)
		}
		for _, m := range e2eMetrics {
			got := w.E2E[m.name]
			if !(got.Value > 0) || got.Min > got.Median || got.Median > got.Max || len(got.Values) != w.Reps ||
				(got.Value != got.Min && got.Value != got.Max) {
				t.Errorf("%s %s = %+v over %d reps", w.Name, m.name, got, w.Reps)
			}
			if got.Unit != m.unit || got.Bound != m.bound || got.Better != m.better {
				t.Errorf("%s %s carries %s/%s/%g", w.Name, m.name, got.Unit, got.Better, got.Bound)
			}
		}
		for _, m := range layerMetrics {
			if _, ok := w.Layers[m.name]; !ok {
				t.Errorf("%s: layer metric %s missing", w.Name, m.name)
			}
		}
		for _, name := range []string{"core.task_us.matmul", "core.tasks_per_iter", "taskrt.launched", "solvers.iterations", "core.plan_ms", "obs.spans"} {
			if !(w.Layers[name] > 0) {
				t.Errorf("%s: %s = %g, want > 0", w.Name, name, w.Layers[name])
			}
		}
		journaled := w.Layers["wal.records_per_job"] > 0 && w.Layers["wal.bytes_per_job"] > 0 && w.Layers["wal.records_replayed"] > 0 && w.Layers["wal.append_us"] > 0
		if want := w.Name == "served-durable"; journaled != want {
			t.Errorf("%s: journal layers active = %v, want %v (%v)", w.Name, journaled, want, w.Layers)
		}
		coalesced := w.Layers["serve.batches"] > 0
		if want := w.Name == "served-batch"; coalesced != want {
			t.Errorf("%s: coalesced batches = %g", w.Name, w.Layers["serve.batches"])
		}
		if strings.HasPrefix(w.Name, "served-") {
			sum := w.Layers["serve.queue_wait_ms"] + w.Layers["serve.solve_ms"] + w.Layers["serve.job_overhead_ms"]
			if !(sum > 0) || !(w.Layers["serve.submit_us"] > 0) || !(w.Layers["serve.http_rtt_us"] > 0) {
				t.Errorf("%s: served layers empty: %v", w.Name, w.Layers)
			}
		}
	}
	if w := rep.find("served-batch"); w.Layers["serve.coalesce_width"] < 2 {
		t.Errorf("served-batch coalesce width %g", w.Layers["serve.coalesce_width"])
	}
	if w := rep.find("served-solo"); !raceDetector && !(w.Layers["serve.concurrent.jobs_per_s"] > 0) {
		t.Errorf("served-solo ran no concurrent probe: %v", w.Layers)
	}
	if w := rep.find("oneshot-mid-bicg"); math.Abs(w.Layers["serve.unaccounted_share"]) > 0.5 {
		t.Errorf("one-shot stages leave %g of RunSolve unaccounted", w.Layers["serve.unaccounted_share"])
	}

	// A report compared with itself is within every bound.
	var cmp bytes.Buffer
	worse, err := compareFiles(&cmp, path, path)
	if err != nil || worse {
		t.Fatalf("A/A compare: worse=%v err=%v\n%s", worse, err, cmp.String())
	}
	if n := strings.Count(cmp.String(), "\n"); n != 2+6*(len(e2eMetrics)+1) {
		t.Errorf("compare printed %d lines:\n%s", n, cmp.String())
	}
}

// TestDriverLine pins the final output line's shape for the driver:
// exactly the end-to-end names untraced, exactly the per-layer names
// traced, and correct only when nothing failed.
func TestDriverLine(t *testing.T) {
	w, err := findWorkload("oneshot-mid-bicg", "smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		r, err := runWorkload(w, runOpts{seed: 3, scale: "smoke", traced: traced, workdir: t.TempDir(), rep: runRep})
		if err != nil {
			t.Fatal(err)
		}
		d := r.driverLine(traced)
		want := e2eMetrics
		if traced {
			want = layerMetrics
		}
		if !d.Correct || d.Attempted < 1 || d.Failed != 0 || len(d.Metrics) != len(want) {
			t.Fatalf("traced=%v: %+v", traced, d)
		}
		for _, m := range want {
			if got, ok := d.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v", traced, m.name, got)
			}
		}
		r.failed++
		if r.driverLine(traced).Correct {
			t.Errorf("traced=%v: a failed operation left the run correct", traced)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(better string, bound float64, xs ...float64) metricReport {
		return metricReport{"ms", better, bound, summarize(xs, metricDef{better: better})}
	}
	for _, c := range []struct {
		name string
		a, b metricReport
		want string
	}{
		{"same", m("lower", 0.1, 10, 10.1, 10.2), m("lower", 0.1, 10.1, 10.2, 10.3), "within"},
		{"slower", m("lower", 0.1, 10, 10.1, 10.2), m("lower", 0.1, 12, 12.1, 12.2), "worse"},
		{"faster", m("lower", 0.1, 10, 10.1, 10.2), m("lower", 0.1, 8, 8.1, 8.2), "better"},
		{"throughput down", m("higher", 0.1, 100, 101, 102), m("higher", 0.1, 80, 81, 82), "worse"},
		{"throughput up", m("higher", 0.1, 100, 101, 102), m("higher", 0.1, 120, 121, 122), "better"},
		{"too noisy to tell", m("lower", 0.1, 8, 10, 12), m("lower", 0.1, 9, 11, 13), "unresolved"},
		{"noisy but disjoint, better", m("lower", 0.1, 8, 10, 12), m("lower", 0.1, 4, 5, 6), "better"},
		{"noisy but disjoint, worse", m("lower", 0.1, 8, 10, 12), m("lower", 0.1, 16, 20, 24), "worse"},
	} {
		if _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFlagsFailures: a fail_share that rises is worse whatever
// the timings say.
func TestCompareFlagsFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int) string {
		rep := report{Workloads: []workloadReport{{Name: "w", Attempted: 10, OK: 10 - failed, Failed: failed,
			FailShare: float64(failed) / 10, E2E: map[string]metricReport{}}}}
		b, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, failing := write("a.json", 0), write("b.json", 1)
	if worse, err := compareFiles(io.Discard, clean, failing); err != nil || !worse {
		t.Errorf("rising fail_share: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(io.Discard, failing, clean); err != nil || worse {
		t.Errorf("falling fail_share: worse=%v err=%v", worse, err)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the benchmark's tables")

// The shape of the root BENCHMARK.json, which the benchmark driver
// reads before it runs anything.
type contractFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractLoad   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestContractFile holds BENCHMARK.json to this package's own tables —
// same workloads, same metrics, same bounds, same run length — and to
// the limits the driver refuses a file for.
func TestContractFile(t *testing.T) {
	want := contractFile{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	ws, err := workloads("full")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		want.Workloads = append(want.Workloads, contractLoad{w.name, w.why})
	}
	for _, m := range e2eMetrics {
		bound := m.bound
		want.EndToEnd = append(want.EndToEnd, contractMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range layerMetrics {
		want.PerLayer = append(want.PerLayer, contractMetric{m.name, m.unit, m.better, nil})
	}

	if *update {
		wb, _ := json.MarshalIndent(want, "", "  ")
		if err := os.WriteFile("../BENCHMARK.json", append(wb, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contractFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gb, _ := json.MarshalIndent(got, "", "  ")
		wb, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json is out of step with the benchmark's tables (go test ./benchmark -update rewrites it):\n%s\nwant\n%s", gb, wb)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]contractMetric{}, got.EndToEnd...), got.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound != nil && !(*m.Bound > 0 && *m.Bound <= 0.25) {
			t.Errorf("%s: bound %g", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better, with a bound")
	}
	if len(b) > 64<<10 || got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("file is %d bytes, run_seconds %d", len(b), got.RunSeconds)
	}
}
