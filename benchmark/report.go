package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment is what a number needs beside it to mean anything later:
// the machine, the toolchain and the commit it was measured on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func captureEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		L2:         sysfsCache("index2"),
		L3:         sysfsCache("index3"),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown", // a checkout without .git has none to give
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(b))
	}
	return env
}

func sysfsCache(index string) string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + index + "/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// metricReport is one end-to-end metric of one workload in a report.
type metricReport struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
}

// workloadReport is one workload in a report: the timed run's
// end-to-end metrics and operation counts, the traced run's layers.
type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Reps is the timed run's repetition count; Jobs the workload's job
	// counts per repetition.
	Reps      int                     `json:"reps"`
	Jobs      map[string]int          `json:"jobs_per_rep"`
	Attempted int                     `json:"attempted"`
	OK        int                     `json:"ok"`
	Failed    int                     `json:"failed"`
	FailShare float64                 `json:"fail_share"`
	Reasons   map[string]int          `json:"failure_reasons,omitempty"`
	E2E       map[string]metricReport `json:"end_to_end"`
	Layers    layers                  `json:"per_layer"`
}

// report is the suite's output file.
type report struct {
	Env       environment      `json:"environment"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds_per_run"`
	Scale     string           `json:"scale"`
	Workloads []workloadReport `json:"workloads"`
}

func (w workload) jobCounts() map[string]int {
	switch w.kind {
	case oneshot:
		return map[string]int{"solves": 1}
	case servedBatch:
		return map[string]int{"warmup": w.warmup, "waves": w.waves, "wave_jobs": w.waveJobs}
	}
	return map[string]int{"warmup": w.warmup, "jobs": w.jobs}
}

// print writes a run for a reader: counts, then every metric by name
// with unit, direction, bound, the reported value and the
// repetitions' min/median/max.
func (r runResult) print(out io.Writer, traced bool) {
	w := r.workload
	fmt.Fprintf(out, "%s: %d repetition(s), attempted %d, ok %d, failed %d (fail_share %.4f)\n",
		w.name, r.reps, r.attempted, r.attempted-r.failed, r.failed, share(float64(r.failed), float64(r.attempted)))
	for reason, n := range r.reasons {
		fmt.Fprintf(out, "  failed: %d × %s\n", n, reason)
	}
	if !traced {
		for _, m := range e2eMetrics {
			s := r.e2e[m.name]
			fmt.Fprintf(out, "  %-12s %-4s %-6s bound %.2f  value %-10.6g reps %d  min %.6g  median %.6g  max %.6g\n",
				m.name, m.unit, m.better, m.bound, s.Value, len(s.Values), s.Min, s.Median, s.Max)
		}
		return
	}
	for _, m := range layerMetrics {
		fmt.Fprintf(out, "  %-33s %-6s %.6g\n", m.name, m.unit, r.layers[m.name])
	}
	r.printReconciliation(out)
}

// printReconciliation sets the layer numbers against the end-to-end
// figure they decompose, so a reader sees at once whether they add up.
func (r runResult) printReconciliation(out io.Writer) {
	l := r.layers
	switch r.workload.kind {
	case oneshot:
		stages := l["jobspec.load_ms"] + l["jobspec.rhs_ms"] + l["sparse.convert_ms"] + l["core.plan_ms"] +
			l["serve.solve_ms"] + l["serve.host_residual_ms"]
		fmt.Fprintf(out, "  reconcile: load+rhs+convert+plan+Elapsed+host_residual = %.1f ms against traced solve_s %.1f ms; unaccounted share of RunSolve %.4f; recording overhead %.4f\n",
			stages, r.tracedSolveS*1e3, l["serve.unaccounted_share"], l["obs.trace_overhead_share"])
	default:
		fmt.Fprintf(out, "  reconcile: queue_wait %.3f + solve %.3f + job_overhead %.3f = mean client latency %.3f ms; recording overhead %.4f\n",
			l["serve.queue_wait_ms"], l["serve.solve_ms"], l["serve.job_overhead_ms"],
			l["serve.queue_wait_ms"]+l["serve.solve_ms"]+l["serve.job_overhead_ms"], l["obs.trace_overhead_share"])
	}
}

// suite runs every workload, timed then traced, prints each run, and
// writes the report to path when one is given.
func suite(out io.Writer, path string, o runOpts) error {
	ws, err := workloads(o.scale)
	if err != nil {
		return err
	}
	rep := report{Env: captureEnvironment(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale}
	fmt.Fprintf(out, "environment: %+v\nseed %d, %.0f s per run, scale %s\n", rep.Env, o.seed, o.seconds, o.scale)
	for _, w := range ws {
		o.traced = false
		timed, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		timed.print(out, false)
		o.traced = true
		traced, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		traced.print(out, true)

		wr := workloadReport{
			Name: w.name, Why: w.why, Reps: timed.reps, Jobs: w.jobCounts(),
			Attempted: timed.attempted, OK: timed.attempted - timed.failed, Failed: timed.failed,
			FailShare: share(float64(timed.failed), float64(timed.attempted)), Reasons: timed.reasons,
			E2E: map[string]metricReport{}, Layers: layers{},
		}
		for _, m := range e2eMetrics {
			wr.E2E[m.name] = metricReport{m.unit, m.better, m.bound, timed.e2e[m.name]}
		}
		for _, m := range layerMetrics {
			wr.Layers[m.name] = finite(traced.layers[m.name])
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if csr, auto := rep.find("oneshot-large-csr"), rep.find("oneshot-large-auto"); csr != nil && auto != nil {
		a, c := auto.E2E["iter_us"].Value, csr.E2E["iter_us"].Value
		fmt.Fprintf(out, "iter_us oneshot-large-auto / oneshot-large-csr = %.3f (base %.6g us)\n", share(a, c), c)
	}
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *report) find(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges a metric of B against the same metric of A. The ratio
// is B's reported value over A's. A worsening beyond the bound is worse and an
// improvement beyond it better, but only when the repetitions resolve
// the bound: where either side's spread is wider than the bound the
// pair is unresolved, unless every repetition of one side reads better
// than every repetition of the other.
func verdict(a, b metricReport) (ratio float64, v string) {
	if !(a.Value > 0 && b.Value > 0) {
		return 0, "unresolved" // a side with no verified repetition has nothing to compare
	}
	ratio = b.Value / a.Value
	worsening := ratio - 1
	aBest, aWorst, bBest, bWorst := a.Min, a.Max, b.Min, b.Max
	if a.Better == "higher" {
		worsening = 1 - ratio
		aBest, aWorst, bBest, bWorst = -a.Max, -a.Min, -b.Max, -b.Min
	}
	if max(a.spread(), b.spread()) > a.Bound {
		switch {
		case bWorst < aBest:
			return ratio, "better"
		case bBest > aWorst && worsening > a.Bound:
			return ratio, "worse"
		}
		return ratio, "unresolved"
	}
	switch {
	case worsening > a.Bound:
		return ratio, "worse"
	case worsening < -a.Bound:
		return ratio, "better"
	}
	return ratio, "within"
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the ratio with its base, the bound and the verdict. It reports true
// when any metric is worse or any workload's fail_share rose.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A = %s (%s, seed %d)\nB = %s (%s, seed %d)\n",
		pathA, a.Env.GitCommit, a.Seed, pathB, b.Env.GitCommit, b.Seed)
	anyWorse := false
	for _, wa := range a.Workloads {
		wb := b.find(wa.Name)
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		names := make([]string, 0, len(wa.E2E))
		for name := range wa.E2E {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb := wa.E2E[name], wb.E2E[name]
			ratio, v := verdict(ma, mb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-19s %-12s A %-12.6g B %-12.6g %-4s B/A %.3f (base %.6g)  bound %.2f  %s\n",
				wa.Name, name, ma.Value, mb.Value, ma.Unit, ratio, ma.Value, ma.Bound, v)
		}
		v := "within"
		if wb.FailShare > wa.FailShare {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(out, "%-19s %-12s A %-12.6g B %-12.6g (failed %d/%d vs %d/%d; may not rise)  %s\n",
			wa.Name, "fail_share", wa.FailShare, wb.FailShare, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, v)
	}
	return anyWorse, nil
}
