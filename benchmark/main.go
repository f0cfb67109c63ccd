// Benchmark is the one instrument every performance claim about this
// repository is measured with: six named workloads down the code paths
// cmd/mmsolve and cmd/mmserve execute, every answer verified before it
// counts, five gated end-to-end metrics with regression bounds, and one
// traced run per workload that takes each module's numbers from
// outside. README.md defines every metric and workload.
//
//	go run ./benchmark -seed 1 -o out.json        all six workloads, timed then traced
//	go run ./benchmark -compare A.json B.json     verdict per workload × metric
//	go run ./benchmark -workload served-solo -seed 1 -seconds 20 -trace 0
//
// The last form is one run of one workload as the benchmark driver
// makes it (BENCHMARK.json): its final line of output is one JSON
// object holding correct, attempted, failed and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is the time budget of one run, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all six, as a suite)")
		seed    = flag.Int64("seed", 1, "the only source of randomness: job i solves for rhs rand:<seed+i>")
		seconds = flag.Float64("seconds", defaultSeconds, "time budget of one run; repetitions start while they fit")
		trace   = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of timed repetitions, 1 the per-layer metrics of a traced one")
		scale   = flag.String("scale", "full", "full, or smoke for tiny sizes in one process")
		out     = flag.String("o", "", "suite: write the report to this file")
		cmp     = flag.Bool("compare", false, "compare two suite reports: -compare A.json B.json")
		child   = flag.Bool("child", false, "internal: run one repetition and print its report")
		rep     = flag.Int("rep", 0, "internal: repetition index")
		workdir = flag.String("workdir", "", "internal: scratch directory of the repetition")
	)
	flag.Parse()

	switch {
	case *child:
		res, err := runRep(repArgs{Workload: *name, Scale: *scale, Seed: *seed, Rep: *rep, Traced: *trace != 0, Workdir: *workdir})
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(res)
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	default:
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
		}
		if err := measure(*name, *out, runOpts{seed: *seed, seconds: *seconds, traced: *trace != 0, scale: *scale}); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// measure runs one workload (the driver's protocol) or the whole suite,
// with a scratch directory inside the checkout that it removes again.
func measure(name, out string, o runOpts) error {
	scratch := filepath.Join(".bench_build", fmt.Sprintf("kdrbench-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	o.workdir = scratch
	o.rep = execRep
	if o.scale == "smoke" {
		o.rep = runRep
	}
	if name == "" {
		return suite(os.Stdout, out, o)
	}
	w, err := findWorkload(name, o.scale)
	if err != nil {
		return err
	}
	r, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	r.print(os.Stdout, o.traced)
	return json.NewEncoder(os.Stdout).Encode(r.driverLine(o.traced))
}

// runOpts are the settings of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	scale   string
	workdir string
	// rep runs one repetition: in a child process, or in this one at
	// smoke scale.
	rep func(repArgs) (repResult, error)
}

// runResult is one run of one workload: its repetitions' operations
// summed, each end-to-end metric's spread over the repetitions, and on
// a traced run the per-layer metrics.
type runResult struct {
	workload  workload
	reps      int
	attempted int
	failed    int
	reasons   map[string]int
	e2e       map[string]summary
	layers    layers
	// tracedSolveS is the traced one-shot repetition's own solve_s, the
	// wall its layers are reconciled against.
	tracedSolveS float64
}

// runWorkload makes one run. Timed: repetitions with recording off,
// started while the time budget has room for another as long as the
// longest so far (and at least minReps of them); every end-to-end
// metric is the best repetition's. Traced: one repetition with
// recording on and the layer probes, which yields the per-layer
// metrics and none of the end-to-end ones.
func runWorkload(w workload, o runOpts) (runResult, error) {
	r := runResult{workload: w, reasons: map[string]int{}, e2e: map[string]summary{}}
	// Each repetition gets a scratch directory of its own, removed when
	// it ends: a durable repetition must start from an empty journal.
	run := func(rep int, traced bool) (repResult, error) {
		dir := filepath.Join(o.workdir, w.name)
		defer os.RemoveAll(dir)
		return o.rep(repArgs{Workload: w.name, Scale: o.scale, Seed: o.seed, Rep: rep, Traced: traced, Workdir: dir})
	}
	add := func(res repResult) {
		r.reps++
		r.attempted += res.Attempted
		r.failed += res.Failed
		for reason, n := range res.Reasons {
			r.reasons[reason] += n
		}
	}

	if o.traced {
		res, err := run(0, true)
		if err != nil {
			return r, err
		}
		add(res)
		r.layers = res.Layers
		r.tracedSolveS = res.E2E["solve_s"]
		if w.kind == oneshot && res.Layers != nil {
			// Recording cost on a one-shot workload: the same solve, same
			// right-hand side, in a second process with recording off.
			plain, err := run(0, false)
			if err != nil {
				return r, err
			}
			add(plain)
			if base := plain.E2E["solve_s"]; base > 0 {
				r.layers["obs.trace_overhead_share"] = (res.E2E["solve_s"] - base) / base
			}
		}
		return r, nil
	}

	values := map[string][]float64{}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var longest time.Duration
	for i := 0; i < w.minReps || time.Since(start)+longest <= budget; i++ {
		t0 := time.Now()
		res, err := run(i, false)
		if err != nil {
			return r, err
		}
		longest = max(longest, time.Since(t0))
		add(res)
		if res.E2E == nil {
			continue
		}
		res.E2E["peak_rss_mb"] = float64(res.PeakRSSKB) / 1024
		for _, m := range e2eMetrics {
			values[m.name] = append(values[m.name], res.E2E[m.name])
		}
	}
	for _, m := range e2eMetrics {
		if xs := values[m.name]; len(xs) > 0 {
			r.e2e[m.name] = summarize(xs, m)
		}
	}
	return r, nil
}

// driverMetric and driverLine are the shape of the final output line
// BENCHMARK.json's driver reads.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverLine reports the run: the best repetition of every end-to-end metric, or
// every per-layer metric (0 where the workload bypasses the layer). The
// run is correct when no operation failed and every metric was measured.
func (r runResult) driverLine(traced bool) driverLine {
	d := driverLine{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]driverMetric{}}
	if traced {
		d.Correct = d.Correct && r.layers != nil
		for _, m := range layerMetrics {
			d.Metrics[m.name] = driverMetric{finite(r.layers[m.name]), m.unit}
		}
		return d
	}
	for _, m := range e2eMetrics {
		v := r.e2e[m.name].Value
		d.Correct = d.Correct && v > 0 && !math.IsInf(v, 0)
		d.Metrics[m.name] = driverMetric{finite(v), m.unit}
	}
	return d
}

// finite maps what JSON cannot carry to 0; the run is already marked
// incorrect when an end-to-end metric needs it.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
