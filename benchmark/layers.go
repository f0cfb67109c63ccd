package main

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
	"kdrsolvers/internal/wal"
)

// The per-layer numbers are taken from outside each module: by timing
// calls into its public functions on the workload's own inputs, by
// reading its public counters before and after the timed phase, and by
// attaching obs.Recorder through serve.Options.Recorder. Spans inside
// the program are a later change.

// layers is the per-layer metric set of one traced repetition.
type layers map[string]float64

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// share is a/b, 0 when the layer did no work.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf times fn n times and returns the median duration.
func medianOf(n int, fn func()) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// taskClass maps a task name onto the three kinds of work a Krylov
// iteration launches: operator application, vector sweeps, and
// reductions with their host-side scalar arithmetic.
func taskClass(name string) string {
	switch {
	case strings.HasPrefix(name, "matmul"), strings.HasPrefix(name, "powers"):
		return "matmul"
	case strings.HasPrefix(name, "dot."), strings.HasPrefix(name, "div"), name == "neg":
		return "reduce"
	}
	return "vector"
}

// spans fills the core.* and taskrt.* metrics that come from task
// spans: mean execution time per class of task, the share of busy time
// spent applying the operator, queue latency, worker occupancy and the
// critical path's share of wall.
func (l layers) spans(spans []obs.Span, deps [][]int64) {
	rep := obs.Analyze(spans, deps)
	busy := map[string]float64{}
	count := map[string]float64{}
	var queue float64
	for _, n := range rep.ByName {
		c := taskClass(n.Name)
		busy[c] += n.Total
		count[c] += float64(n.Count)
		queue += n.Queue
	}
	for _, c := range []string{"matmul", "vector", "reduce"} {
		l["core.task_us."+c] = share(busy[c], count[c]) * 1e6
	}
	l["core.busy_share.matmul"] = share(busy["matmul"], rep.TotalBusy)
	l["taskrt.queue_latency_us"] = share(queue, float64(rep.Tasks)) * 1e6
	l["taskrt.worker_busy_share"] = share(rep.TotalBusy, rep.WallTime*float64(runtime.GOMAXPROCS(0)))
	l["taskrt.critpath_share"] = share(rep.CriticalPathTime, rep.WallTime)
	l["obs.spans"] = float64(len(spans))
}

// runtimeCounters is one reading of a runtime's public counters.
type runtimeCounters struct {
	st                taskrt.Stats
	analyzed, spliced obs.TimerSnapshot
}

func readRuntime(rt *taskrt.Runtime) runtimeCounters {
	a, s := rt.LaunchTiming()
	return runtimeCounters{rt.Stats(), a, s}
}

// runtime fills the taskrt.* counters and the per-iteration task count
// from the change in a runtime's counters over solves that ran iters
// iterations in solveSecs of JobResult.Elapsed.
func (l layers) runtime(before, after runtimeCounters, iters, solveSecs float64) {
	launched := float64(after.st.Launched - before.st.Launched)
	hits := float64(after.st.TraceHits - before.st.TraceHits)
	misses := float64(after.st.TraceMisses - before.st.TraceMisses)
	l["taskrt.launched"] = launched
	l["taskrt.dep_edges"] = float64(after.st.DepEdges - before.st.DepEdges)
	l["taskrt.launch_ns_analyzed"] = share(float64(after.analyzed.Total-before.analyzed.Total), float64(after.analyzed.Count-before.analyzed.Count))
	l["taskrt.launch_ns_spliced"] = share(float64(after.spliced.Total-before.spliced.Total), float64(after.spliced.Count-before.spliced.Count))
	l["taskrt.trace_hit_share"] = share(hits, hits+misses)
	l["taskrt.trace_fallbacks"] = float64(after.st.TraceFallbacks - before.st.TraceFallbacks)
	l["taskrt.wall_us_per_task"] = share(solveSecs*1e6, launched)
	l["core.tasks_per_iter"] = share(launched, iters)
}

// plan is one planner built the way serve.RunSolve builds it, with the
// time each stage took.
type plan struct {
	p                  *core.Planner
	m                  sparse.Matrix
	x, b               []float64
	rhs, convert, plan time.Duration
}

// buildPlan makes the same BuildRHS, ConvertNamed/AddOperatorAuto and
// NewPlanner/Add*/Finalize calls as serve.RunSolve, timing each stage.
func buildPlan(a *sparse.CSR, sp jobspec.Spec) (plan, error) {
	rows, _ := sparse.Dims(a)
	var pl plan
	t0 := time.Now()
	pl.b = sp.BuildRHS(a, int(rows))
	pl.rhs = time.Since(t0)
	pl.x = make([]float64, rows)

	t0 = time.Now()
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1), Session: taskrt.New().DefaultSession()})
	si := p.AddSolVector(pl.x, index.EqualPartition(index.NewSpace("D", rows), sp.Pieces))
	ri := p.AddRHSVector(pl.b, index.EqualPartition(index.NewSpace("R", rows), sp.Pieces))
	pl.plan = time.Since(t0)

	t0 = time.Now()
	if canon, _ := sparse.CanonicalFormat(sp.Format); canon == "Auto" {
		pl.m = p.AddOperatorAuto(a, si, ri)
		pl.convert = time.Since(t0)
		t0 = time.Now()
	} else {
		m, err := sparse.ConvertNamed(a, sp.Format)
		if err != nil {
			return pl, err
		}
		pl.m = m
		pl.convert = time.Since(t0)
		t0 = time.Now()
		p.AddOperator(m, si, ri)
	}
	p.Finalize()
	p.SetTracing(true)
	pl.plan += time.Since(t0)
	pl.p = p
	return pl, nil
}

// storedBytes is the size of a matrix's arrays, computed from their
// lengths: 8-byte values, 8-byte indices where the format keeps one per
// stored slot, and the CSR row pointers.
func storedBytes(m sparse.Matrix) float64 {
	slots := float64(m.NNZ())
	format := m.Format()
	if au, ok := m.(*sparse.Auto); ok {
		// Every band of a stencil picks the same format; price the
		// composite as its first band's.
		if picks := au.SelectedFormats(); len(picks) > 0 {
			format, _, _ = strings.Cut(picks[0], "[")
		}
	}
	switch format {
	case "DIA", "Dense":
		return 8 * slots
	case "CSR", "CSC":
		rows, _ := sparse.Dims(m)
		return 16*slots + 8*float64(rows+1)
	}
	return 16 * slots
}

// setup fills the set-up layers of one solve of sp on a — right-hand
// side, conversion or tuning, planning — and the whole-matrix SpMV of
// the converted operator. The whole-matrix numbers are context only:
// a solve runs the piece kernels, which core.task_us.matmul times.
func (l layers) setup(a *sparse.CSR, sp jobspec.Spec) (plan, error) {
	pl, err := buildPlan(a, sp)
	if err != nil {
		return pl, err
	}
	l["jobspec.rhs_ms"] = ms(pl.rhs)
	l["sparse.convert_ms"] = ms(pl.convert)
	l["core.plan_ms"] = ms(pl.plan)

	rows, cols := sparse.Dims(a)
	y := make([]float64, rows)
	spmv := medianOf(9, func() { sparse.SpMV(pl.m, y, pl.b) })
	// One SpMV streams the matrix once, reads x and reads and writes y.
	moved := storedBytes(pl.m) + 8*float64(cols) + 16*float64(rows)
	l["sparse.spmv_whole_us"] = us(spmv)
	l["sparse.spmv_whole_gbps_computed"] = share(moved, spmv.Seconds()) / 1e9
	l["sparse.bytes_per_nnz_computed"] = share(moved, float64(a.NNZ()))
	return pl, nil
}

// solver drives solvers.New on the planner for a few iterations,
// timing Step (the host's cost to launch an iteration) apart from
// ConvergenceMeasure().Value() (the host blocked on the convergence
// scalar, which is where the tasks' execution shows).
func (l layers) solver(pl plan, sp jobspec.Spec, steps int) {
	s := solvers.New(sp.Solver, pl.p)
	s.ConvergenceMeasure().Value()
	var launch, wait time.Duration
	for i := 0; i < steps; i++ {
		t0 := time.Now()
		s.Step()
		t1 := time.Now()
		s.ConvergenceMeasure().Value()
		launch += t1.Sub(t0)
		wait += time.Since(t1)
	}
	pl.p.Drain()
	l["solvers.step_launch_us"] = share(us(launch), float64(steps))
	l["solvers.sync_wait_us"] = share(us(wait), float64(steps))
}

// probeSteps bounds the solver probe well inside the solve, so it never
// steps a converged system into 0/0.
func probeSteps(iterations int) int { return min(max(iterations/2, 1), 50) }

// walAppend times wal.Append of checkpoint-sized records with an fsync
// per record, on the same disk the durable server journals to.
func (l layers) walAppend(dir string, x []float64) error {
	payload, err := json.Marshal(map[string]any{"t": "checkpoint", "id": "probe", "iter": 20, "residual": 1e-3, "x": x})
	if err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(dir, "wal-probe"), wal.Options{FsyncEvery: 1})
	if err != nil {
		return err
	}
	var appendErr error
	d := medianOf(30, func() {
		if err := log.Append(payload); err != nil {
			appendErr = err
		}
	})
	if err := log.Close(); err != nil {
		return err
	}
	l["wal.append_us"] = us(d)
	return appendErr
}
