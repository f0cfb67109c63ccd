// Package figures regenerates every figure of the paper's evaluation
// (Section 6): the Figure 8 library comparison grid, the Figure 9
// multi-operator crossover, and the Figure 10 dynamic load-balancing
// trace, plus the ablation studies DESIGN.md calls out.
//
// All measurements follow the paper's protocol — warmup iterations
// followed by timed iterations, reporting time per iteration — with the
// wall clock replaced by the discrete-event simulator per the
// substitution rule. Problem construction uses matrix-free operators and
// virtual planners, so the sweeps reach the paper's full 2^32-unknown
// scale on a laptop.
package figures

import (
	"kdrsolvers/internal/baseline"
	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sim"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// Runtime overhead constants of the KDR (Legion-like) dynamic runtime.
const (
	// KDRTaskOverhead is the per-task cost of dynamic dependence
	// analysis, mapping, and deferred-execution bookkeeping.
	KDRTaskOverhead = 15e-6
	// KDRTracedOverhead replaces KDRTaskOverhead for tasks replayed from
	// a memoized trace (dynamic tracing, Lee et al.).
	KDRTracedOverhead = 4e-6
)

// Measurement is one timed configuration.
type Measurement struct {
	// SecondsPerIter is the simulated time per solver iteration.
	SecondsPerIter float64
	// CommBytesPerIter is the inter-node traffic per iteration.
	CommBytesPerIter float64
	// TasksPerIter is the task count per iteration.
	TasksPerIter float64
}

// KDROptions tunes a KDR-side measurement.
type KDROptions struct {
	// Tracing enables dynamic-trace memoization (the production
	// configuration); disabling it is the tracing ablation.
	Tracing bool
	// VP is the number of vector pieces; 0 means one per processor, the
	// paper's setting (vp = 4 × nodes on Lassen).
	VP int
	// BSP replays the recorded graph under the bulk-synchronous
	// scheduler instead of the overlapping one — the overlap ablation.
	BSP bool
}

// stencilPlanner builds a virtual single-operator planner for a stencil
// problem of n unknowns.
func stencilPlanner(m machine.Machine, kind sparse.StencilKind, n int64, vp int) *core.Planner {
	op := sparse.NewStencilOperator(kind, kind.GridFor(n))
	p := core.NewPlanner(core.Config{Machine: m, Virtual: true})
	si := p.AddSolVector(nil, index.EqualPartition(index.NewSpace("D", n), vp))
	ri := p.AddRHSVector(nil, index.EqualPartition(index.NewSpace("R", n), vp))
	p.AddOperator(op, si, ri)
	p.Finalize()
	return p
}

// MeasurePlanner runs warmup then timed iterations of a solver on an
// already-finalized planner and reports marginal per-iteration cost under
// the simulator. With opt.Tracing the solvers bracket their own repeated
// launch sequences (each step, or each GMRES restart cycle) in runtime
// trace scopes, so warmup doubles as trace record-and-calibrate and the
// timed iterations replay memoized dependence analysis.
func MeasurePlanner(p *core.Planner, solverName string, warmup, timed int, opt KDROptions) Measurement {
	return measureSolver(p, func() solvers.Solver { return solvers.New(solverName, p) }, warmup, timed, opt)
}

// measureSolver is MeasurePlanner for a solver given by its constructor.
func measureSolver(p *core.Planner, newSolver func() solvers.Solver, warmup, timed int, opt KDROptions) Measurement {
	p.SetTracing(opt.Tracing)
	s := newSolver()
	solvers.RunIterations(s, warmup)
	p.Drain()
	simOpts := sim.Options{TaskOverhead: KDRTaskOverhead, TracedOverhead: KDRTracedOverhead}
	simulate := sim.Simulate
	if opt.BSP {
		simulate = sim.SimulateBSP
	}
	warm := simulate(p.Runtime().Graph(), p.Machine(), simOpts)
	warmLen := p.Runtime().Graph().Len()
	solvers.RunIterations(s, timed)
	p.Drain()
	g := p.Runtime().Graph()
	full := simulate(g, p.Machine(), simOpts)
	return Measurement{
		SecondsPerIter:   (full.Makespan - warm.Makespan) / float64(timed),
		CommBytesPerIter: float64(full.CommBytes-warm.CommBytes) / float64(timed),
		TasksPerIter:     float64(g.Len()-warmLen) / float64(timed),
	}
}

// KDRIterTime measures the KDR implementation on a stencil problem.
func KDRIterTime(m machine.Machine, kind sparse.StencilKind, n int64, solverName string,
	warmup, timed int, opt KDROptions) Measurement {
	vp := opt.VP
	if vp == 0 {
		vp = m.NumProcs()
	}
	p := stencilPlanner(m, kind, n, vp)
	return MeasurePlanner(p, solverName, warmup, timed, opt)
}

// BaselineIterTime measures a baseline library on the same problem: the
// marginal per-iteration makespan between warmup and warmup+timed
// schedules.
func BaselineIterTime(lib baseline.Library, m machine.Machine, kind sparse.StencilKind,
	n int64, solverName string, warmup, timed int) Measurement {
	grid := kind.GridFor(n)
	gWarm := baseline.NewSystem(lib, m, kind, grid).BuildSolver(solverName, warmup)
	gFull := baseline.NewSystem(lib, m, kind, grid).BuildSolver(solverName, warmup+timed)
	warm := sim.Simulate(gWarm, m, sim.Options{})
	full := sim.Simulate(gFull, m, sim.Options{})
	return Measurement{
		SecondsPerIter:   (full.Makespan - warm.Makespan) / float64(timed),
		CommBytesPerIter: float64(full.CommBytes-warm.CommBytes) / float64(timed),
		TasksPerIter:     float64(gFull.Len()-gWarm.Len()) / float64(timed),
	}
}
