package main

import (
	"fmt"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/taskrt"
)

// oneshotRep is one solve down the path cmd/mmsolve executes: validated
// spec → LoadMatrix → fresh runtime → serve.RunSolve → verified answer.
// The clock covers exactly what a CLI user waits for; the harness's own
// residual recomputation runs after it stops. RunSolve's per-iteration
// telemetry hook (the one mmsolve -profile prints from) is used only to
// take a timestamp, which makes every iteration a sample of its own.
func oneshotRep(w workload, a repArgs) (repResult, error) {
	sp := w.spec
	sp.RHS = fmt.Sprintf("rand:%d", a.Seed+int64(a.Rep))
	if err := sp.Validate(); err != nil {
		return repResult{}, err
	}
	var rec *obs.Recorder
	if a.Traced {
		rec = obs.NewRecorder()
	}

	t0 := time.Now()
	m, err := jobspec.LoadMatrix(sp.Matrix)
	if err != nil {
		return repResult{}, err
	}
	load := time.Since(t0)
	rt := taskrt.New()
	before := readRuntime(rt)
	var stamps []time.Time
	out := serve.RunSolve(m, sp, serve.Options{Session: rt.DefaultSession(), Tracing: true, Recorder: rec,
		Telemetry: func(int, float64) { stamps = append(stamps, time.Now()) }})
	wall := time.Since(t0)

	reason := checkResult(&out, sp.Tol)
	b := sp.BuildRHS(m, out.N)
	if reason == "" {
		if r := recomputeResidual(m, out.X, b); !(r <= residualSlack*sp.Tol) {
			reason = "harness residual above tolerance"
		}
	}
	res := repResult{Attempted: 1}
	if reason != "" {
		res.Failed, res.Reasons = 1, map[string]int{reason: 1}
		return res, nil
	}
	var iterUS []float64
	for i := 1; i < len(stamps); i++ {
		iterUS = append(iterUS, us(stamps[i].Sub(stamps[i-1])))
	}
	// A solve lasts seconds, far longer than the host's quiet spells, so
	// its wall cannot be taken clean. solve_s is put together from the
	// parts that can: the set-up this repetition paid, plus its
	// iteration count at the lower-decile cost of an iteration. It moves
	// with set-up cost, iteration count and iteration cost — everything a
	// change can move but the shape of the distribution's upper part. The
	// wall as measured is the traced run's serve.job_p50_ms.
	setup := wall - out.Elapsed
	solve := setup.Seconds() + float64(out.Iterations)*lowerDecile(iterUS)/1e6
	res.E2E = map[string]float64{
		"solve_s": solve,
		"iter_us": lowerDecile(iterUS),
		"setup_s": setup.Seconds(),
		"job_ms":  solve * 1e3,
	}
	if !a.Traced {
		return res, nil
	}

	l := layers{"jobspec.load_ms": ms(load)}
	l.spans(rec.Spans(), rt.Graph().DepLists())
	l.runtime(before, readRuntime(rt), float64(out.Iterations), out.Elapsed.Seconds())
	l["solvers.iterations"] = float64(out.Iterations)
	l["solvers.true_residual"] = out.TrueResidual
	l["serve.solve_ms"] = ms(out.Elapsed)
	l["serve.job_p50_ms"], l["serve.job_p90_ms"] = ms(wall), ms(wall)
	l["serve.jobs_per_s"] = 1 / wall.Seconds()
	pl, err := l.setup(m, sp)
	if err != nil {
		return res, err
	}
	l.solver(pl, sp, probeSteps(out.Iterations))
	hostRes := medianOf(5, func() { serve.HostResidual(m, out.X, b) })
	l["serve.host_residual_ms"] = ms(hostRes)
	// The reconciliation ROADMAP asks for: the stages timed one by one
	// against the RunSolve wall they should add up to.
	runSolve := wall - load
	stages := pl.rhs + pl.convert + pl.plan + out.Elapsed + hostRes
	l["serve.unaccounted_share"] = share((runSolve - stages).Seconds(), runSolve.Seconds())
	res.Layers = l
	return res, nil
}
