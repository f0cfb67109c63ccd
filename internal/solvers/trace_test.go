package solvers

import (
	"math"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/sparse"
)

// tracedPlanFor is planFor with trace memoization enabled.
func tracedPlanFor(a sparse.Matrix, b []float64, pieces int) *core.Planner {
	p := planFor(a, b, pieces)
	p.SetTracing(true)
	return p
}

func TestCGTracedMatchesUntraced(t *testing.T) {
	// Trace-replayed CG must compute exactly the same iterates as
	// analyzed CG: memoization changes how dependences are derived, never
	// what executes.
	a := sparse.Laplacian2D(6, 6)
	b := make([]float64, 36)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	pa := planFor(a, b, 4)
	pt := tracedPlanFor(a, append([]float64(nil), b...), 4)
	sa, st := NewCG(pa), NewCG(pt)
	RunIterations(sa, 30)
	RunIterations(st, 30)
	pa.Drain()
	pt.Drain()
	if d := maxAbsDiff(pa.VecData(core.SOL, 0), pt.VecData(core.SOL, 0)); d > 1e-12 {
		t.Fatalf("traced CG diverged from untraced: max |Δx| = %g", d)
	}
	st1 := pt.Runtime().Stats()
	if st1.TraceHits == 0 {
		t.Fatalf("traced CG never replayed: %+v", st1)
	}
	if st1.TraceFallbacks != 0 {
		t.Fatalf("traced CG hit %d fallbacks, want 0", st1.TraceFallbacks)
	}
}

func TestCGReplayedIterationsDoZeroAnalysis(t *testing.T) {
	// The acceptance criterion for real memoization: once the cg.step
	// trace replays, further iterations perform zero AnalysisScans.
	a := sparse.Laplacian2D(8, 8)
	b := make([]float64, 64)
	for i := range b {
		b[i] = 1
	}
	p := tracedPlanFor(a, b, 4)
	s := NewCG(p)
	RunIterations(s, 3) // record, calibrate, first replay
	p.Drain()
	before := p.Runtime().Stats()
	RunIterations(s, 5)
	p.Drain()
	after := p.Runtime().Stats()
	if after.AnalysisScans != before.AnalysisScans {
		t.Fatalf("replayed iterations scanned %d history entries, want 0",
			after.AnalysisScans-before.AnalysisScans)
	}
	if got := after.TraceHits - before.TraceHits; got != 5 {
		t.Fatalf("TraceHits grew by %d, want 5", got)
	}
	analyzed, spliced := p.Runtime().LaunchTiming()
	if spliced.Count == 0 || analyzed.Count == 0 {
		t.Fatalf("launch timing not split: analyzed %d, spliced %d",
			analyzed.Count, spliced.Count)
	}
}

func TestGMRESTracedMatchesUntraced(t *testing.T) {
	// GMRES traces whole restart cycles; the host-side least-squares
	// solve and the cycle-tail restart are part of the instance.
	a := convectionDiffusion(40, 0.3)
	b := make([]float64, 40)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	pa := planFor(a, b, 4)
	pt := tracedPlanFor(a, append([]float64(nil), b...), 4)
	sa, st := NewGMRES(pa, 10), NewGMRES(pt, 10)
	RunIterations(sa, 40) // 4 full cycles
	RunIterations(st, 40)
	pa.Drain()
	pt.Drain()
	if d := maxAbsDiff(pa.VecData(core.SOL, 0), pt.VecData(core.SOL, 0)); d > 1e-12 {
		t.Fatalf("traced GMRES diverged from untraced: max |Δx| = %g", d)
	}
	if hits := pt.Runtime().Stats().TraceHits; hits < 2 {
		// Cycles 1 and 2 record and calibrate; 3 and 4 must replay.
		t.Fatalf("TraceHits = %d, want >= 2", hits)
	}
}

func TestSStepCGReplaysTwoBlockInstances(t *testing.T) {
	// Step swaps rv↔rNext and pv↔pNext, so back-to-back blocks name
	// different stable regions: a one-block instance never matched its
	// predecessor, and s-step CG replayed nothing in any solve. An
	// instance spans two blocks, so after recording and calibrating every
	// full instance replays — and the solve is the untraced one bit for
	// bit. The odd final block's instance is cut short by the convergence
	// check and misses.
	a := sparse.Laplacian2D(32, 32)
	for _, c := range []struct {
		pieces int
		seed   float64
	}{{1, 1}, {8, 1}, {13, 2}} {
		b := make([]float64, 1024)
		for i := range b {
			b[i] = math.Sin(c.seed * float64(i))
		}
		pa := planFor(a, b, c.pieces)
		pt := tracedPlanFor(a, append([]float64(nil), b...), c.pieces)
		ra := Solve(pa, NewSStepCG(pa, 4), 1e-8, 200)
		rt := Solve(pt, NewSStepCG(pt, 4), 1e-8, 200)
		if !rt.Converged || rt.Iterations != ra.Iterations {
			t.Fatalf("pieces %d: traced %d blocks (converged %v), untraced %d", c.pieces, rt.Iterations, rt.Converged, ra.Iterations)
		}
		xa, xt := pa.VecData(core.SOL, 0), pt.VecData(core.SOL, 0)
		for i := range xa {
			if math.Float64bits(xa[i]) != math.Float64bits(xt[i]) {
				t.Fatalf("pieces %d: x[%d] traced %v, untraced %v", c.pieces, i, xt[i], xa[i])
			}
		}
		st := pt.Runtime().Stats()
		if want := int64(rt.Iterations/2 - 2); st.TraceHits != want || st.TraceFallbacks != 0 {
			t.Errorf("pieces %d, %d blocks: %d trace hits and %d fallbacks, want %d and 0",
				c.pieces, rt.Iterations, st.TraceHits, st.TraceFallbacks, want)
		}
	}
}

func TestAllSolversTracedMatchUntraced(t *testing.T) {
	// Every registered method must be trace-safe: identical solutions
	// with tracing on and off, no fallbacks required (fallbacks are legal
	// but indicate a mis-scoped trace for these stationary iterations).
	a := convectionDiffusion(32, 0.2)
	spd := sparse.Laplacian1D(32)
	b := make([]float64, 32)
	for i := range b {
		b[i] = float64((i*13)%5) - 2
	}
	for _, name := range Names {
		if name == "pcg" {
			continue // needs a preconditioner; same trace scope as cg
		}
		mat := a
		if name == "cg" || name == "pipecg" || name == "minres" {
			mat = spd
		}
		pa := planFor(mat, append([]float64(nil), b...), 2)
		pt := tracedPlanFor(mat, append([]float64(nil), b...), 2)
		sa, st := New(name, pa), New(name, pt)
		RunIterations(sa, 12)
		RunIterations(st, 12)
		pa.Drain()
		pt.Drain()
		if d := maxAbsDiff(pa.VecData(core.SOL, 0), pt.VecData(core.SOL, 0)); d > 1e-10 {
			t.Errorf("%s: traced solve diverged from untraced: max |Δx| = %g", name, d)
		}
	}
}

func TestTracedSolveAfterConvergenceMidCycle(t *testing.T) {
	// A GMRES solve that stops mid-cycle leaves its trace scope open; a
	// later solver on the same planner must not trip over it.
	a := sparse.Laplacian1D(16)
	b := make([]float64, 16)
	for i := range b {
		b[i] = 1
	}
	p := tracedPlanFor(a, b, 2)
	g := NewGMRES(p, 10)
	RunIterations(g, 7) // abandon mid-cycle
	p.Drain()
	s := NewCG(p)
	RunIterations(s, 6)
	p.Drain()
	if err := p.Runtime().Err(); err != nil {
		t.Fatalf("mixed traced solve failed: %v", err)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	a := sparse.Laplacian1D(12)
	b := make([]float64, 12)
	p := planFor(a, b, 2)
	RunIterations(NewCG(p), 5)
	p.Drain()
	if st := p.Runtime().Stats(); st.TraceHits+st.TraceMisses != 0 {
		t.Fatalf("tracing ran without SetTracing: %+v", st)
	}
}
