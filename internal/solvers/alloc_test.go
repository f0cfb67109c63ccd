package solvers

import (
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// TestFusedCGStepAllocs pins the per-iteration allocation budget of the
// fused CG step under trace replay. The piece tasks launch through the
// batch API and splice their dependences from the memoized trace, so what
// remains is the iteration's host-side bookkeeping: the dots' partials
// and scalars, the futures of the tasks that write a dot's partials (a
// dot's readers await them) and the bodies that close over a call's
// coefficients and partials, one per task (each call copies its site's
// launch template; TestOperationAllocs splits the count by operation).
// The pin is a regression tripwire: if the hot path regrows per-task
// allocations the count jumps by O(pieces × launches). The step reads 75
// or 76 allocations over 24 launches since launches are built once per
// call site (188 while every call rebuilt its refs, members and bodies,
// 202 over 32 with a dot sweep of its own, 226–227 while a dot's partials
// were a region); the pin is the higher reading plus 5 %.
func TestFusedCGStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only means something without it")
	}
	// Eight pieces of 4 096 points, the planner's launch grain: one task
	// per piece, the launch path the pin is about.
	const n, pieces = 32768, 8
	a := sparse.Laplacian2D(256, 128)
	b := make([]float64, n)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	sparse.SpMV(a, b, ones)

	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), pieces))
	p.AddOperator(a, si, ri)
	p.Finalize()
	p.SetTracing(true)

	s := New("cg", p)
	s.ConvergenceMeasure().Value()
	// Record, calibrate, and settle every pool before measuring.
	for i := 0; i < 8; i++ {
		s.Step()
	}
	p.Drain()

	rt := p.Runtime()
	before := rt.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		s.Step()
		p.Drain()
	})
	after := rt.Stats()

	// The measurement only means something if the iterations replayed.
	if after.TraceFallbacks != before.TraceFallbacks {
		t.Fatalf("trace fell back to analysis during measurement (%d fallbacks)",
			after.TraceFallbacks-before.TraceFallbacks)
	}
	launchesPerStep := float64(after.Launched-before.Launched) / 21
	if allocs > 79 {
		t.Errorf("fused CG step allocates %.0f objects/iteration (%.0f launches), want <= 79",
			allocs, launchesPerStep)
	}
	t.Logf("fused CG: %.1f allocs/iteration over %.0f launches (%.2f allocs/launch)",
		allocs, launchesPerStep, allocs/launchesPerStep)
}

// TestOperationAllocs pins what one call of each planner operation
// allocates under trace replay, on the eight 4 096-point pieces of
// TestFusedCGStepAllocs. A call copies its site's launch template and
// fills in its own state, so what remains per task is the body that
// closes over the call (one per task of an operation that reads
// coefficients or computes dots) and the future of a task whose dots a
// reader awaits; per call, the call's state, its awaits and its dot
// scalars. The readings are the same in every run; each pin is its
// reading plus 5 % or plus one, whichever is more, so a one-object shift
// in the runtime does not trip it, while rebuilding a task's refs,
// members or kernel bodies per call shows as eight or more per call.
func TestOperationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pins only mean something without it")
	}
	const n, pieces = 32768, 8
	a := sparse.Laplacian2D(256, 128)
	p := pcgPlanFor(a, fusedRHS(n), pieces)
	p.SetTracing(true)
	q := p.AllocateWorkspace(core.RhsShape)
	r := p.AllocateWorkspace(core.RhsShape)
	z := p.AllocateWorkspace(core.SolShape)
	p.Copy(r, core.RHS)
	alpha := p.Dot(r, r)
	beta := p.Div(alpha, p.Constant(3))
	alpha.Value()
	beta.Value()
	for _, op := range []struct {
		name string
		call func()
		pin  float64
	}{
		{"matmul", func() { p.Matmul(q, core.SOL) }, 1},
		{"matmul+dot", func() { p.Matmul(q, core.SOL, core.DotPair{V: core.SOL, W: q})[0].Value() }, 23},
		{"matmulT", func() { p.MatmulT(z, r) }, 1},
		{"psolve+dots", func() { p.PSolve(z, r, core.DotPair{V: r, W: z}, core.DotPair{V: r, W: r})[1].Value() }, 25},
		{"axpy", func() { p.Axpy(z, alpha, core.SOL) }, 11},
		{"fused.update", func() {
			p.FusedUpdate(core.VecUpdate{Kind: core.UpdAxpy, Dst: z, Alpha: alpha, Src: core.SOL},
				core.VecUpdate{Kind: core.UpdXpay, Dst: q, Alpha: beta, Src: r})
		}, 11},
		{"fused.updatedot", func() {
			p.FusedSweep([]core.VecUpdate{{Kind: core.UpdAxpy, Dst: z, Alpha: alpha, Neg: true, Src: core.SOL}},
				[]core.DotPair{{V: z, W: z}})[0].Value()
		}, 24},
		{"dot", func() { p.Dot(q, r).Value() }, 23},
	} {
		step := func() {
			in := p.TraceBegin(op.name)
			op.call()
			p.TraceEnd(in)
			p.Drain()
		}
		// Build the template, record and calibrate the trace.
		for i := 0; i < 4; i++ {
			step()
		}
		before := p.Runtime().Stats()
		allocs := testing.AllocsPerRun(20, step)
		after := p.Runtime().Stats()
		if after.TraceFallbacks != before.TraceFallbacks || after.TraceReplays == before.TraceReplays {
			t.Fatalf("%s: the calls did not replay", op.name)
		}
		t.Logf("%s: %.0f allocs/call over %d launches", op.name, allocs, (after.Launched-before.Launched)/21)
		if allocs > op.pin {
			t.Errorf("%s allocates %.0f objects/call, want <= %.0f", op.name, allocs, op.pin)
		}
	}
}
