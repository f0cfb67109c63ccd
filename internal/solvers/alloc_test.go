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
// dot's readers await them) and the per-task closures. The pin is a
// regression tripwire: if the hot path regrows per-task allocations the
// count jumps by O(pieces × launches), two orders of magnitude above this
// budget. The step reads 188 allocations over 24 launches since the
// product carries pᵀAp through the sweep's dot body (186 with a dot loop
// of its own, 202 over 32 with a dot sweep of its own, 226–227 while a
// dot's partials were a region); the pin is 186 plus 5 %.
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
	if allocs > 195 {
		t.Errorf("fused CG step allocates %.0f objects/iteration (%.0f launches), want <= 195",
			allocs, launchesPerStep)
	}
	t.Logf("fused CG: %.1f allocs/iteration over %.0f launches (%.2f allocs/launch)",
		allocs, launchesPerStep, allocs/launchesPerStep)
}
