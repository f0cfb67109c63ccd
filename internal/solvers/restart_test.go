package solvers

import (
	"fmt"
	"math"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/sparse"
)

// restartPlan builds a real planner for A·x = b starting from x0, with a
// Jacobi preconditioner when pcg is set.
func restartPlan(a *sparse.CSR, b, x0 []float64, pieces int, traced, pcg bool) *core.Planner {
	plan := planFor
	if pcg {
		plan = pcgPlanFor
	}
	p := plan(a, b, pieces)
	copy(p.VecData(core.SOL, 0), x0)
	p.SetTracing(traced)
	return p
}

// firstBitDiff returns the first index where a and b differ bit for
// bit, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// restart leaves a solver indistinguishable from a fresh one: k steps,
// restart, k more steps compute bit for bit what a solver constructed at
// the k-step iterate computes in its first k steps — also from the state
// a rollback inherits, every workspace, scalar and flag derived from NaN.
// Seven steps leave the Arnoldi family mid-cycle and s-step CG's
// two-block trace scope open, with its vectors swapped. GCRO-DR runs
// without a cache and with one warmed by an earlier solve, which
// restart must reload as the constructor does; s-step CG also runs on
// its Newton basis.
func TestRestartMatchesFreshSolver(t *testing.T) {
	const side, k = 16, 7
	n := side * side
	b := fusedRHS(n)
	cache := &RecycleCache{}
	{
		a := sparse.Laplacian2D(side, side)
		p := restartPlan(a, b, make([]float64, n), 4, false, false)
		g := NewGCRODR(p, 10, 4, cache)
		RunIterations(g, 25)
		p.Drain()
		g.SaveRecycleSpace()
		if len(cache.load()) != 4 {
			t.Fatal("warm-up solve left no recycle space in the cache")
		}
	}
	spd, nonsym := sparse.Laplacian2D(side, side), convectionDiffusion(int64(n), 0.2)
	// A log-spaced spectrum 1 … 300 switches s-step CG (s = 6) to its
	// Newton basis in the first block (TestSStepCGNewtonBasisSwitch), so
	// a restart must also forget the shifts and their α/β history.
	var wide []sparse.Coord
	for i := int64(0); i < int64(n); i++ {
		wide = append(wide, sparse.Coord{Row: i, Col: i, Val: math.Pow(300, float64(i)/float64(n-1))})
	}
	type variant struct {
		name string
		a    *sparse.CSR
		mk   func(p *core.Planner) Solver
	}
	var variants []variant
	for _, name := range Names {
		a := nonsym
		if wantsSPD(name) {
			a = spd
		}
		variants = append(variants, variant{name, a, func(p *core.Planner) Solver { return New(name, p) }})
	}
	variants = append(variants,
		variant{"gcrodr+cache", spd, func(p *core.Planner) Solver { return NewGCRODR(p, 10, 4, cache) }},
		variant{"sstep-cg+newton", sparse.CSRFromCoords(int64(n), int64(n), wide), func(p *core.Planner) Solver { return NewSStepCG(p, 6) }})

	for _, v := range variants {
		a := v.a
		for _, pieces := range []int{1, 8} {
			for _, traced := range []bool{false, true} {
				for _, poison := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/pieces=%d/traced=%v/nan=%v", v.name, pieces, traced, poison), func(t *testing.T) {
						pcg := v.name == "pcg"
						p := restartPlan(a, b, make([]float64, n), pieces, traced, pcg)
						s := v.mk(p)
						RunIterations(s, k)
						p.Drain()
						ckpt := p.CheckpointSol()
						xk := append([]float64(nil), ckpt[0]...)
						if poison {
							// A rollback's state: every vector the solver
							// allocated (they lie between the planner's two and a
							// probe allocated now) holds NaN, one more step has
							// derived every scalar and flag from them, and x is
							// restored from the checkpoint.
							probe := p.AllocateWorkspace(core.RhsShape)
							for id := core.RHS + 1; id < probe; id++ {
								d := p.VecData(id, 0)
								for i := range d {
									d[i] = math.NaN()
								}
							}
							s.Step()
							p.Drain()
							p.RestoreSol(ckpt)
						}
						s.(restarter).restart()
						RunIterations(s, k)
						p.Drain()

						q := restartPlan(a, b, xk, pieces, traced, pcg)
						f := v.mk(q)
						RunIterations(f, k)
						q.Drain()

						if i := firstBitDiff(p.VecData(core.SOL, 0), q.VecData(core.SOL, 0)); i >= 0 {
							t.Fatalf("x[%d] = %v after restart, %v from a fresh solver", i, p.VecData(core.SOL, 0)[i], q.VecData(core.SOL, 0)[i])
						}
						mr, mf := s.ConvergenceMeasure().Value(), f.ConvergenceMeasure().Value()
						if math.Float64bits(mr) != math.Float64bits(mf) {
							t.Fatalf("measure %v after restart, %v from a fresh solver", mr, mf)
						}
						if bc, ok := s.(BreakdownChecker); ok && bc.Breakdown() != nil {
							t.Fatalf("breakdown after restart: %v", bc.Breakdown())
						}
					})
				}
			}
		}
	}
}

// A checkpointing solve of a clean run takes no restart: no checkpoint
// reads as recurrence drift, for any solver, and the iterates are bit for
// bit those of the same solve without checkpoints.
func TestCheckpointingCleanRunTakesNoRestart(t *testing.T) {
	const side, tol = 24, 1e-8
	n := side * side
	b := fusedRHS(n)
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			a := confBase(side, wantsSPD(name))
			run := func(every int) (ResilientResult, []float64) {
				p := restartPlan(a, b, make([]float64, n), 4, true, name == "pcg")
				res := SolveResilient(p, New(name, p), ResilientConfig{
					Tol: tol, MaxIter: 2000, CheckpointEvery: every, MaxRestarts: 3,
				})
				p.Drain()
				return res, append([]float64(nil), p.VecData(core.SOL, 0)...)
			}
			plain, xp := run(0)
			ckpt, xc := run(3)
			if !ckpt.Converged || ckpt.Restarts != 0 || ckpt.Replacements != plain.Replacements {
				t.Fatalf("checkpointing run: %+v; want converged with 0 restarts and %d replacement(s)",
					ckpt, plain.Replacements)
			}
			if ckpt.Iterations != plain.Iterations {
				t.Fatalf("%d iterations checkpointing, %d without", ckpt.Iterations, plain.Iterations)
			}
			if i := firstBitDiff(xp, xc); i >= 0 {
				t.Fatalf("x[%d] = %v checkpointing, %v without", i, xc[i], xp[i])
			}
		})
	}
}

// A solver from outside this package has no restart: at its rejected
// convergence claim the driver stops the solve instead of counting a
// restart it never made. The package's own CGS, on the same system,
// restarts there once and converges.
func TestUnrestartableSolverStopsAtRejectedClaim(t *testing.T) {
	const side, tol = 64, 1e-10
	a := sparse.Laplacian2D(side, side)
	b := make([]float64, side*side)
	for i := range b {
		b[i] = float64((7919*i)%97) / 97
	}
	solve := func(wrap bool) ResilientResult {
		p := planFor(a, b, 8)
		var s Solver = NewCGS(p)
		if wrap {
			s = struct{ Solver }{s} // hides restart
		}
		return SolveResilient(p, s, ResilientConfig{Tol: tol, MaxIter: 10000})
	}
	if own := solve(false); !own.Converged || own.Replacements != 1 {
		t.Fatalf("package CGS: %+v; want converged after 1 restart", own.Result)
	}
	if got := solve(true); got.Converged || got.Replacements != 0 {
		t.Fatalf("wrapped CGS: %+v; want unconverged with 0 restarts", got.Result)
	}
}
