package solvers

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// Tests for the communication-avoiding family: s-step CG basis
// breakdown and Newton fallback, true-residual agreement against the
// classical methods, the GMRES false-convergence regression, and
// cross-solve recycling.

// spdRandom builds a symmetric positive definite matrix with random
// off-diagonal structure: A = S + Sᵀ + diag shift for dominance.
func spdRandom(n int64, seed int64) *sparse.CSR {
	r := rand.New(rand.NewSource(seed))
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 8})
		for k := 0; k < 3; k++ {
			j := int64(r.Intn(int(n)))
			if j == i {
				continue
			}
			v := r.Float64() - 0.5
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: v})
			coords = append(coords, sparse.Coord{Row: j, Col: i, Val: v})
		}
	}
	return sparse.CSRFromCoords(n, n, coords)
}

// mixedDenseTri builds an SPD matrix with a dense leading block and a
// tridiagonal tail, so the auto-tuner has two regimes to tell apart.
func mixedDenseTri(n int64) *sparse.CSR {
	var coords []sparse.Coord
	dense := n / 4
	for i := int64(0); i < dense; i++ {
		for j := int64(0); j < dense; j++ {
			v := 0.1 / (1 + math.Abs(float64(i-j)))
			if i == j {
				v = 6
			}
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: v})
		}
	}
	for i := dense; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 4})
		if i > dense {
			coords = append(coords, sparse.Coord{Row: i, Col: i - 1, Val: -1})
			coords = append(coords, sparse.Coord{Row: i - 1, Col: i, Val: -1})
		}
	}
	return sparse.CSRFromCoords(n, n, coords)
}

// hostTrueResidual is the absolute residual ‖b − Ax‖ computed host-side.
func hostTrueResidual(mat sparse.Matrix, x, b []float64) float64 {
	ax := make([]float64, len(b))
	sparse.SpMV(mat, ax, x)
	var rr float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
	}
	return math.Sqrt(rr)
}

// TestCommAvoidingTrueResidualAgreement is the acceptance gate: on the
// lap2d/random/mixed suite, the communication-avoiding solvers must
// reach the same true residual as their classical counterparts — the
// recomputed ‖b − Ax‖ of both iterates agrees to 1e-10.
func TestCommAvoidingTrueResidualAgreement(t *testing.T) {
	const tol = 1e-10
	suite := map[string]*sparse.CSR{
		"lap2d":  sparse.Laplacian2D(8, 8),
		"random": spdRandom(64, 7),
		"mixed":  mixedDenseTri(64),
	}
	pairs := [][2]string{{"sstep-cg", "cg"}, {"pgmres", "gmres"}, {"gcrodr", "gmres"}}
	for matName, mat := range suite {
		b := fusedRHS(64)
		for _, pair := range pairs {
			t.Run(fmt.Sprintf("%s/%s-vs-%s", matName, pair[0], pair[1]), func(t *testing.T) {
				trs := make([]float64, 2)
				for i, name := range pair {
					p := planFor(mat, b, 4)
					res := Solve(p, New(name, p), tol, 2000)
					p.Drain()
					if err := p.Runtime().Err(); err != nil {
						t.Fatalf("%s runtime error: %v", name, err)
					}
					if !res.Converged {
						t.Fatalf("%s did not converge: %+v", name, res)
					}
					trs[i] = hostTrueResidual(mat, p.VecData(core.SOL, 0), b)
				}
				if d := math.Abs(trs[0] - trs[1]); d > 1e-10 {
					t.Errorf("true residuals disagree by %g (%s %g, %s %g)",
						d, pair[0], trs[0], pair[1], trs[1])
				}
			})
		}
	}
}

// TestSStepCGBreakdownWrapsErrBreakdown drives the s-step coefficient
// recurrence into a vanished pᵀAp on an indefinite operator and checks
// the clean ErrBreakdown-wrapped stop.
func TestSStepCGBreakdownWrapsErrBreakdown(t *testing.T) {
	const n = 8
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		v := 1.0
		if i%2 == 1 {
			v = -1
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: v})
	}
	mat := sparse.CSRFromCoords(n, n, coords)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 // r₀ = b ⇒ p₀ᵀA p₀ = Σ ±1 = 0
	}
	p := planFor(mat, b, 2)
	res := Solve(p, NewSStepCG(p, 4), 1e-10, 50)
	p.Drain()
	if res.Converged {
		t.Fatal("indefinite system must not converge")
	}
	if res.Breakdown == nil {
		t.Fatal("expected a breakdown report")
	}
	if !errors.Is(res.Breakdown, ErrBreakdown) {
		t.Errorf("breakdown %v does not wrap ErrBreakdown", res.Breakdown)
	}
	for _, v := range p.VecData(core.SOL, 0) {
		if math.IsNaN(v) {
			t.Fatal("breakdown NaN-poisoned the iterate")
		}
	}
}

// TestSStepCGNewtonBasisSwitch runs a wide-spectrum SPD system where the
// s = 6 monomial basis exhausts double precision: the solver must
// switch to the Newton basis (Leja-ordered Ritz shifts) and still
// converge to the true solution.
func TestSStepCGNewtonBasisSwitch(t *testing.T) {
	const n = 64
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		// Log-spaced spectrum 1 … 300: ‖Aᵏp‖ grows ~300ᵏ, so the s = 6
		// Gram diagonal spans ~300¹² ≈ 5e29 ≫ the 1e13 conditioning limit.
		coords = append(coords, sparse.Coord{Row: i, Col: i,
			Val: math.Pow(300, float64(i)/float64(n-1))})
	}
	mat := sparse.CSRFromCoords(n, n, coords)
	b := fusedRHS(n)
	p := planFor(mat, b, 4)
	sv := NewSStepCG(p, 6)
	res := Solve(p, sv, 1e-8, 500)
	p.Drain()
	if err := p.Runtime().Err(); err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	if sv.shifts == nil {
		t.Error("monomial basis survived a 1e29 conditioning ratio without switching")
	}
	if !res.Converged {
		t.Fatalf("did not converge after basis switch: %+v", res)
	}
	if tr := hostTrueResidual(mat, p.VecData(core.SOL, 0), b); tr > 1e-6 {
		t.Errorf("true residual %g after Newton-basis solve", tr)
	}
}

// hostBasis is the reference for SStepCG.basis: the levels
// [(A−θ₁)x, (A−θ₂)(A−θ₁)x, …] by plain host loops, A being the sum of
// the operators. Each level starts at zero, takes every operator's
// multiply-add in turn and then subtracts θ times the previous level —
// the per-point order of a decomposed product followed by an axpy.
func hostBasis(mats []sparse.Matrix, x []float64, levels int, shifts []float64) [][]float64 {
	out := make([][]float64, levels)
	cur := x
	for k := range out {
		out[k] = make([]float64, len(x))
		for _, m := range mats {
			sparse.MultiplyAdd(m, out[k], cur)
		}
		if shifts != nil && shifts[k] != 0 {
			for i := range cur {
				out[k][i] -= shifts[k] * cur[i]
			}
		}
		cur = out[k]
	}
	return out
}

// TestSStepBasisMatchesHostLoops checks the s-step basis bit for bit
// against host loops: monomial and Newton-shifted levels (one shift
// zero), over assembled, adaptive and matrix-free formats, and on a
// system of two operators, which must act as their sum at every level.
func TestSStepBasisMatchesHostLoops(t *testing.T) {
	const n, pieces, levels = 64, 4, 4
	lap := sparse.Laplacian2D(8, 8)
	var tri []sparse.Coord // a nonsymmetric tridiagonal second operator
	for i := int64(0); i < n; i++ {
		tri = append(tri, sparse.Coord{Row: i, Col: i, Val: 3})
		if i > 0 {
			tri = append(tri, sparse.Coord{Row: i, Col: i - 1, Val: -1.5})
		}
		if i < n-1 {
			tri = append(tri, sparse.Coord{Row: i, Col: i + 1, Val: -0.5})
		}
	}
	systems := map[string][]sparse.Matrix{
		"csr":     {lap},
		"ell":     {sparse.Convert(lap, "ELL")},
		"dia":     {sparse.Convert(lap, "DIA")},
		"auto":    {tuned4(lap)},
		"stencil": {sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(8, 8))},
		"csr+tri": {lap, sparse.CSRFromCoords(n, n, tri)},
	}
	for name, mats := range systems {
		for _, shifts := range [][]float64{nil, {0.5, -0.25, 1.5, 0}} {
			t.Run(fmt.Sprintf("%s/newton=%v", name, shifts != nil), func(t *testing.T) {
				p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
				si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
				ri := p.AddRHSVector(fusedRHS(n), index.EqualPartition(index.NewSpace("R", n), pieces))
				for _, m := range mats {
					p.AddOperator(m, si, ri)
				}
				p.Finalize()
				sv := NewSStepCG(p, levels)
				dsts := make([]core.VecID, levels)
				for i := range dsts {
					dsts[i] = p.AllocateWorkspace(core.RhsShape)
				}
				sv.basis(dsts, core.RHS, shifts)
				p.Drain()
				if err := p.Runtime().Err(); err != nil {
					t.Fatalf("runtime error: %v", err)
				}
				want := hostBasis(mats, p.VecData(core.RHS, 0), levels, shifts)
				for k, d := range dsts {
					for i, v := range p.VecData(d, 0) {
						if math.Float64bits(v) != math.Float64bits(want[k][i]) {
							t.Fatalf("level %d [%d] = %v, host loop %v", k+1, i, v, want[k][i])
						}
					}
				}
			})
		}
	}
}

// TestGMRESMidCycleEstimateNeedsVerification is the restart-drift
// regression: the Givens residual estimate reaches the tolerance
// mid-cycle while x still holds the previous restart's iterate — the
// exact state where trusting the estimate (the pre-fix behavior)
// reports convergence with a residual orders of magnitude above
// tolerance. Settling must close the cycle, so the x the driver checks
// is current, and the restart it ends with must measure the honest
// residual.
func TestGMRESMidCycleEstimateNeedsVerification(t *testing.T) {
	const tol = 1e-8
	mat := sparse.Laplacian2D(8, 8)
	b := fusedRHS(64)
	p := planFor(mat, b, 4)
	s := NewGMRES(p, 10)
	var est float64
	converged := false
	for i := 0; i < 500; i++ {
		s.Step()
		est = math.Sqrt(s.ConvergenceMeasure().Value())
		if est <= tol {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("estimate never reached tolerance")
	}
	if s.j == 0 {
		t.Skip("estimate crossed tolerance exactly at a cycle boundary")
	}
	// Pre-fix false convergence: the estimate says converged, the actual
	// iterate — untouched since the last restart — says otherwise.
	p.Drain()
	stale := hostTrueResidual(mat, p.VecData(core.SOL, 0), b)
	if stale <= tol {
		t.Fatalf("iterate unexpectedly already converged (%g); regression scenario lost", stale)
	}
	if est > tol {
		t.Fatalf("estimate %g above tol after loop", est)
	}
	// Post-fix: settling closes the cycle; the restart measures the truth.
	s.settle()
	tr := math.Sqrt(s.ConvergenceMeasure().Value())
	p.Drain()
	if err := p.Runtime().Err(); err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	honest := hostTrueResidual(mat, p.VecData(core.SOL, 0), b)
	if math.Abs(tr-honest) > 1e-10 {
		t.Errorf("settled measure %g, host recomputation %g", tr, honest)
	}
	if tr > tol {
		t.Logf("estimate %g vs verified %g: drift caught, solve would continue", est, tr)
	}
}

// TestSolveSetsTrueResidual checks the Result plumbing: a converged
// solve reports the driver's recomputed TrueResidual, at or below
// tolerance.
func TestSolveSetsTrueResidual(t *testing.T) {
	mat := sparse.Laplacian2D(8, 8)
	b := fusedRHS(64)
	for _, name := range []string{"gmres", "pgmres", "sstep-cg", "gcrodr", "cg"} {
		t.Run(name, func(t *testing.T) {
			p := planFor(mat, b, 4)
			res := Solve(p, New(name, p), 1e-8, 2000)
			p.Drain()
			if !res.Converged {
				t.Fatalf("did not converge: %+v", res)
			}
			if res.TrueResidual > 1e-8 {
				t.Errorf("TrueResidual %g above tolerance", res.TrueResidual)
			}
			if res.TrueResidual == 0 && res.Residual != 0 {
				t.Error("TrueResidual left unset")
			}
		})
	}
}

// TestGCRODRRecycleAcrossSolves runs two solves through a shared
// RecycleCache, each over its own Laplacian2D(8, 8) object: the cache
// holds a space, not an operator identity, so the second solve warm-
// starts with the first one's deflation space and takes fewer
// iterations, and both reach the tolerance honestly. A space of another
// size is ignored: the solve runs bit for bit as without a cache.
func TestGCRODRRecycleAcrossSolves(t *testing.T) {
	const tol = 1e-8
	cache := &RecycleCache{}
	iters := make([]int, 2)
	for round := 0; round < 2; round++ {
		mat := sparse.Laplacian2D(8, 8)
		b := fusedRHS(64)
		p := planFor(mat, b, 4)
		s := NewGCRODR(p, 10, 4, cache)
		res := Solve(p, s, tol, 500)
		p.Drain()
		if err := p.Runtime().Err(); err != nil {
			t.Fatalf("round %d runtime error: %v", round, err)
		}
		if !res.Converged {
			t.Fatalf("round %d did not converge: %+v", round, res)
		}
		if tr := hostTrueResidual(mat, p.VecData(core.SOL, 0), b); tr > tol {
			t.Errorf("round %d true residual %g", round, tr)
		}
		s.SaveRecycleSpace()
		iters[round] = res.Iterations
	}
	if len(cache.load()) != 4 {
		t.Fatal("cache never populated")
	}
	if iters[1] >= iters[0] {
		t.Errorf("recycled solve took %d iterations vs %d cold", iters[1], iters[0])
	}

	// The cached space has 64 rows; a 100-row system must ignore it.
	solve := func(c *RecycleCache) []float64 {
		p := planFor(sparse.Laplacian2D(10, 10), fusedRHS(100), 4)
		Solve(p, NewGCRODR(p, 10, 4, c), tol, 500)
		p.Drain()
		return p.VecData(core.SOL, 0)
	}
	if i := firstBitDiff(solve(cache), solve(nil)); i >= 0 {
		t.Errorf("a space of another size changed x[%d]", i)
	}
}
