package solvers

import (
	"math"

	"kdrsolvers/internal/core"
)

// SStepCG is communication-avoiding s-step conjugate gradients
// (Chronopoulos–Gear / Hoemmen): each Step runs one *block* of s CG
// iterations against a single global reduction. The block builds the
// 2s+1 column basis V = [p, Ap, …, Aˢp, r, Ar, …, Aˢ⁻¹r] with two
// matrix-powers sweeps (no communication beyond the depth-s halo
// exchange), folds every inner product of the block into one batched
// Gram reduction G = VᵀV, and then advances the s iterations entirely
// in 2s+1-dimensional coefficient space on the host — every α, β, and
// residual norm of the block is a tiny quadratic form in G. One fused
// vector sweep at block end maps the accumulated coefficients back onto
// x, r, and p.
//
// The monomial basis [p, Ap, A²p, …] loses linear independence in
// floating point as fast as the power method converges; when the Gram
// matrix's conditioning proxy degrades, the solver switches to a Newton
// basis [(A−θ₁)p, (A−θ₂)(A−θ₁)p, …] with Leja-ordered Ritz shifts
// recovered for free from the α/β history via the CG–Lanczos
// correspondence.
type SStepCG struct {
	p     *core.Planner
	s     int
	planP *core.PowersPlan // depth s, builds the p-polynomial block
	planR *core.PowersPlan // depth s−1, builds the r-polynomial block
	pv    core.VecID       // current direction (basis column P₀)
	rv    core.VecID       // current residual (basis column R₀)
	pNext core.VecID
	rNext core.VecID
	pws   []core.VecID // P₁ … P_s
	rws   []core.VecID // R₁ … R_{s−1}
	res   *core.Scalar
	flag  breakdownFlag
	// tr is the open trace scope. Step swaps rv↔rNext and pv↔pNext, so
	// only every other block names the same regions: one trace instance
	// spans two blocks.
	tr bool

	// shifts is nil for the monomial basis; after the Newton switch it
	// holds the s Leja-ordered Ritz shifts (θ₁ … θ_s).
	shifts []float64
	alphas []float64 // coefficient history for Ritz recovery
	betas  []float64
}

// monomialCondLimit is the Gram-diagonal growth ratio beyond which the
// monomial basis is declared numerically spent: ‖Aᵏp‖²/‖p‖² grows like
// λ_max^{2k}, and once the ratio eats most of a double's 53 bits the
// coefficient-space recurrences stop resembling CG.
const monomialCondLimit = 1e13

// NewSStepCG builds an s-step CG solver on a finalized SPD system.
// The registry default s = 4 trades one reduction per 4 iterations
// against a 9-column Gram basis.
func NewSStepCG(p *core.Planner, s int) *SStepCG {
	if s < 2 {
		panic("solvers: s-step CG needs a block size of at least 2")
	}
	sv := &SStepCG{
		p: p, s: s,
		planP: core.NewPowersPlan(p, s),
		planR: core.NewPowersPlan(p, s-1),
		pv:    p.AllocateWorkspace(core.RhsShape),
		rv:    p.AllocateWorkspace(core.RhsShape),
		pNext: p.AllocateWorkspace(core.RhsShape),
		rNext: p.AllocateWorkspace(core.RhsShape),
	}
	for i := 0; i < s; i++ {
		sv.pws = append(sv.pws, p.AllocateWorkspace(core.RhsShape))
	}
	for i := 0; i < s-1; i++ {
		sv.rws = append(sv.rws, p.AllocateWorkspace(core.RhsShape))
	}
	p.BeginPhase("sstep.init")
	residualInit(p, sv.rv)
	sv.res = p.Dot(sv.rv, sv.rv)
	p.Copy(sv.pv, sv.rv)
	return sv
}

// Name implements Solver.
func (s *SStepCG) Name() string { return "S-Step CG" }

// ConvergenceMeasure implements Solver: the coefficient-space ‖r‖² after
// the last completed block.
func (s *SStepCG) ConvergenceMeasure() *core.Scalar { return s.res }

// Breakdown implements BreakdownChecker.
func (s *SStepCG) Breakdown() error { return s.flag.get() }

// Step implements Solver: one s-iteration block — two powers sweeps,
// one Gram reduction, s host-side coefficient iterations, one fused
// basis combination.
func (s *SStepCG) Step() {
	p := s.p
	p.BeginPhase("sstep.basis")
	closing := s.tr
	if !closing {
		s.tr = p.TraceBegin("sstep.block")
	}

	// V = [P₀ … P_s, R₀ … R_{s−1}] with P₀ = p, R₀ = r.
	v := make([]core.VecID, 0, 2*s.s+1)
	v = append(v, s.pv)
	v = append(v, s.pws...)
	v = append(v, s.rv)
	v = append(v, s.rws...)
	var shiftsR []float64
	if s.shifts != nil {
		shiftsR = s.shifts[:s.s-1]
	}
	s.planP.Sweep(s.pws, s.pv, s.shifts)
	s.planR.Sweep(s.rws, s.rv, shiftsR)
	g := p.Gram(v...)

	p.BeginPhase("sstep.update")
	// Pull the Gram matrix (the block's single synchronization) and run
	// the s CG iterations in coefficient space. On virtual planners the
	// values read as zero, the recurrence freezes at zero coefficients,
	// and the launched structure below stays identical to a real run.
	d := 2*s.s + 1
	gm := make([][]float64, d)
	for i := 0; i < d; i++ {
		gm[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			gm[i][j] = g[i][j].Value()
		}
	}
	xc, rc, pc, rr := s.coefficientBlock(gm)

	// One fused sweep maps the block back to vector space:
	// x += Σ xc_k V_k, r' = Σ rc_k V_k, p' = Σ pc_k V_k. Zero
	// coefficients still participate so real and virtual planners record
	// identical graphs.
	p.Zero(s.rNext)
	p.Zero(s.pNext)
	ups := make([]core.VecUpdate, 0, 3*d)
	for k, vk := range v {
		ups = append(ups,
			core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: p.Constant(xc[k]), Src: vk},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.rNext, Alpha: p.Constant(rc[k]), Src: vk},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.pNext, Alpha: p.Constant(pc[k]), Src: vk},
		)
	}
	p.FusedUpdate(ups...)
	s.rv, s.rNext = s.rNext, s.rv
	s.pv, s.pNext = s.pNext, s.pv
	s.res = p.Constant(math.Max(rr, 0))
	if closing {
		s.closeTrace()
	}
}

// closeTrace ends the open two-block trace instance, if any.
func (s *SStepCG) closeTrace() {
	s.p.TraceEnd(s.tr)
	s.tr = false
}

// coefficientBlock advances s CG iterations in the 2s+1-dimensional
// coefficient space of the block basis, entirely from the Gram matrix:
// returns the solution-update, residual, and direction coefficient
// vectors and the final ‖r‖².
func (s *SStepCG) coefficientBlock(gm [][]float64) (xc, rc, pc []float64, rr float64) {
	d := 2*s.s + 1
	xc = make([]float64, d)
	pc = make([]float64, d)
	rc = make([]float64, d)
	pc[0] = 1     // p = P₀
	rc[s.s+1] = 1 // r = R₀
	rr = quadForm(gm, rc, rc)
	if !isFinite(rr) || rr <= 0 {
		// Converged (or virtual): the block is a structural no-op — the
		// identity coefficients carry r and p over unchanged.
		return xc, rc, pc, rr
	}
	condFailed := false
	for j := 0; j < s.s; j++ {
		w := s.applyBasisOp(pc)
		den := quadForm(gm, pc, w)
		if !isFinite(den) {
			condFailed = true
			break
		}
		if den == 0 {
			s.flag.report("S-Step CG", "pᵀAp")
			break
		}
		alpha := rr / den
		rrNew := rr
		rcNew := make([]float64, d)
		for k := 0; k < d; k++ {
			rcNew[k] = rc[k] - alpha*w[k]
		}
		rrNew = quadForm(gm, rcNew, rcNew)
		if !isFinite(rrNew) || !isFinite(alpha) {
			condFailed = true
			break
		}
		for k := 0; k < d; k++ {
			xc[k] += alpha * pc[k]
		}
		copy(rc, rcNew)
		if rrNew <= 0 {
			// Exact convergence inside the block.
			s.alphas = append(s.alphas, alpha)
			rr = rrNew
			break
		}
		beta := rrNew / rr
		for k := 0; k < d; k++ {
			pc[k] = rc[k] + beta*pc[k]
		}
		s.alphas = append(s.alphas, alpha)
		s.betas = append(s.betas, beta)
		rr = rrNew
	}
	s.maybeSwitchBasis(gm, condFailed)
	return xc, rc, pc, rr
}

// applyBasisOp multiplies a coefficient vector by the basis-change
// matrix B (the coefficient-space image of A): A·P_k = P_{k+1} + θ_{k+1}
// P_k and likewise for the R block. The degree argument guarantees the
// top columns (P_s, R_{s−1}) carry zero coefficients whenever this is
// called, so the image stays representable.
func (s *SStepCG) applyBasisOp(v []float64) []float64 {
	d := 2*s.s + 1
	w := make([]float64, d)
	shift := func(i int) float64 {
		if s.shifts == nil {
			return 0
		}
		return s.shifts[i]
	}
	for i := 0; i < s.s; i++ { // P block: columns 0..s
		if v[i] != 0 {
			w[i+1] += v[i]
			w[i] += shift(i) * v[i]
		}
	}
	base := s.s + 1
	for i := 0; i < s.s-1; i++ { // R block: columns s+1..2s
		if v[base+i] != 0 {
			w[base+i+1] += v[base+i]
			w[base+i] += shift(i) * v[base+i]
		}
	}
	return w
}

// maybeSwitchBasis abandons the monomial basis when its conditioning
// proxy — the growth of the Gram diagonal across the P block — exceeds
// monomialCondLimit, or when the coefficient recurrences produced
// non-finite values outright. The replacement Newton shifts are the
// Leja-ordered Ritz values recovered from the α/β history; with no
// history yet the switch waits for the next block.
func (s *SStepCG) maybeSwitchBasis(gm [][]float64, condFailed bool) {
	if s.p.Virtual() || s.shifts != nil || len(s.alphas) == 0 {
		return
	}
	if !condFailed {
		lo, hi := math.Inf(1), 0.0
		for k := 0; k <= s.s; k++ {
			dk := gm[k][k]
			if !isFinite(dk) {
				condFailed = true
				break
			}
			if dk < lo {
				lo = dk
			}
			if dk > hi {
				hi = dk
			}
		}
		if !condFailed && (lo <= 0 || hi/lo <= monomialCondLimit) {
			return
		}
	}
	ritz := lejaOrder(ritzFromCG(s.alphas, s.betas))
	if len(ritz) == 0 {
		return
	}
	s.shifts = make([]float64, s.s)
	for i := range s.shifts {
		s.shifts[i] = ritz[i%len(ritz)]
	}
}

// settle implements settler: the driver's residual check is no part of
// a block, so it must not launch inside the open two-block trace scope.
func (s *SStepCG) settle() { s.closeTrace() }

// ReplaceResidual implements ResidualReplacer. The s-step block measure
// lives entirely in coefficient space, so there is no recurrence vector
// to compare elementwise: drift is |est − true| between the block's
// coefficient-space estimate and the recomputed ‖b − A·x‖, and
// replacement always rebases — r ← b − Ax with the direction restarted
// from it, which is exactly the recovery a corrupted basis block needs.
func (s *SStepCG) ReplaceResidual(float64) ReplacementReport {
	p := s.p
	est := math.Sqrt(math.Max(s.res.Value(), 0))
	s.settle()
	p.BeginPhase("sstep.replace")
	residualInit(p, s.rv)
	s.res = p.Dot(s.rv, s.rv)
	p.Copy(s.pv, s.rv)
	tr := math.Sqrt(math.Max(s.res.Value(), 0))
	return ReplacementReport{TrueResidual: tr, Drift: math.Abs(tr - est), Replaced: true}
}

// quadForm evaluates aᵀ G b.
func quadForm(g [][]float64, a, b []float64) float64 {
	var sum float64
	for i := range a {
		if a[i] == 0 {
			continue
		}
		var row float64
		for j := range b {
			if b[j] != 0 {
				row += g[i][j] * b[j]
			}
		}
		sum += a[i] * row
	}
	return sum
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
