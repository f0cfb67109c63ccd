package solvers

import "kdrsolvers/internal/core"

// BiCGStab is van der Vorst's stabilized biconjugate gradient method for
// general (nonsymmetric) square systems.
//
// The fused step batches the tᵀs/tᵀt reductions into one combine, folds
// the final residual dot into the closing update sweep, and fuses the
// direction/solution updates (core.FusedSweep), cutting the launches per
// iteration by over a third against the per-operation formulation while
// computing bitwise identical iterates.
type BiCGStab struct {
	p                 *core.Planner
	r, rhat, pv, v    core.VecID
	t                 core.VecID
	rho, alpha, omega *core.Scalar
	res               *core.Scalar
	bd                breakdownFlag
}

// NewBiCGStab builds a BiCGStab solver on a finalized square system.
func NewBiCGStab(p *core.Planner) *BiCGStab {
	if !p.IsSquare() {
		panic("solvers: BiCGStab requires a square system")
	}
	s := &BiCGStab{
		p:    p,
		r:    p.AllocateWorkspace(core.RhsShape),
		rhat: p.AllocateWorkspace(core.RhsShape),
		pv:   p.AllocateWorkspace(core.SolShape),
		v:    p.AllocateWorkspace(core.RhsShape),
		t:    p.AllocateWorkspace(core.RhsShape),
	}
	s.restart()
	return s
}

// restart implements restarter: r = b − A·x is also the fixed shadow
// residual r̂, and ρ = α = ω = 1. The first step's p = r + β(p − ω v)
// reads p and v, so they are zeroed.
func (s *BiCGStab) restart() {
	p := s.p
	s.bd.reset()
	p.BeginPhase("bicgstab.init")
	p.Zero(s.pv)
	p.Zero(s.v)
	residualInit(p, s.r)
	p.Copy(s.rhat, s.r) // r̂₀ fixed shadow residual
	s.rho = p.Constant(1)
	s.alpha = p.Constant(1)
	s.omega = p.Constant(1)
	s.res = p.Dot(s.r, s.r)
}

// Name implements Solver.
func (s *BiCGStab) Name() string { return "BiCGStab" }

// ConvergenceMeasure implements Solver.
func (s *BiCGStab) ConvergenceMeasure() *core.Scalar { return s.res }

// Breakdown implements BreakdownChecker: it reports a vanished ρ, ω, or
// r̂ᵀv denominator (wrapping ErrBreakdown), or nil.
func (s *BiCGStab) Breakdown() error { return s.bd.get() }

// Step implements Solver: one BiCGStab iteration, entirely deferred.
func (s *BiCGStab) Step() {
	p := s.p
	p.BeginPhase("bicgstab.step")
	defer p.TraceEnd(p.TraceBegin("bicgstab.step"))
	rho := p.Dot(s.rhat, s.r)
	// Breakdown-guarded divisions: ρ/ρ₋₁, α/ω, ρ/r̂ᵀv, and tᵀs/tᵀt all
	// vanish on breakdown (ρ ≈ 0 or ω ≈ 0); the guards zero the
	// coefficients and flag Breakdown instead of NaN-poisoning x and r.
	beta := p.Mul(guardedDiv(p, &s.bd, "bicgstab", "rho", rho, s.rho),
		guardedDiv(p, &s.bd, "bicgstab", "omega", s.alpha, s.omega))
	// p = r + β(p − ω v), one sweep: the xpay chains on the axpy.
	p.FusedUpdate(
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.pv, Alpha: s.omega, Neg: true, Src: s.v},
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.pv, Alpha: beta, Src: s.r},
	)
	p.Matmul(s.v, s.pv) // v = A p
	alpha := guardedDiv(p, &s.bd, "bicgstab", "rhat·v", rho, p.Dot(s.rhat, s.v))
	// s (reusing r): r ← r − α v
	p.FusedUpdate(core.VecUpdate{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.v})
	p.Matmul(s.t, s.r) // t = A s
	d := p.DotBatch(core.DotPair{V: s.t, W: s.r}, core.DotPair{V: s.t, W: s.t})
	omega := guardedDiv(p, &s.bd, "bicgstab", "t·t", d[0], d[1])
	// x += α p + ω s; r ← s − ω t; res = r·r — one sweep, one reduce.
	s.res = p.FusedSweep([]core.VecUpdate{
		{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.pv},
		{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: omega, Src: s.r},
		{Kind: core.UpdAxpy, Dst: s.r, Alpha: omega, Neg: true, Src: s.t},
	}, []core.DotPair{{V: s.r, W: s.r}})[0]
	s.rho, s.alpha, s.omega = rho, alpha, omega
}
