package solvers

import "kdrsolvers/internal/core"

// BiCG is the biconjugate gradient method for general square systems. It
// is the one solver here that exercises the adjoint product A^T·v, which
// the planner supports through the same universal co-partitioning
// operators (projected along the column relation instead of the row
// relation).
//
// Like CG, the iteration runs on the planner's fused kernels: the two
// residual updates share one piece sweep with the batched r̃·r and r·r
// reductions (core.FusedSweep), and the solution update shares the
// direction updates' sweep, which reads p anyway — x += αp runs before p
// is overwritten — so an iteration pays two reduction barriers instead of
// four and about half the launches of the per-operation formulation,
// with bitwise identical iterates.
type BiCG struct {
	p                    *core.Planner
	r, rt, pv, pt, q, qt core.VecID
	rho                  *core.Scalar
	res                  *core.Scalar
	bd                   breakdownFlag
}

// NewBiCG builds a BiCG solver on a finalized square system.
func NewBiCG(p *core.Planner) *BiCG {
	if !p.IsSquare() {
		panic("solvers: BiCG requires a square system")
	}
	s := &BiCG{
		p:  p,
		r:  p.AllocateWorkspace(core.RhsShape),
		rt: p.AllocateWorkspace(core.RhsShape),
		pv: p.AllocateWorkspace(core.SolShape),
		pt: p.AllocateWorkspace(core.SolShape),
		q:  p.AllocateWorkspace(core.RhsShape),
		qt: p.AllocateWorkspace(core.RhsShape),
	}
	s.restart()
	return s
}

// restart implements restarter: r = b − A·x, with the shadow residual
// and both directions started from it.
func (s *BiCG) restart() {
	p := s.p
	s.bd.reset()
	p.BeginPhase("bicg.init")
	residualInit(p, s.r)
	d := p.FusedSweep([]core.VecUpdate{
		{Kind: core.UpdCopy, Dst: s.rt, Src: s.r}, // shadow residual r̃₀ = r₀
		{Kind: core.UpdCopy, Dst: s.pv, Src: s.r},
		{Kind: core.UpdCopy, Dst: s.pt, Src: s.rt},
	}, []core.DotPair{{V: s.rt, W: s.r}, {V: s.r, W: s.r}})
	s.rho, s.res = d[0], d[1]
}

// Name implements Solver.
func (s *BiCG) Name() string { return "BiCG" }

// ConvergenceMeasure implements Solver.
func (s *BiCG) ConvergenceMeasure() *core.Scalar { return s.res }

// Breakdown implements BreakdownChecker: it reports a vanished ρ or
// p̃ᵀAp denominator (wrapping ErrBreakdown), or nil. Both breakdowns are
// classic for BiCG — p̃ᵀAp = 0 happens at the first step on skew-
// symmetric systems.
func (s *BiCG) Breakdown() error { return s.bd.get() }

// Step implements Solver: one BiCG iteration, entirely deferred.
func (s *BiCG) Step() {
	p := s.p
	p.BeginPhase("bicg.step")
	defer p.TraceEnd(p.TraceBegin("bicg.step"))
	ptq := p.Matmul(s.q, s.pv, core.DotPair{V: s.pt, W: s.q})[0] // q = A p, carrying p̃ᵀAp
	p.MatmulT(s.qt, s.pt)                                        // q̃ = Aᵀ p̃
	alpha := guardedDiv(p, &s.bd, "bicg", "pt·Ap", s.rho, ptq)
	d := p.FusedSweep([]core.VecUpdate{ // one sweep:
		{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.q},   // r -= α q
		{Kind: core.UpdAxpy, Dst: s.rt, Alpha: alpha, Neg: true, Src: s.qt}, // r̃ -= α q̃
	}, []core.DotPair{{V: s.rt, W: s.r}, {V: s.r, W: s.r}}) // ρ' = r̃·r, res' = r·r
	beta := guardedDiv(p, &s.bd, "bicg", "rho", d[0], s.rho)
	p.FusedUpdate( // one sweep:
		core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.pv}, // x += α p
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.pv, Alpha: beta, Src: s.r},       // p = r + β p
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.pt, Alpha: beta, Src: s.rt})      // p̃ = r̃ + β p̃
	s.rho, s.res = d[0], d[1]
}
