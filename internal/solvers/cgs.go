package solvers

import "kdrsolvers/internal/core"

// CGS is Sonneveld's conjugate gradient squared method for general
// square systems: a transpose-free relative of BiCG that applies the
// contraction polynomial twice per iteration. It often converges in
// fewer iterations than BiCG but with rougher residual behavior;
// BiCGStab (its smoothed descendant) is usually preferred. The
// implementation follows the Templates formulation, each chain of vector
// operations one fused sweep (core.FusedSweep) — the last carrying the
// r·r dot — so an iteration is seven tasks a piece group, with the
// iterates of one sweep per operation, bit for bit.
type CGS struct {
	p *core.Planner
	// Workspaces: residual r, shadow residual r̃, and the u/p/q/v/uq
	// vectors of the recurrence (vhat doubles as qhat).
	r, rt    core.VecID
	u, pp, q core.VecID
	vhat, uq core.VecID
	rho      *core.Scalar
	k        int
	res      *core.Scalar
	bd       breakdownFlag
}

// NewCGS builds a CGS solver on a finalized square system.
func NewCGS(p *core.Planner) *CGS {
	if !p.IsSquare() {
		panic("solvers: CGS requires a square system")
	}
	s := &CGS{
		p:    p,
		r:    p.AllocateWorkspace(core.RhsShape),
		rt:   p.AllocateWorkspace(core.RhsShape),
		u:    p.AllocateWorkspace(core.SolShape),
		pp:   p.AllocateWorkspace(core.SolShape),
		q:    p.AllocateWorkspace(core.SolShape),
		vhat: p.AllocateWorkspace(core.RhsShape),
		uq:   p.AllocateWorkspace(core.SolShape),
	}
	s.restart()
	return s
}

// restart implements restarter: r = b − A·x is also the shadow residual
// r̃, and the next step is a first step (u = p = r).
func (s *CGS) restart() {
	p := s.p
	s.bd.reset()
	s.k, s.rho = 0, nil
	p.BeginPhase("cgs.init")
	residualInit(p, s.r)
	s.res = p.FusedSweep([]core.VecUpdate{{Kind: core.UpdCopy, Dst: s.rt, Src: s.r}},
		[]core.DotPair{{V: s.r, W: s.r}})[0]
}

// Name implements Solver.
func (s *CGS) Name() string { return "CGS" }

// ConvergenceMeasure implements Solver.
func (s *CGS) ConvergenceMeasure() *core.Scalar { return s.res }

// Breakdown implements BreakdownChecker: it reports a vanished ρ or
// r̃ᵀv̂ denominator (wrapping ErrBreakdown), or nil.
func (s *CGS) Breakdown() error { return s.bd.get() }

// Step implements Solver: one CGS iteration, entirely deferred.
func (s *CGS) Step() {
	p := s.p
	p.BeginPhase("cgs.step")
	defer p.TraceEnd(p.TraceBegin("cgs.step"))
	rho := p.Dot(s.rt, s.r)
	if s.k == 0 {
		p.FusedUpdate( // u = r; p = u
			core.VecUpdate{Kind: core.UpdCopy, Dst: s.u, Src: s.r},
			core.VecUpdate{Kind: core.UpdCopy, Dst: s.pp, Src: s.u})
	} else {
		beta := guardedDiv(p, &s.bd, "cgs", "rho", rho, s.rho)
		one := p.Constant(1)
		p.FusedUpdate( // u = r + β q; p = u + β (q + β p)
			core.VecUpdate{Kind: core.UpdCopy, Dst: s.u, Src: s.r},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.u, Alpha: beta, Src: s.q},
			core.VecUpdate{Kind: core.UpdScal, Dst: s.pp, Alpha: beta},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.pp, Alpha: one, Src: s.q},
			core.VecUpdate{Kind: core.UpdScal, Dst: s.pp, Alpha: beta},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.pp, Alpha: one, Src: s.u})
	}
	s.k++
	rv := p.Matmul(s.vhat, s.pp, core.DotPair{V: s.rt, W: s.vhat})[0] // v̂ = A p, carrying r̃ᵀv̂
	alpha := guardedDiv(p, &s.bd, "cgs", "rt·v", rho, rv)
	p.FusedUpdate( // q = u − α v̂; uq = u + q; x += α uq
		core.VecUpdate{Kind: core.UpdCopy, Dst: s.q, Src: s.u},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.q, Alpha: alpha, Neg: true, Src: s.vhat},
		core.VecUpdate{Kind: core.UpdCopy, Dst: s.uq, Src: s.u},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.uq, Alpha: p.Constant(1), Src: s.q},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.uq})
	// q̂ = A uq, in v̂'s storage; r −= α q̂; res = r·r
	p.Matmul(s.vhat, s.uq)
	s.res = p.FusedSweep(
		[]core.VecUpdate{{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.vhat}},
		[]core.DotPair{{V: s.r, W: s.r}})[0]
	s.rho = rho
}
