package solvers

import "kdrsolvers/internal/core"

// CG is the conjugate gradient method of Hestenes and Stiefel for
// symmetric positive definite systems — the paper's Figure 7 solver,
// generalized to a nonzero initial guess.
//
// The iteration runs on the planner's fused kernels: the two solution
// and residual updates and the residual dot product share one piece
// sweep (core.FusedSweep), cutting the launches per iteration by about
// a third against the per-operation formulation while computing bitwise
// identical iterates.
type CG struct {
	p        *core.Planner
	pv, q, r core.VecID
	res      *core.Scalar // r·r
}

// NewCG builds a CG solver on a finalized square, unpreconditioned
// system.
func NewCG(p *core.Planner) *CG {
	if !p.IsSquare() {
		panic("solvers: CG requires a square system")
	}
	s := &CG{
		p:  p,
		pv: p.AllocateWorkspace(core.SolShape),
		q:  p.AllocateWorkspace(core.RhsShape),
		r:  p.AllocateWorkspace(core.RhsShape),
	}
	s.restart()
	return s
}

// restart implements restarter: r = b − A·x, p = r.
func (s *CG) restart() {
	p := s.p
	p.BeginPhase("cg.init")
	residualInit(p, s.r)
	p.Copy(s.pv, s.r)
	s.res = p.Dot(s.r, s.r)
}

// Name implements Solver.
func (s *CG) Name() string { return "CG" }

// ConvergenceMeasure implements Solver.
func (s *CG) ConvergenceMeasure() *core.Scalar { return s.res }

// Step implements Solver: one CG iteration, entirely deferred.
func (s *CG) Step() {
	p := s.p
	p.BeginPhase("cg.step")
	defer p.TraceEnd(p.TraceBegin("cg.step"))
	p.Matmul(s.q, s.pv)                      // q = A p
	alpha := p.Div(s.res, p.Dot(s.pv, s.q))  // α = res / pᵀAp
	newRes := p.FusedSweep([]core.VecUpdate{ // one sweep:
		{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.pv},      // x += α p
		{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.q}, // r -= α q
	}, []core.DotPair{{V: s.r, W: s.r}})[0] //                                     res' = r·r
	beta := p.Div(newRes, s.res) // β = res' / res
	p.Xpay(s.pv, beta, s.r)      // p = r + β p
	s.res = newRes
}
