package solvers

import "kdrsolvers/internal/core"

// CG is the conjugate gradient method of Hestenes and Stiefel for
// symmetric positive definite systems — the paper's Figure 7 solver,
// generalized to a nonzero initial guess.
//
// The iteration runs on the planner's fused kernels, three launches per
// piece: the product carries pᵀAp over the pieces it writes; the
// residual update carries rᵀr (core.FusedSweep); and the solution
// update shares the search direction's sweep, which reads p anyway —
// x += αp runs before p is overwritten, so the iterates are bitwise
// those of the per-operation formulation, and the sweep behind the rᵀr
// reduction reads and writes two vectors instead of four.
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
	pq := p.Matmul(s.q, s.pv, core.DotPair{V: s.pv, W: s.q})[0] // q = A p, carrying pᵀAp
	alpha := p.Div(s.res, pq)                                   // α = res / pᵀAp
	newRes := p.FusedSweep([]core.VecUpdate{                    // r -= α q, carrying res' = r·r
		{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.q},
	}, []core.DotPair{{V: s.r, W: s.r}})[0]
	beta := p.Div(newRes, s.res) // β = res' / res
	p.FusedUpdate(               // one sweep:
		core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.pv}, // x += α p
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.pv, Alpha: beta, Src: s.r},       // p = r + β p
	)
	s.res = newRes
}
