package solvers

import "kdrsolvers/internal/core"

// PCG is the preconditioned conjugate gradient method: CG accelerated by
// the user-supplied preconditioner P ≈ A⁻¹ applied through the planner's
// PSolve operation. The paper's Section 7 notes that extending classical
// preconditioners to multi-operator systems is future work; package
// precond provides the Jacobi construction that PCG consumes.
//
// The fused step batches the r·z and r·r reductions into one combine
// carried by the preconditioner product that writes z, lets the operator
// product carry pᵀAp, and fuses the solution/residual updates into one
// sweep, so an iteration pays two reduction barriers instead of three and
// no launch for a dot.
type PCG struct {
	p           *core.Planner
	pv, q, r, z core.VecID
	rz          *core.Scalar
	res         *core.Scalar
}

// NewPCG builds a preconditioned CG solver; the planner must have a
// preconditioner.
func NewPCG(p *core.Planner) *PCG {
	if !p.IsSquare() {
		panic("solvers: PCG requires a square system")
	}
	if !p.HasPreconditioner() {
		panic("solvers: PCG requires a preconditioner (use CG instead)")
	}
	s := &PCG{
		p:  p,
		pv: p.AllocateWorkspace(core.SolShape),
		q:  p.AllocateWorkspace(core.RhsShape),
		r:  p.AllocateWorkspace(core.RhsShape),
		z:  p.AllocateWorkspace(core.SolShape),
	}
	s.restart()
	return s
}

// restart implements restarter: r = b − A·x, z = P r, p = z.
func (s *PCG) restart() {
	p := s.p
	p.BeginPhase("pcg.init")
	residualInit(p, s.r)
	p.PSolve(s.z, s.r) // z = P r
	p.Copy(s.pv, s.z)
	s.rz = p.Dot(s.r, s.z)
	s.res = p.Dot(s.r, s.r)
}

// Name implements Solver.
func (s *PCG) Name() string { return "PCG" }

// ConvergenceMeasure implements Solver.
func (s *PCG) ConvergenceMeasure() *core.Scalar { return s.res }

// Step implements Solver: one PCG iteration, entirely deferred.
func (s *PCG) Step() {
	p := s.p
	p.BeginPhase("pcg.step")
	defer p.TraceEnd(p.TraceBegin("pcg.step"))
	alpha := p.Div(s.rz, p.Matmul(s.q, s.pv, core.DotPair{V: s.pv, W: s.q})[0])
	p.FusedUpdate(
		core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.pv},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.q},
	)
	d := p.PSolve(s.z, s.r, core.DotPair{V: s.r, W: s.z}, core.DotPair{V: s.r, W: s.r})
	rzNew := d[0]
	beta := p.Div(rzNew, s.rz)
	p.Xpay(s.pv, beta, s.z)
	s.rz = rzNew
	s.res = d[1]
}
