package solvers

import "kdrsolvers/internal/core"

// PipeCG is the pipelined conjugate gradient method of Ghysels and
// Vanroose (Parallel Computing 40, 2014) for symmetric positive definite
// systems: a communication-hiding reformulation of CG that needs a
// single global reduction per iteration — computing γ = rᵀr and δ = wᵀr
// in one batched combine — and launches the next SpMV (q = A·w)
// immediately after the reduction's partials, so the reduction's
// combine latency overlaps the matrix product instead of serializing
// the iteration. The price is three auxiliary recurrences (z ≈ A²p,
// s ≈ Ap, and w = Ar maintained by updates rather than recomputed),
// which round differently from classic CG, so iterates agree to
// rounding — not bitwise — and the method is slightly less robust on
// ill-conditioned systems.
//
// All six vector updates of an iteration share one fused sweep, so a
// PipeCG iteration launches roughly half the tasks of the classic
// formulation on top of halving its reduction count.
type PipeCG struct {
	p                    *core.Planner
	r, w, q, z, s, pv    core.VecID
	gamma, alphaOld, res *core.Scalar
	first                bool
}

// NewPipeCG builds a pipelined CG solver on a finalized square,
// unpreconditioned system.
func NewPipeCG(p *core.Planner) *PipeCG {
	if !p.IsSquare() {
		panic("solvers: PipeCG requires a square system")
	}
	s := &PipeCG{
		p:  p,
		r:  p.AllocateWorkspace(core.RhsShape),
		w:  p.AllocateWorkspace(core.RhsShape),
		q:  p.AllocateWorkspace(core.RhsShape),
		z:  p.AllocateWorkspace(core.RhsShape),
		s:  p.AllocateWorkspace(core.RhsShape),
		pv: p.AllocateWorkspace(core.SolShape),
	}
	s.restart()
	return s
}

// restart implements restarter: r = b − A·x, w = A·r, and the next step
// runs in first-iteration mode (β = 0), which derives p, s and z from
// the pair. That step still reads them (z = q + 0·z), so they are zeroed.
func (s *PipeCG) restart() {
	p := s.p
	p.BeginPhase("pipecg.init")
	p.Zero(s.z)
	p.Zero(s.s)
	p.Zero(s.pv)
	residualInit(p, s.r)
	p.Matmul(s.w, s.r) // w = A r
	s.res = p.Dot(s.r, s.r)
	s.first = true
}

// Name implements Solver.
func (s *PipeCG) Name() string { return "PipeCG" }

// ConvergenceMeasure implements Solver: γ = rᵀr of the residual at the
// top of the last Step — the pipelined recurrence's own measure, one
// update behind the classic formulation's.
func (s *PipeCG) ConvergenceMeasure() *core.Scalar { return s.res }

// Step implements Solver: one pipelined CG iteration, entirely
// deferred. The batched γ/δ reduction and the q = A·w product are
// independent in the task graph, so the runtime overlaps them — the
// overlap Ghysels and Vanroose obtain with a non-blocking allreduce.
func (s *PipeCG) Step() {
	p := s.p
	p.BeginPhase("pipecg.step")
	defer p.TraceEnd(p.TraceBegin("pipecg.step"))
	d := p.DotBatch(core.DotPair{V: s.r, W: s.r}, core.DotPair{V: s.w, W: s.r})
	gamma, delta := d[0], d[1]
	p.Matmul(s.q, s.w) // overlaps the reduction combine

	var beta, alpha *core.Scalar
	if s.first {
		s.first = false
		beta = p.Constant(0)
		alpha = p.Div(gamma, delta)
	} else {
		beta = p.Div(gamma, s.gamma)
		// α = γ / (δ − β·γ/α₋₁), the pipelined recurrence for pᵀAp.
		alpha = p.ScalarExpr("pipecg.alpha", func(v []float64) float64 {
			return v[0] / (v[1] - v[2]*v[0]/v[3])
		}, gamma, delta, beta, s.alphaOld)
	}
	p.FusedUpdate(
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.z, Alpha: beta, Src: s.q},             // z = q + β z
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.s, Alpha: beta, Src: s.w},             // s = w + β s
		core.VecUpdate{Kind: core.UpdXpay, Dst: s.pv, Alpha: beta, Src: s.r},            // p = r + β p
		core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: alpha, Src: s.pv},      // x += α p
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.r, Alpha: alpha, Neg: true, Src: s.s}, // r -= α s
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.w, Alpha: alpha, Neg: true, Src: s.z}, // w -= α z
	)
	s.gamma, s.alphaOld, s.res = gamma, alpha, gamma
}
