package solvers

import (
	"math"

	"kdrsolvers/internal/core"
)

// MINRES is the minimum residual method of Paige and Saunders for
// symmetric (possibly indefinite) systems, built on the Lanczos
// three-term recurrence with on-the-fly Givens rotations, following the
// classic minres.m formulation.
//
// The rotation coefficients need host-side control flow, so MINRES
// synchronizes on two dot products per iteration — the same behavior as
// reference implementations. Each chain of vector operations between
// those synchronizations is one fused sweep (core.FusedSweep), with the
// dot it feeds riding along: four sweeps and the product an iteration,
// with the iterates of one sweep per operation, bit for bit.
type MINRES struct {
	p *core.Planner
	// Lanczos residual history r1, r2, the current vector v, and the A·v
	// scratch y.
	r1, r2, v, y core.VecID
	// Direction vectors for the solution update.
	w, w1, w2 core.VecID

	k           int // completed iterations
	oldb, beta  float64
	dbar, epsln float64
	cs, sn      float64
	phibar      float64
	res         *core.Scalar
}

// NewMINRES builds a MINRES solver on a finalized square system.
func NewMINRES(p *core.Planner) *MINRES {
	if !p.IsSquare() {
		panic("solvers: MINRES requires a square system")
	}
	s := &MINRES{
		p:  p,
		r1: p.AllocateWorkspace(core.RhsShape),
		r2: p.AllocateWorkspace(core.RhsShape),
		v:  p.AllocateWorkspace(core.RhsShape),
		y:  p.AllocateWorkspace(core.RhsShape),
		w:  p.AllocateWorkspace(core.SolShape),
		w1: p.AllocateWorkspace(core.SolShape),
		w2: p.AllocateWorkspace(core.SolShape),
	}
	p.BeginPhase("minres.init")
	residualInit(p, s.r2)
	rr := p.FusedSweep([]core.VecUpdate{{Kind: core.UpdCopy, Dst: s.r1, Src: s.r2}},
		[]core.DotPair{{V: s.r2, W: s.r2}})[0]
	s.res = rr
	s.beta = math.Sqrt(rr.Value())
	s.phibar = s.beta
	s.cs = -1 // the minres.m convention makes iteration 1 need no special case
	return s
}

// Name implements Solver.
func (s *MINRES) Name() string { return "MINRES" }

// ConvergenceMeasure implements Solver: φ̄², the Givens recurrence's
// residual estimate.
func (s *MINRES) ConvergenceMeasure() *core.Scalar { return s.res }

// safeInv returns 1/x, or 0 when x is 0 (only reachable on virtual
// planners or after exact convergence).
func safeInv(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}

// Step implements Solver: one Lanczos step plus the residual-minimizing
// plane rotation and solution update.
func (s *MINRES) Step() {
	p := s.p
	p.BeginPhase("minres.step")
	defer p.TraceEnd(p.TraceBegin("minres.step"))
	s.k++

	// v = r2/β; y = A v − (β/β_old) r1; α = v·y.
	p.FusedUpdate(
		core.VecUpdate{Kind: core.UpdCopy, Dst: s.v, Src: s.r2},
		core.VecUpdate{Kind: core.UpdScal, Dst: s.v, Alpha: p.Constant(safeInv(s.beta))})
	p.Matmul(s.y, s.v)
	var ups []core.VecUpdate
	if s.k > 1 {
		ups = []core.VecUpdate{{Kind: core.UpdAxpy, Dst: s.y, Alpha: p.Constant(-s.beta * safeInv(s.oldb)), Src: s.r1}}
	}
	alfa := p.FusedSweep(ups, []core.DotPair{{V: s.v, W: s.y}})[0].Value()
	// y −= (α/β) r2; r1 = r2; r2 = y; β = ‖r2‖.
	rr := p.FusedSweep([]core.VecUpdate{
		{Kind: core.UpdAxpy, Dst: s.y, Alpha: p.Constant(-alfa * safeInv(s.beta)), Src: s.r2},
		{Kind: core.UpdCopy, Dst: s.r1, Src: s.r2},
		{Kind: core.UpdCopy, Dst: s.r2, Src: s.y},
	}, []core.DotPair{{V: s.r2, W: s.r2}})[0]
	s.oldb = s.beta
	s.beta = math.Sqrt(rr.Value())

	// Apply the previous rotation and compute the new one.
	oldeps := s.epsln
	delta := s.cs*s.dbar + s.sn*alfa
	gbar := s.sn*s.dbar - s.cs*alfa
	s.epsln = s.sn * s.beta
	s.dbar = -s.cs * s.beta
	gamma := math.Hypot(gbar, s.beta)
	s.cs = gbar * safeInv(gamma)
	s.sn = s.beta * safeInv(gamma)
	phi := s.cs * s.phibar
	s.phibar = s.sn * s.phibar

	// Direction update: w = (v − oldeps·w1 − delta·w2)/γ, rotating the
	// direction history, then x += φ w.
	p.FusedUpdate(
		core.VecUpdate{Kind: core.UpdCopy, Dst: s.w1, Src: s.w2},
		core.VecUpdate{Kind: core.UpdCopy, Dst: s.w2, Src: s.w},
		core.VecUpdate{Kind: core.UpdCopy, Dst: s.w, Src: s.v},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.w, Alpha: p.Constant(-oldeps), Src: s.w1},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: s.w, Alpha: p.Constant(-delta), Src: s.w2},
		core.VecUpdate{Kind: core.UpdScal, Dst: s.w, Alpha: p.Constant(safeInv(gamma))},
		core.VecUpdate{Kind: core.UpdAxpy, Dst: core.SOL, Alpha: p.Constant(phi), Src: s.w})

	s.res = p.Constant(s.phibar * s.phibar)
}
