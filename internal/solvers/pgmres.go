package solvers

import (
	"math"

	"kdrsolvers/internal/core"
)

// PGMRES is Ghysels-style pipelined GMRES (p1-GMRES): where classical
// GMRES(m) issues j+2 dependent reduction points per Arnoldi step
// (modified Gram-Schmidt dot after dot, then the norm), PGMRES folds the
// whole step's inner products into ONE DotBatch — ⟨z_j, v_i⟩ for i ≤ j
// plus ⟨z_j, z_j⟩ — and launches the next matrix-vector product
// u = A·z_j immediately after, so the SpMV overlaps the reduction
// in flight, the same overlap idiom PipeCG uses. The auxiliary basis
// z_j = A·v_j is advanced by the same recurrence as v (no extra SpMV),
// and the lost norm is recovered by Pythagoras: h_{j+1,j} =
// √(‖z_j‖² − Σᵢ h²ᵢⱼ). Both recurrences — copies, Gram-Schmidt axpys and
// the normalizing scals — are one fused sweep, so a step is three tasks a
// piece group: the batch, the product and the sweep. The price is
// classical Gram-Schmidt orthogonalization (slightly less stable than
// MGS) and one extra basis vector per step. The restart cycle around the
// steps is arnoldi's.
type PGMRES struct {
	arnoldi
	z []core.VecID // z_j = A v_j
	u core.VecID
}

// NewPGMRES builds a pipelined GMRES solver with restart length m.
func NewPGMRES(p *core.Planner, m int) *PGMRES {
	if !p.IsSquare() {
		panic("solvers: PGMRES requires a square system")
	}
	if m < 1 {
		panic("solvers: PGMRES restart length must be positive")
	}
	s := &PGMRES{arnoldi: arnoldi{p: p, name: "pgmres", m: m}, u: p.AllocateWorkspace(core.RhsShape)}
	for i := 0; i <= m; i++ {
		s.basis = append(s.basis, p.AllocateWorkspace(core.RhsShape))
		s.z = append(s.z, p.AllocateWorkspace(core.RhsShape))
	}
	// A cycle begins as GMRES's does, plus z₀ = A·v₀.
	s.prologue = func() {
		s.begin()
		p.Matmul(s.z[0], s.basis[0])
	}
	s.restart()
	return s
}

// Name implements Solver.
func (s *PGMRES) Name() string { return "PGMRES" }

// Step implements Solver: one pipelined Arnoldi step.
func (s *PGMRES) Step() {
	p := s.p
	j := s.open()
	zj := s.z[j]

	// The step's single reduction: every Gram-Schmidt coefficient and the
	// Pythagoras norm operand, batched. The next SpMV launches right
	// behind it and overlaps the reduction tree.
	pairs := make([]core.DotPair, j+2)
	for i := 0; i <= j; i++ {
		pairs[i] = core.DotPair{V: zj, W: s.basis[i]}
	}
	pairs[j+1] = core.DotPair{V: zj, W: zj}
	dots := p.DotBatch(pairs...)
	p.Matmul(s.u, zj)

	col := make([]*core.Scalar, j+2)
	copy(col, dots[:j+1])
	col[j+1] = p.ScalarExpr("pgmres.pythag", func(v []float64) float64 {
		t := v[0]
		for _, a := range v[1:] {
			t -= a * a
		}
		return math.Sqrt(math.Max(t, 0))
	}, append([]*core.Scalar{dots[j+1]}, dots[:j+1]...)...)
	if s.push(col) {
		return
	}

	// v_{j+1} = (z_j − Σ h_{ij} v_i)/h_{j+1,j} and the companion
	// recurrence z_{j+1} = (u − Σ h_{ij} z_i)/h_{j+1,j}, one fused sweep.
	v, z := s.basis[j+1], s.z[j+1]
	ups := make([]core.VecUpdate, 0, 2*(j+1)+4)
	ups = append(ups,
		core.VecUpdate{Kind: core.UpdCopy, Dst: v, Src: zj},
		core.VecUpdate{Kind: core.UpdCopy, Dst: z, Src: s.u})
	for i := 0; i <= j; i++ {
		ups = append(ups,
			core.VecUpdate{Kind: core.UpdAxpy, Dst: v, Alpha: col[i], Neg: true, Src: s.basis[i]},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: z, Alpha: col[i], Neg: true, Src: s.z[i]},
		)
	}
	inv := p.Div(p.Constant(1), col[j+1])
	ups = append(ups,
		core.VecUpdate{Kind: core.UpdScal, Dst: v, Alpha: inv},
		core.VecUpdate{Kind: core.UpdScal, Dst: z, Alpha: inv})
	p.FusedUpdate(ups...)
	s.endStep()
}
