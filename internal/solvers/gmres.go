package solvers

import "kdrsolvers/internal/core"

// GMRES is the generalized minimal residual method of Saad and Schultz
// with a static restart schedule GMRES(m) — the paper benchmarks m = 10,
// matching Trilinos' static policy (PETSc's dynamic restart is why it is
// excluded from the paper's GMRES comparison).
//
// Each Step produces one Krylov basis vector via modified Gram-Schmidt
// with deferred scalar coefficients; the restart cycle around the steps
// is arnoldi's.
type GMRES struct {
	arnoldi
	w core.VecID
}

// NewGMRES builds a GMRES solver with restart length m on a finalized
// square system.
func NewGMRES(p *core.Planner, m int) *GMRES {
	if !p.IsSquare() {
		panic("solvers: GMRES requires a square system")
	}
	if m < 1 {
		panic("solvers: GMRES restart length must be positive")
	}
	s := &GMRES{arnoldi: arnoldi{p: p, name: "gmres", m: m}, w: p.AllocateWorkspace(core.RhsShape)}
	for i := 0; i <= m; i++ {
		s.basis = append(s.basis, p.AllocateWorkspace(core.RhsShape))
	}
	s.prologue = s.begin
	s.restart()
	return s
}

// Name implements Solver.
func (s *GMRES) Name() string { return "GMRES" }

// Step implements Solver: one Arnoldi step, w = A v_j orthogonalized
// against v₀ … v_j; every m-th step also ends the cycle. The product
// carries the first Gram-Schmidt coefficient, w·v₀.
func (s *GMRES) Step() {
	j := s.open()
	h0 := s.p.Matmul(s.w, s.basis[j], core.DotPair{V: s.w, W: s.basis[0]})[0]
	s.mgsStep(s.w, h0)
}
