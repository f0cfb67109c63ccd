package solvers

import (
	"math"

	"kdrsolvers/internal/core"
)

// arnoldi is the restart cycle GMRES, PGMRES and GCRO-DR share: one
// Arnoldi process building an orthonormal basis v₀ … v_m and the
// (m+1) × m Hessenberg matrix of the operator on it, whose small
// least-squares problem min‖βe₁ − H y‖ is solved host-side with Givens
// rotations at the end of the cycle (the methods' only blocking point)
// and applied as x += V y. A method embeds it and supplies what differs:
// how a step produces its Hessenberg column and next basis vector, and
// what its cycle prologue does around recomputing the residual.
//
// The whole cycle (m steps + least-squares update + restart) is traced
// as one instance: per-step scopes would never replay because each
// Arnoldi step has a different Gram-Schmidt depth.
type arnoldi struct {
	p     *core.Planner
	name  string       // phase and trace-scope prefix: "gmres", …
	m     int          // restart length
	basis []core.VecID // v₀ … v_m
	h     [][]*core.Scalar
	beta  *core.Scalar // ‖r₀‖ at cycle start
	j     int          // next column within the cycle
	res   *core.Scalar
	// ls maintains the incremental Givens least-squares estimate of the
	// cycle residual on real planners, so the convergence measure tracks
	// progress every step instead of freezing at the restart value. The
	// estimate is a recurrence and can drift from the true residual across
	// an ill-conditioned cycle; the driver settles the cycle and
	// recomputes r = b − Ax before convergence is believed.
	ls *givensLS
	tr bool // a per-cycle trace scope is open

	// prologue begins a cycle: it leaves the cycle's initial residual in
	// basis[0] and calls normalize.
	prologue func()
	// finish, when set, runs after x += V y with the cycle's Hessenberg
	// columns and least-squares solution, before the next prologue.
	finish func(h [][]float64, y []float64)
}

// restart implements restarter: it discards the open cycle, if any, and
// closes its trace scope — x owes the cycle nothing, since the driver
// settles a cycle before it verifies a claim and a rollback replaces x —
// then runs the cycle prologue.
func (s *arnoldi) restart() {
	s.p.TraceEnd(s.tr)
	s.tr = false
	s.prologue()
}

// begin is the plain cycle prologue: the cycle starts from the
// recomputed true residual r = b − Ax, so a cycle boundary never
// inherits estimate drift.
func (s *arnoldi) begin() {
	s.p.BeginPhase(s.name + ".restart")
	residualInit(s.p, s.basis[0])
	s.normalize()
}

// normalize starts a cycle from the residual r in basis[0]: v₀ = r/β
// with β = ‖r‖, the convergence measure reset to the honest ‖r‖².
func (s *arnoldi) normalize() {
	p, r := s.p, s.basis[0]
	rr := p.Dot(r, r)
	s.res = rr
	s.beta = p.Sqrt(rr)
	p.Scal(r, p.Div(p.Constant(1), s.beta))
	s.h = make([][]*core.Scalar, 0, s.m)
	s.j = 0
	s.ls = nil
}

// ConvergenceMeasure implements Solver: the squared Givens residual
// estimate, updated every step (true residual at cycle boundaries).
func (s *arnoldi) ConvergenceMeasure() *core.Scalar { return s.res }

// open begins Arnoldi step j — opening the cycle's trace scope at
// j = 0 — and returns j.
func (s *arnoldi) open() int {
	s.p.BeginPhase(s.name + ".arnoldi")
	if s.j == 0 {
		s.tr = s.p.TraceBegin(s.name + ".cycle")
	}
	return s.j
}

// push records column j of the Hessenberg matrix (h₀ⱼ … h_{j+1,j}). It
// reports true when the cycle ended on the spot by happy breakdown, so
// the step must not go on to normalize v_{j+1}.
func (s *arnoldi) push(col []*core.Scalar) bool {
	s.h = append(s.h, col)
	s.j++
	// The checks below read the column (a per-step synchronization), so
	// they are skipped on virtual planners, where every future resolves
	// to zero and would trigger the breakdown spuriously.
	if s.p.Virtual() {
		return false
	}
	beta := s.beta.Value()
	vals := make([]float64, len(col))
	for i, sc := range col {
		vals[i] = sc.Value()
	}
	// Happy breakdown: h_{j+1,j} vanished, so the Krylov space is
	// invariant and the cycle's least-squares solution is exact.
	// Normalizing would divide by zero and poison the basis with NaNs;
	// instead solve the cycle with the columns built so far and restart.
	// A short cycle closes its scope too; the runtime records it as a
	// miss and re-records the template.
	if vals[len(vals)-1] <= 1e-14*(1+math.Abs(beta)) {
		s.close()
		return true
	}
	// Fold the new column into the Givens recurrence: |g_{j+1}| is the
	// cycle's least-squares residual, the per-step convergence measure.
	if s.ls == nil {
		s.ls = newGivensLS(beta, s.m)
	}
	est := s.ls.push(vals)
	s.res = s.p.Constant(est * est)
	return false
}

// mgsStep finishes Arnoldi step j for the methods that orthogonalize
// sequentially: w, holding A·v_j, goes through modified Gram-Schmidt
// against v₀ … v_j with deferred scalar coefficients, and what is left
// of it, normalized, becomes v_{j+1}. h0, when not nil, is w·v₀ as the
// product that wrote w computed it.
func (s *arnoldi) mgsStep(w core.VecID, h0 *core.Scalar) {
	p, j := s.p, s.j
	col := make([]*core.Scalar, j+2)
	for i := 0; i <= j; i++ {
		if i == 0 && h0 != nil {
			col[i] = h0
		} else {
			col[i] = p.Dot(w, s.basis[i])
		}
		p.Axpy(w, p.Neg(col[i]), s.basis[i])
	}
	col[j+1] = p.Sqrt(p.Dot(w, w))
	if s.push(col) {
		return
	}
	p.Copy(s.basis[j+1], w)
	p.Scal(s.basis[j+1], p.Div(p.Constant(1), col[j+1]))
	s.endStep()
}

// endStep closes the cycle once it holds m columns.
func (s *arnoldi) endStep() {
	if s.j == s.m {
		s.close()
	}
}

// close ends the cycle with the columns built so far: it pulls the
// Hessenberg entries and β (synchronizes), solves min‖βe₁ − H y‖ by
// Givens rotations, applies x += V y, runs the method's finish and
// prologue, and closes the cycle's trace scope.
func (s *arnoldi) close() {
	p := s.p
	p.BeginPhase(s.name + ".update")
	h := make([][]float64, s.j)
	for j := range h {
		h[j] = make([]float64, j+2)
		for i, sc := range s.h[j] {
			h[j][i] = sc.Value()
		}
	}
	y, _ := solveHessenberg(h, s.beta.Value())
	// x += Σ y_j v_j. Zero coefficients still launch so that real and
	// virtual planners record identical graphs.
	for j, yj := range y {
		if !math.IsNaN(yj) {
			p.AxpyConst(core.SOL, yj, s.basis[j])
		}
	}
	if s.finish != nil {
		s.finish(h, y)
	}
	s.prologue()
	p.TraceEnd(s.tr)
	s.tr = false
}

// settle implements settler: the per-step Givens estimate is a
// recurrence over rounded Hessenberg entries and can claim convergence
// while x still holds the last restart's iterate. Closing the open cycle
// applies x += V y and restarts from the recomputed residual.
func (s *arnoldi) settle() {
	if s.midCycle() {
		s.close()
	}
}

// midCycle reports whether the measure includes the open cycle's
// update, which x does not hold until the cycle closes.
func (s *arnoldi) midCycle() bool { return s.j > 0 }
