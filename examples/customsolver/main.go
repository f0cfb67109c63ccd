// Customsolver: the paper's Section 5 promise that "LegionSolvers also
// exposes all necessary facilities for users to implement their own
// solvers". A steepest-descent solver is written here, in application
// code, against nothing but the planner's Figure 6 operations — the same
// ~20 lines of mathematics the paper's Figure 7 shows for CG. It plugs
// into the library's Solve driver unchanged, and the driver checks its
// every convergence claim against ‖b − Ax‖ without the solver doing
// anything for it.
package main

import (
	"fmt"
	"math"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// SteepestDescent minimizes ½xᵀAx − bᵀx along the residual direction:
// α = rᵀr / rᵀAr each step. It satisfies solvers.Solver, so the stock
// driver, convergence checks, and benchmarks all apply to it.
type SteepestDescent struct {
	p    *core.Planner
	r, q core.VecID
	res  *core.Scalar
}

// NewSteepestDescent builds the solver on a finalized square system —
// exactly the constructor shape of the library's own solvers.
func NewSteepestDescent(p *core.Planner) *SteepestDescent {
	if !p.IsSquare() {
		panic("steepest descent requires a square system")
	}
	s := &SteepestDescent{
		p: p,
		r: p.AllocateWorkspace(core.RhsShape),
		q: p.AllocateWorkspace(core.RhsShape),
	}
	// r = b − Ax.
	p.Matmul(s.r, core.SOL)
	p.Scal(s.r, p.Constant(-1))
	p.Axpy(s.r, p.Constant(1), core.RHS)
	s.res = p.Dot(s.r, s.r)
	return s
}

// Name implements solvers.Solver.
func (s *SteepestDescent) Name() string { return "SteepestDescent (user-defined)" }

// ConvergenceMeasure implements solvers.Solver.
func (s *SteepestDescent) ConvergenceMeasure() *core.Scalar { return s.res }

// Step implements solvers.Solver: q = Ar; α = rᵀr/rᵀq; x += αr; r −= αq.
// Every coefficient is a deferred scalar — the step never blocks.
func (s *SteepestDescent) Step() {
	p := s.p
	p.Matmul(s.q, s.r)
	alpha := p.Div(s.res, p.Dot(s.r, s.q))
	p.Axpy(core.SOL, alpha, s.r)
	p.Axpy(s.r, p.Neg(alpha), s.q)
	s.res = p.Dot(s.r, s.r)
}

func main() {
	const n = int64(64)
	a := sparse.Laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) / 9)
	}
	x := make([]float64, n)

	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), 4))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), 4))
	p.AddOperator(a, si, ri)
	p.Finalize()

	var s solvers.Solver = NewSteepestDescent(p) // drop-in: same interface
	res := solvers.Solve(p, s, 1e-5, 50000)
	p.Drain()

	// Verify the residual independently.
	y := make([]float64, n)
	sparse.SpMV(a, y, x)
	var r2 float64
	for i := range y {
		d := y[i] - b[i]
		r2 += d * d
	}
	fmt.Printf("%s: converged=%v in %d iterations, ‖Ax−b‖ = %.3g\n",
		s.Name(), res.Converged, res.Iterations, math.Sqrt(r2))
	if !res.Converged || math.Sqrt(r2) > 1e-4 {
		panic("customsolver: solve failed")
	}
	fmt.Println("ok: a user-defined solver through the stock driver")
}
