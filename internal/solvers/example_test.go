package solvers_test

import (
	"fmt"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// The Figure 7 pattern: a solver is constructed from a planner and
// stepped until the convergence measure passes a threshold. Every solver
// here shares that interface, so they are drop-in replacements.
func ExampleSolve() {
	a := sparse.Laplacian1D(16)
	b := make([]float64, 16)
	for i := range b {
		b[i] = 1
	}
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(make([]float64, 16), index.EqualPartition(index.NewSpace("D", 16), 2))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", 16), 2))
	p.AddOperator(a, si, ri)
	p.Finalize()

	res := solvers.Solve(solvers.NewCG(p), 1e-10, 100)
	p.Drain()
	fmt.Println("converged:", res.Converged)
	// The exact solution of the 1D Poisson problem with b = 1 is the
	// parabola x_i = (i+1)(n-i)/2; spot-check the midpoint.
	fmt.Printf("x[7] = %.6f (exact %.1f)\n", p.VecData(core.SOL, 0)[7], 8.0*9.0/2.0)
	// Output:
	// converged: true
	// x[7] = 36.000000 (exact 36.0)
}

// Solvers are interchangeable by name, as the paper's "libraries of
// interchangeable KSMs" framing requires.
func ExampleNew() {
	for _, name := range []string{"cg", "bicgstab", "gmres"} {
		a := sparse.Laplacian1D(12)
		b := make([]float64, 12)
		b[5] = 1
		p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
		si := p.AddSolVector(make([]float64, 12), index.Partition{})
		ri := p.AddRHSVector(b, index.Partition{})
		p.AddOperator(a, si, ri)
		p.Finalize()
		s := solvers.New(name, p)
		res := solvers.Solve(s, 1e-9, 200)
		p.Drain()
		fmt.Printf("%s converged: %v\n", s.Name(), res.Converged)
	}
	// Output:
	// CG converged: true
	// BiCGStab converged: true
	// GMRES converged: true
}
