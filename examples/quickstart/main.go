// Quickstart: assemble a 2D Poisson problem, hand the vectors to the
// planner in place, and solve it with CG — the paper's Figure 7 workflow.
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

func main() {
	// Poisson's equation -Δu = f on a 64 x 64 interior grid with
	// homogeneous Dirichlet boundaries, discretized by the 5-point
	// stencil. We manufacture the solution u(x,y) = sin(πx)sin(πy) and
	// build the matching right-hand side.
	const nx, ny = 64, 64
	n := int64(nx * ny)
	a := sparse.Laplacian2D(nx, ny)

	h := 1.0 / float64(nx+1)
	b := make([]float64, n)
	exact := make([]float64, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			u := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			exact[i*ny+j] = u
			// -Δu = 2π² u; scale by h² for the unit-coefficient stencil.
			b[i*ny+j] = 2 * math.Pi * math.Pi * u * h * h
		}
	}

	// Set up the planner: the solution and right-hand-side vectors are
	// adopted in place (no copies into library data structures), each
	// split into 8 pieces distributed over a simulated 2-node machine.
	x := make([]float64, n)
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), 8))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), 8))
	p.AddOperator(a, si, ri)
	p.Finalize()

	// Solve with CG to a tight tolerance.
	res := solvers.Solve(p, solvers.NewCG(p), 1e-10, 1000)
	p.Drain()

	var maxErr float64
	for i := range x {
		if e := math.Abs(x[i] - exact[i]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("CG converged=%v in %d iterations, residual %.3g\n",
		res.Converged, res.Iterations, res.Residual)
	fmt.Printf("max error vs manufactured solution: %.3g (discretization error O(h²) = %.3g)\n",
		maxErr, h*h)
	if !res.Converged || maxErr > 4*h*h {
		panic("quickstart: solve failed")
	}
	fmt.Println("ok")
}
