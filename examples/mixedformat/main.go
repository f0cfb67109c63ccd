// Mixedformat: the paper's Section 7 closing observation — "multi-operator
// systems allow KDRSolvers to process pieces of a matrix stored in
// multiple formats within a single linear system". Here one Poisson
// operator is split by local structure: the regular stencil interior runs
// matrix-free (zero storage), while an irregular "defect" correction —
// a few strengthened couplings a real application might get from local
// mesh refinement — is stored in COO. One CG solve consumes both.
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
	const nx, ny = 24, 24
	grid := index.NewGrid(nx, ny)
	n := grid.Size()

	// Component 1: the regular interior as a matrix-free stencil.
	stencil := sparse.NewStencilOperator(sparse.Stencil2D5, grid)

	// Component 2: a sparse defect — SPD-preserving diagonal
	// strengthening at a few "refined" cells, stored in COO.
	var defect []sparse.Coord
	for i := int64(0); i < n; i += 37 {
		defect = append(defect, sparse.Coord{Row: i, Col: i, Val: 1.5})
	}
	correction := sparse.COOFromCoords(n, n, defect)

	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) / 11)
	}
	x := make([]float64, n)

	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), 6))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), 6))
	p.AddOperator(stencil, si, ri)    // matrix-free
	p.AddOperator(correction, si, ri) // stored COO, same component pair
	p.Finalize()

	res := solvers.Solve(p, solvers.NewCG(p), 1e-10, 2000)
	p.Drain()

	// Verify against the explicitly assembled operator.
	assembled := sparse.Add(sparse.Laplacian2D(nx, ny),
		sparse.CSRFromCoords(n, n, defect))
	y := make([]float64, n)
	sparse.SpMV(assembled, y, x)
	var r2 float64
	for i := range y {
		d := y[i] - b[i]
		r2 += d * d
	}
	fmt.Printf("mixed-format CG: converged=%v in %d iterations\n", res.Converged, res.Iterations)
	fmt.Printf("formats in one operator: %s + %s\n", stencil.Format(), correction.Format())
	fmt.Printf("residual vs assembled reference: %.3g\n", math.Sqrt(r2))
	if !res.Converged || math.Sqrt(r2) > 1e-8 {
		panic("mixedformat: solve failed")
	}
	fmt.Println("ok: one logical matrix, two storage formats, zero reassembly")
}
