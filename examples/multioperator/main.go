// Multioperator: the paper's P4 scenario — matrix and vector data that
// are not naturally co-located. Two halves of a Poisson problem are
// generated by different "subroutines" into separate, non-contiguous
// arrays and solved as one logical system with four operators, with no
// reindexing or reassembly. The answer is checked against the assembled
// single-operator solve.
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
	const nx, ny = 32, 16 // full grid: nx rows of ny points
	n := int64(nx * ny)
	half := n / 2
	full := sparse.Laplacian2D(nx, ny)

	// Two independent sources produce the two halves of the right-hand
	// side in their own arrays.
	b1 := make([]float64, half)
	b2 := make([]float64, half)
	for i := int64(0); i < half; i++ {
		b1[i] = math.Sin(float64(i) / 7)
		b2[i] = math.Cos(float64(i) / 5)
	}

	// Reference: assemble everything contiguously (what traditional
	// libraries force the application to do) and solve.
	bFull := append(append([]float64{}, b1...), b2...)
	xFull := make([]float64, n)
	ref := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := ref.AddSolVector(xFull, index.EqualPartition(index.NewSpace("D", n), 4))
	ri := ref.AddRHSVector(append([]float64{}, bFull...), index.EqualPartition(index.NewSpace("R", n), 4))
	ref.AddOperator(full, si, ri)
	ref.Finalize()
	refRes := solvers.Solve(ref, solvers.NewCG(ref), 1e-11, 2000)
	ref.Drain()

	// Multi-operator formulation: split the matrix into the four blocks
	// relating the two halves. The self blocks are ordinary stencils; the
	// coupling blocks hold the rows crossing the split.
	var blocks [2][2][]sparse.Coord
	for _, c := range sparse.CoordsFromCSR(full) {
		bi, bj := c.Row/half, c.Col/half
		blocks[bi][bj] = append(blocks[bi][bj],
			sparse.Coord{Row: c.Row % half, Col: c.Col % half, Val: c.Val})
	}

	x1 := make([]float64, half)
	x2 := make([]float64, half)
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	d1 := p.AddSolVector(x1, index.EqualPartition(index.NewSpace("D1", half), 2))
	d2 := p.AddSolVector(x2, index.EqualPartition(index.NewSpace("D2", half), 2))
	r1 := p.AddRHSVector(b1, index.EqualPartition(index.NewSpace("R1", half), 2))
	r2 := p.AddRHSVector(b2, index.EqualPartition(index.NewSpace("R2", half), 2))
	sols, rhss := []int{d1, d2}, []int{r1, r2}
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			p.AddOperator(sparse.CSRFromCoords(half, half, blocks[bi][bj]), sols[bj], rhss[bi])
		}
	}
	p.Finalize()
	res := solvers.Solve(p, solvers.NewCG(p), 1e-11, 2000)
	p.Drain()

	var maxDiff float64
	for i := int64(0); i < half; i++ {
		if d := math.Abs(x1[i] - xFull[i]); d > maxDiff {
			maxDiff = d
		}
		if d := math.Abs(x2[i] - xFull[half+i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("assembled solve:      %d iterations, residual %.3g\n", refRes.Iterations, refRes.Residual)
	fmt.Printf("multi-operator solve: %d iterations, residual %.3g\n", res.Iterations, res.Residual)
	fmt.Printf("max difference between formulations: %.3g\n", maxDiff)
	if !res.Converged || maxDiff > 1e-7 {
		panic("multioperator: formulations disagree")
	}
	fmt.Println("ok: non-contiguous data solved in place, no reassembly")
}
