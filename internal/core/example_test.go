package core_test

import (
	"fmt"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// The Figure 5 workflow: describe a system, then drive the Figure 6
// operations directly.
func ExamplePlanner() {
	a := sparse.Laplacian1D(8)
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	b := make([]float64, 8)

	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", 8), 2))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", 8), 2))
	p.AddOperator(a, si, ri)
	p.Finalize()

	// y = A·x for the all-ones vector: interior rows sum to 0, boundary
	// rows to 1.
	y := p.AllocateWorkspace(core.RhsShape)
	p.Matmul(y, core.SOL)
	sum := p.Dot(y, core.SOL) // Σ (A·1) = 2 boundary rows
	fmt.Printf("1ᵀA1 = %g\n", sum.Value())
	p.Drain()
	// Output:
	// 1ᵀA1 = 2
}

// Multi-operator systems sum every operator on a component pair
// (equation 8); adding the same matrix twice doubles the product without
// duplicating storage.
func ExamplePlanner_AddOperator() {
	a := sparse.DiagonalCSR([]float64{1, 1, 1, 1})
	x := []float64{1, 2, 3, 4}
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(x, index.Partition{})
	ri := p.AddRHSVector(make([]float64, 4), index.Partition{})
	p.AddOperator(a, si, ri)
	p.AddOperator(a, si, ri) // aliased: same physical matrix
	p.Finalize()
	y := p.AllocateWorkspace(core.RhsShape)
	p.Matmul(y, core.SOL)
	p.Drain()
	fmt.Println(p.VecData(y, 0))
	// Output:
	// [2 4 6 8]
}

// Scalars are deferred futures backed by one-element regions: arithmetic
// on them launches tasks, and Value blocks only when asked.
func ExamplePlanner_Dot() {
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector([]float64{3, 4}, index.Partition{})
	ri := p.AddRHSVector([]float64{1, 1}, index.Partition{})
	p.AddOperator(sparse.DiagonalCSR([]float64{1, 1}), si, ri)
	p.Finalize()

	norm2 := p.Dot(core.SOL, core.SOL) // 9 + 16
	norm := p.Sqrt(norm2)              // deferred sqrt
	half := p.Div(norm, p.Constant(2)) // deferred division
	fmt.Println(norm.Value(), half.Value())
	p.Drain()
	// Output:
	// 5 2.5
}
