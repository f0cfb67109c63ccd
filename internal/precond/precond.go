// Package precond constructs preconditioners for KDRSolvers systems.
//
// The planner's PSolve operation is a multi-operator multiply, so a
// preconditioner must be applied as a sparse matrix-vector product.
// Jacobi, P = diag(A)⁻¹, is the one implemented; the paper's Section 7
// lists extending classical preconditioning algorithms to multi-operator
// systems as future work.
package precond

import (
	"kdrsolvers/internal/sparse"
)

// Jacobi returns the Jacobi preconditioner diag(A)⁻¹ in CSR form. Zero
// diagonal entries map to zero (the row is left unpreconditioned).
func Jacobi(a sparse.Matrix) *sparse.CSR {
	d := sparse.Diagonal(a)
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	return sparse.DiagonalCSR(inv)
}
