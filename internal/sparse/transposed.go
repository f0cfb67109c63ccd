package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// transposed presents a stored encoding of Aᵀ as the matrix A. A format
// is a pair of relations K → R and K → D over one entry collection
// (Section 3), so transposing it exchanges the pair and nothing else:
// the view's row relation is m's column relation, its domain m's range,
// its forward range kernel m's adjoint one. The column-major formats of
// Figure 3 are exactly such views of their row-major twins — CSC of a
// CSR (rowptr: R → [K, K] read as colptr: D → [K, K], col: K → D as
// row: K → R), ELL′ of an ELL (the implicit π1 onto rows read as π1 onto
// columns), BCSC of a BCSR (block-row pointer as block-column pointer) —
// so they own no arrays, constructor or kernels of their own.
type transposed struct {
	m    Matrix // the stored encoding of Aᵀ
	name string // the format A is thereby stored in
}

// Domain implements Matrix.
func (t transposed) Domain() index.Space { return t.m.Range() }

// Range implements Matrix.
func (t transposed) Range() index.Space { return t.m.Domain() }

// Kernel implements Matrix.
func (t transposed) Kernel() index.Space { return t.m.Kernel() }

// RowRelation implements Matrix.
func (t transposed) RowRelation() dpart.Relation { return t.m.ColRelation() }

// ColRelation implements Matrix.
func (t transposed) ColRelation() dpart.Relation { return t.m.RowRelation() }

// NNZ implements Matrix.
func (t transposed) NNZ() int64 { return t.m.NNZ() }

// Format implements Matrix.
func (t transposed) Format() string { return t.name }

// MultiplyAddPart implements Matrix.
func (t transposed) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	t.m.MultiplyAddTPart(y, x, kset)
}

// MultiplyAddTPart implements Matrix.
func (t transposed) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	t.m.MultiplyAddPart(y, x, kset)
}
