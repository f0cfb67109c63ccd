package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// COO stores a matrix as parallel coordinate arrays: entry k sits at
// (rowIdx[k], colIdx[k]) with value vals[k]. It has no structural
// assumptions; both relations are explicit function arrays.
type COO struct {
	rows, cols int64
	rowIdx     []int64
	colIdx     []int64
	vals       []float64

	rowRel, colRel *dpart.FnRelation
}

// NewCOO wraps the given coordinate arrays (retained, not copied) as a
// rows × cols matrix. The three slices must have equal length; indices
// must be in range.
func NewCOO(rows, cols int64, rowIdx, colIdx []int64, vals []float64) *COO {
	if len(rowIdx) != len(vals) || len(colIdx) != len(vals) {
		panic("sparse: COO arrays must have equal length")
	}
	return &COO{
		rows: rows, cols: cols,
		rowIdx: rowIdx, colIdx: colIdx, vals: vals,
		rowRel: dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", rows)),
		colRel: dpart.NewFnRelation("K", colIdx, index.NewSpace("D", cols)),
	}
}

// COOFromCoords assembles a COO matrix from explicit coordinates.
func COOFromCoords(rows, cols int64, coords []Coord) *COO {
	ri := make([]int64, len(coords))
	ci := make([]int64, len(coords))
	vs := make([]float64, len(coords))
	for k, c := range coords {
		ri[k], ci[k], vs[k] = c.Row, c.Col, c.Val
	}
	return NewCOO(rows, cols, ri, ci, vs)
}

// Domain implements Matrix.
func (a *COO) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *COO) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *COO) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// RowRelation implements Matrix.
func (a *COO) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *COO) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *COO) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *COO) Format() string { return "COO" }

// MultiplyAddPart implements Matrix.
func (a *COO) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for _, iv := range kset.Intervals() {
		a.mulRange(y, x, iv.Lo, iv.Hi)
	}
}

// MultiplyAddTPart implements Matrix.
func (a *COO) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for _, iv := range kset.Intervals() {
		a.mulRangeT(y, x, iv.Lo, iv.Hi)
	}
}

// mulRange is the forward kernel over the kernel interval [lo, hi].
func (a *COO) mulRange(y, x []float64, lo, hi int64) {
	for k := lo; k <= hi; k++ {
		y[a.rowIdx[k]] += a.vals[k] * x[a.colIdx[k]]
	}
}

// mulRangeT is the adjoint kernel over the kernel interval [lo, hi].
func (a *COO) mulRangeT(y, x []float64, lo, hi int64) {
	for k := lo; k <= hi; k++ {
		y[a.colIdx[k]] += a.vals[k] * x[a.rowIdx[k]]
	}
}
