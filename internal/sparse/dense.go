package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// Dense stores every entry of a rows × cols matrix in row-major order.
// In the KDR framing (Figure 3) its kernel space is the full product
// K = R × D and both relations are the implicit projections π1 (a
// DivRelation) and π2 (a ModRelation), so no relation metadata is stored.
type Dense struct {
	rows, cols int64
	vals       []float64 // row-major, len rows*cols

	rowRel *dpart.DivRelation
	colRel *dpart.ModRelation
}

// NewDense wraps row-major storage (retained, not copied) as a
// rows × cols matrix.
func NewDense(rows, cols int64, vals []float64) *Dense {
	if int64(len(vals)) != rows*cols {
		panic("sparse: Dense vals must have rows*cols entries")
	}
	return &Dense{
		rows: rows, cols: cols, vals: vals,
		rowRel: dpart.NewDivRelation("K", rows, cols, "R"),
		colRel: dpart.NewModRelation("K", rows, cols, "D"),
	}
}

// DenseFromMatrix materializes any matrix as Dense.
func DenseFromMatrix(a Matrix) *Dense {
	rows, cols := Dims(a)
	return NewDense(rows, cols, ToDense(a))
}

// Domain implements Matrix.
func (a *Dense) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *Dense) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *Dense) Kernel() index.Space { return index.NewSpace("K", a.rows*a.cols) }

// RowRelation implements Matrix.
func (a *Dense) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *Dense) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *Dense) NNZ() int64 { return a.rows * a.cols }

// Format implements Matrix.
func (a *Dense) Format() string { return "Dense" }

// At returns the entry at (i, j).
func (a *Dense) At(i, j int64) float64 { return a.vals[i*a.cols+j] }

// Set stores v at (i, j).
func (a *Dense) Set(i, j int64, v float64) { a.vals[i*a.cols+j] = v }

// MultiplyAddPart implements Matrix.
func (a *Dense) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for _, iv := range kset.Intervals() {
		a.mulRange(y, x, iv.Lo, iv.Hi)
	}
}

// MultiplyAddTPart implements Matrix.
func (a *Dense) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for _, iv := range kset.Intervals() {
		a.mulRangeT(y, x, iv.Lo, iv.Hi)
	}
}

// mulRange is the forward kernel over the kernel interval [lo, hi]:
// (row, column) is divided out once per interval, then each row's run
// accumulates into y[i] in column order.
func (a *Dense) mulRange(y, x []float64, lo, hi int64) {
	if lo > hi {
		return
	}
	i := lo / a.cols
	j := lo - i*a.cols
	for k := lo; k <= hi; i, j = i+1, 0 {
		end := min((i+1)*a.cols, hi+1)
		row := a.vals[k:end]
		xs := x[j : j+int64(len(row))]
		s := y[i]
		for t, v := range row {
			s += v * xs[t]
		}
		y[i] = s
		k = end
	}
}

// mulRangeT is the adjoint kernel over the kernel interval [lo, hi].
func (a *Dense) mulRangeT(y, x []float64, lo, hi int64) {
	if lo > hi {
		return
	}
	i := lo / a.cols
	j := lo - i*a.cols
	for k := lo; k <= hi; i, j = i+1, 0 {
		end := min((i+1)*a.cols, hi+1)
		row := a.vals[k:end]
		ys := y[j : j+int64(len(row))]
		xi := x[i]
		for t, v := range row {
			ys[t] += v * xi
		}
		k = end
	}
}
