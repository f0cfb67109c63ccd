package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// ELL stores a matrix in ELLPACK form: the kernel space is the product
// K = R × [0, width) — every row owns exactly width slots — so the row
// relation is the implicit projection π1 (a DivRelation) and only the
// column indices are stored. Rows with fewer than width entries are
// padded with zero-valued slots whose column index repeats the row's last
// valid column (or 0 for empty rows); padding therefore never changes the
// product.
type ELL struct {
	rows, cols, width int64
	colIdx            []int64 // len rows*width, row-major
	vals              []float64

	rowRel *dpart.DivRelation
	colRel *dpart.FnRelation
}

// NewELL wraps row-major slot arrays (retained, not copied) of length
// rows*width as a rows × cols matrix.
func NewELL(rows, cols, width int64, colIdx []int64, vals []float64) *ELL {
	if int64(len(colIdx)) != rows*width || len(colIdx) != len(vals) {
		panic("sparse: ELL arrays must have rows*width entries")
	}
	return &ELL{
		rows: rows, cols: cols, width: width,
		colIdx: colIdx, vals: vals,
		rowRel: dpart.NewDivRelation("K", rows, width, "R"),
		colRel: dpart.NewFnRelation("K", colIdx, index.NewSpace("D", cols)),
	}
}

// ELLFromCSR converts a CSR matrix to ELL, sizing the width to the
// longest row.
func ELLFromCSR(a *CSR) *ELL {
	width := int64(1)
	for i := int64(0); i < a.rows; i++ {
		if w := a.rowptr[i+1] - a.rowptr[i]; w > width {
			width = w
		}
	}
	colIdx := make([]int64, a.rows*width)
	vals := make([]float64, a.rows*width)
	for i := int64(0); i < a.rows; i++ {
		var pad int64 // last valid column, for padding slots
		s := int64(0)
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			colIdx[i*width+s] = a.colIdx[k]
			vals[i*width+s] = a.vals[k]
			pad = a.colIdx[k]
			s++
		}
		for ; s < width; s++ {
			colIdx[i*width+s] = pad
		}
	}
	return NewELL(a.rows, a.cols, width, colIdx, vals)
}

// Domain implements Matrix.
func (a *ELL) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *ELL) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *ELL) Kernel() index.Space { return index.NewSpace("K", a.rows*a.width) }

// RowRelation implements Matrix.
func (a *ELL) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *ELL) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *ELL) NNZ() int64 { return a.rows * a.width }

// Format implements Matrix.
func (a *ELL) Format() string { return "ELL" }

// MultiplyAddPart implements Matrix.
func (a *ELL) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for _, iv := range kset.Intervals() {
		slotGatherRange(y, x, a.colIdx, a.vals, a.width, iv.Lo, iv.Hi)
	}
}

// MultiplyAddTPart implements Matrix.
func (a *ELL) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for _, iv := range kset.Intervals() {
		slotScatterRange(y, x, a.colIdx, a.vals, a.width, iv.Lo, iv.Hi)
	}
}

// ELL's two range kernels run over a kernel interval [lo, hi]: slot k
// belongs to row k / width and idx holds its column. The row is divided
// out once per interval and then advances every width slots. ELL′ is the
// transposed view of an ELL (transposed.go), so its forward product is
// the scatter kernel and its adjoint the gather kernel.

// slotGatherRange adds vals[k]·x[idx[k]] into y[line] for every slot k
// in [lo, hi], each line's slots accumulating in slot order.
func slotGatherRange(y, x []float64, idx []int64, vals []float64, width, lo, hi int64) {
	if lo > hi {
		return
	}
	line := lo / width
	for k := lo; k <= hi; line++ {
		end := min((line+1)*width, hi+1)
		s := y[line]
		for ; k < end; k++ {
			s += vals[k] * x[idx[k]]
		}
		y[line] = s
	}
}

// slotScatterRange adds vals[k]·x[line] into y[idx[k]] for every slot k
// in [lo, hi].
func slotScatterRange(y, x []float64, idx []int64, vals []float64, width, lo, hi int64) {
	if lo > hi {
		return
	}
	line := lo / width
	for k := lo; k <= hi; line++ {
		end := min((line+1)*width, hi+1)
		xl := x[line]
		for ; k < end; k++ {
			y[idx[k]] += vals[k] * xl
		}
	}
}
