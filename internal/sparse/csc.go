package sparse

import (
	"sort"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// CSC stores a matrix in compressed sparse column form: the kernel space
// is totally ordered by column, colptr: D → [K, K] gives each column's
// contiguous kernel interval (a SegmentRelation), and row: K → R is
// explicit.
type CSC struct {
	rows, cols int64
	colptr     []int64
	rowIdx     []int64
	vals       []float64

	rowRel *dpart.FnRelation
	colRel *dpart.SegmentRelation
}

// NewCSC wraps the given arrays (retained, not copied) as a rows × cols
// matrix. len(colptr) must be cols+1 with colptr[cols] == len(vals).
func NewCSC(rows, cols int64, colptr, rowIdx []int64, vals []float64) *CSC {
	if int64(len(colptr)) != cols+1 {
		panic("sparse: CSC colptr must have cols+1 entries")
	}
	if len(rowIdx) != len(vals) || colptr[cols] != int64(len(vals)) {
		panic("sparse: CSC arrays inconsistent")
	}
	return &CSC{
		rows: rows, cols: cols,
		colptr: colptr, rowIdx: rowIdx, vals: vals,
		rowRel: dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", rows)),
		colRel: dpart.NewSegmentRelation("K", colptr, "D"),
	}
}

// CSCFromCoords assembles a CSC matrix from explicit coordinates,
// sorting by (col, row) and summing duplicates.
func CSCFromCoords(rows, cols int64, coords []Coord) *CSC {
	cs := make([]Coord, len(coords))
	copy(cs, coords)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Col != cs[j].Col {
			return cs[i].Col < cs[j].Col
		}
		return cs[i].Row < cs[j].Row
	})
	colptr := make([]int64, cols+1)
	rowIdx := make([]int64, 0, len(cs))
	vals := make([]float64, 0, len(cs))
	for idx := 0; idx < len(cs); {
		r, c, v := cs[idx].Row, cs[idx].Col, cs[idx].Val
		for idx++; idx < len(cs) && cs[idx].Row == r && cs[idx].Col == c; idx++ {
			v += cs[idx].Val
		}
		rowIdx = append(rowIdx, r)
		vals = append(vals, v)
		colptr[c+1]++
	}
	for j := int64(0); j < cols; j++ {
		colptr[j+1] += colptr[j]
	}
	return NewCSC(rows, cols, colptr, rowIdx, vals)
}

// Domain implements Matrix.
func (a *CSC) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *CSC) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *CSC) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// RowRelation implements Matrix.
func (a *CSC) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *CSC) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *CSC) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *CSC) Format() string { return "CSC" }

// MultiplyAddPart implements Matrix. CSC is CSR of the transpose, so its
// forward product is the compressed formats' scatter kernel and its
// adjoint the gather kernel (csr.go).
func (a *CSC) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for _, iv := range kset.Intervals() {
		scatterRange(y, x, a.colptr, a.rowIdx, a.vals, iv.Lo, iv.Hi)
	}
}

// MultiplyAddTPart implements Matrix.
func (a *CSC) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for _, iv := range kset.Intervals() {
		gatherRange(y, x, a.colptr, a.rowIdx, a.vals, iv.Lo, iv.Hi)
	}
}
