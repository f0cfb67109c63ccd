package sparse

import (
	"sort"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// CSR stores a matrix in compressed sparse row form: the kernel space is
// totally ordered by row, rowptr: R → [K, K] gives each row's contiguous
// kernel interval (a SegmentRelation), and col: K → D is explicit.
type CSR struct {
	rows, cols int64
	rowptr     []int64
	colIdx     []int64
	vals       []float64

	rowRel *dpart.SegmentRelation
	colRel *dpart.FnRelation
}

// NewCSR wraps the given arrays (retained, not copied) as a rows × cols
// matrix. len(rowptr) must be rows+1 with rowptr[rows] == len(vals);
// column indices within each row need not be sorted.
func NewCSR(rows, cols int64, rowptr, colIdx []int64, vals []float64) *CSR {
	if int64(len(rowptr)) != rows+1 {
		panic("sparse: CSR rowptr must have rows+1 entries")
	}
	if len(colIdx) != len(vals) || rowptr[rows] != int64(len(vals)) {
		panic("sparse: CSR arrays inconsistent")
	}
	return &CSR{
		rows: rows, cols: cols,
		rowptr: rowptr, colIdx: colIdx, vals: vals,
		rowRel: dpart.NewSegmentRelation("K", rowptr, "R"),
		colRel: dpart.NewFnRelation("K", colIdx, index.NewSpace("D", cols)),
	}
}

// CSRFromCoords assembles a CSR matrix from explicit coordinates,
// sorting by (row, col) and summing duplicates.
func CSRFromCoords(rows, cols int64, coords []Coord) *CSR {
	cs := make([]Coord, len(coords))
	copy(cs, coords)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Row != cs[j].Row {
			return cs[i].Row < cs[j].Row
		}
		return cs[i].Col < cs[j].Col
	})
	rowptr := make([]int64, rows+1)
	colIdx := make([]int64, 0, len(cs))
	vals := make([]float64, 0, len(cs))
	for idx := 0; idx < len(cs); {
		r, c, v := cs[idx].Row, cs[idx].Col, cs[idx].Val
		for idx++; idx < len(cs) && cs[idx].Row == r && cs[idx].Col == c; idx++ {
			v += cs[idx].Val
		}
		colIdx = append(colIdx, c)
		vals = append(vals, v)
		rowptr[r+1]++
	}
	for i := int64(0); i < rows; i++ {
		rowptr[i+1] += rowptr[i]
	}
	return NewCSR(rows, cols, rowptr, colIdx, vals)
}

// Domain implements Matrix.
func (a *CSR) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *CSR) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *CSR) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// RowRelation implements Matrix.
func (a *CSR) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *CSR) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *CSR) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *CSR) Format() string { return "CSR" }

// RowPtr returns the row pointer array (not to be modified).
func (a *CSR) RowPtr() []int64 { return a.rowptr }

// ColIdx returns the column index array (not to be modified).
func (a *CSR) ColIdx() []int64 { return a.colIdx }

// Vals returns the value array (not to be modified).
func (a *CSR) Vals() []float64 { return a.vals }

// MultiplyAddPart implements Matrix.
func (a *CSR) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for _, iv := range kset.Intervals() {
		gatherRange(y, x, a.rowptr, a.colIdx, a.vals, iv.Lo, iv.Hi)
	}
}

// MultiplyAddTPart implements Matrix.
func (a *CSR) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for _, iv := range kset.Intervals() {
		scatterRange(y, x, a.rowptr, a.colIdx, a.vals, iv.Lo, iv.Hi)
	}
}

// CSR's two range kernels run over a kernel interval [lo, hi]. ptr
// splits K into segments (rows) and idx holds the other coordinate: the
// forward product gathers through idx into the segment's output, the
// adjoint scatters the segment's input through idx. CSC is the
// transposed view of a CSR (transposed.go), so it runs the same two
// kernels with the directions exchanged. Within an interval the segment
// advances monotonically, so one binary search per interval suffices.

// segOf returns the segment owning kernel position k: the first one
// whose end lies beyond k.
func segOf(ptr []int64, k int64) int64 {
	return int64(sort.Search(len(ptr)-1, func(s int) bool { return ptr[s+1] > k }))
}

// gatherRange adds Σ vals[k]·x[idx[k]] into y[s] for every segment s
// meeting [lo, hi].
func gatherRange(y, x []float64, ptr, idx []int64, vals []float64, lo, hi int64) {
	if lo > hi {
		return
	}
	s := segOf(ptr, lo)
	for k := lo; k <= hi; s++ {
		end := min(ptr[s+1], hi+1)
		var sum float64
		for ; k < end; k++ {
			sum += vals[k] * x[idx[k]]
		}
		y[s] += sum
	}
}

// scatterRange adds vals[k]·x[s] into y[idx[k]] for every kernel point k
// in [lo, hi], s the segment owning k.
func scatterRange(y, x []float64, ptr, idx []int64, vals []float64, lo, hi int64) {
	if lo > hi {
		return
	}
	s := segOf(ptr, lo)
	for k := lo; k <= hi; s++ {
		end := min(ptr[s+1], hi+1)
		xs := x[s]
		for ; k < end; k++ {
			y[idx[k]] += vals[k] * xs
		}
	}
}
