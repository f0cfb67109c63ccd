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
	gather(y, x, a.rowptr, a.colIdx, a.vals, kset)
}

// MultiplyAddTPart implements Matrix.
func (a *CSR) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	scatter(y, x, a.rowptr, a.colIdx, a.vals, kset)
}

// CSR's two range kernels run over a kernel set. ptr splits K into
// segments (rows) and idx holds the other coordinate: the forward product
// gathers through idx into the segment's output, the adjoint scatters the
// segment's input through idx. CSC is the transposed view of a CSR
// (transposed.go), so it runs the same two kernels with the directions
// exchanged. A kernel set's intervals are sorted and disjoint, so the
// owning segment only moves forward across the whole set: one binary
// search per kernel set suffices, and the cursor walks from interval to
// interval past whatever rows lie between (empty ones included, by
// ptr[s+1] <= lo). That matters for the adjoint: its kernel sets are
// preimages along the column relation, one interval per row a piece's
// columns meet, hundreds per piece of a row-major matrix.

// segOf returns the segment owning kernel position k: the first one
// whose end lies beyond k.
func segOf(ptr []int64, k int64) int64 {
	return int64(sort.Search(len(ptr)-1, func(s int) bool { return ptr[s+1] > k }))
}

// gather adds Σ vals[k]·x[idx[k]] into y[s] for every segment s meeting
// an interval of kset, one sum per (segment, interval).
func gather(y, x []float64, ptr, idx []int64, vals []float64, kset index.IntervalSet) {
	ivs := kset.Intervals()
	if len(ivs) == 0 {
		return
	}
	s := segOf(ptr, ivs[0].Lo)
	for _, iv := range ivs {
		for ptr[s+1] <= iv.Lo {
			s++
		}
		s = gatherRange(y, x, ptr, idx, vals, s, iv.Lo, iv.Hi)
	}
}

// gatherRange is gather over one interval [lo, hi] whose first point
// segment s owns. It returns the segment owning hi, which may own the
// next interval's start too. An empty segment inside the interval is
// skipped, not written: it is outside the row image the task declares,
// and another task may be zeroing it.
func gatherRange(y, x []float64, ptr, idx []int64, vals []float64, s, lo, hi int64) int64 {
	for k := lo; k <= hi; s++ {
		end := min(ptr[s+1], hi+1)
		if k == end {
			continue
		}
		var sum float64
		for ; k < end; k++ {
			sum += vals[k] * x[idx[k]]
		}
		y[s] += sum
	}
	return s - 1
}

// scatter adds vals[k]·x[s] into y[idx[k]] for every kernel point k of
// kset, s the segment owning k.
func scatter(y, x []float64, ptr, idx []int64, vals []float64, kset index.IntervalSet) {
	ivs := kset.Intervals()
	if len(ivs) == 0 {
		return
	}
	s := segOf(ptr, ivs[0].Lo)
	for _, iv := range ivs {
		for ptr[s+1] <= iv.Lo {
			s++
		}
		s = scatterRange(y, x, ptr, idx, vals, s, iv.Lo, iv.Hi)
	}
}

// scatterRange is scatter over one interval [lo, hi] whose first point
// segment s owns; it returns the segment owning hi.
func scatterRange(y, x []float64, ptr, idx []int64, vals []float64, s, lo, hi int64) int64 {
	for k := lo; k <= hi; s++ {
		end := min(ptr[s+1], hi+1)
		xs := x[s]
		for ; k < end; k++ {
			y[idx[k]] += vals[k] * xs
		}
	}
	return s - 1
}
