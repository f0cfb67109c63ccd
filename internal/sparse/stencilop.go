package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// StencilOperator is a matrix-free stencil Laplacian: it implements the
// Matrix interface without storing any entries, computing coefficients on
// the fly from the grid geometry. Its kernel space is DIA-shaped —
// K = nDiag × n with one block per stencil offset — and both relations
// are implicit, so the universal co-partitioning operators apply to it
// exactly as to stored formats.
//
// StencilOperator demonstrates the paper's P2 claim (user-defined and
// matrix-free operators need no library changes) and, because its memory
// footprint is O(1), lets virtual-mode benchmarks drive the simulator at
// the paper's full problem scale (up to 2^32 unknowns).
type StencilOperator struct {
	kind StencilKind
	grid index.Grid
	n    int64
	// offsets[b] is the linearized column-minus-row offset of diagonal b,
	// the table's offset b on this grid.
	offsets []int64

	rowRel *dpart.DiagRelation
	colRel *dpart.ModRelation
}

// NewStencilOperator builds a matrix-free operator for the given stencil
// on the given grid. The grid's rank must match the stencil's.
func NewStencilOperator(kind StencilKind, grid index.Grid) *StencilOperator {
	if grid.Rank() != kind.Rank() {
		panic("sparse: grid rank does not match stencil")
	}
	op := &StencilOperator{kind: kind, grid: grid, n: grid.Size(), offsets: linearOffsets(stencils[kind].offs, grid.Dims)}
	op.rowRel = dpart.NewDiagRelation("K", op.offsets, op.n, op.n, "R")
	op.colRel = dpart.NewModRelation("K", int64(len(op.offsets)), op.n, "D")
	return op
}

// Domain implements Matrix.
func (a *StencilOperator) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *StencilOperator) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *StencilOperator) Kernel() index.Space {
	return index.NewSpace("K", int64(len(a.offsets))*a.n)
}

// RowRelation implements Matrix.
func (a *StencilOperator) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *StencilOperator) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix. It counts kernel slots (including boundary
// padding), which is what the bandwidth cost model streams.
func (a *StencilOperator) NNZ() int64 { return int64(len(a.offsets)) * a.n }

// Format implements Matrix.
func (a *StencilOperator) Format() string { return "Stencil(" + a.kind.String() + ")" }

// Grid returns the underlying grid.
func (a *StencilOperator) Grid() index.Grid { return a.grid }

// MultiplyAddPart implements Matrix.
func (a *StencilOperator) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	a.mulIntervals(y, x, kset.Intervals(), false)
}

// MultiplyAddTPart implements Matrix: for each kernel slot in kset
// holding entry (i, j), it adds A[i,j]·x[i] into y[j].
func (a *StencilOperator) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	a.mulIntervals(y, x, kset.Intervals(), true)
}

// mulIntervals is the kernel over a set of kernel intervals, forward or
// adjoint, on the shared DIA-layout walk. Slot (b, j) holds the entry
// A[j − offsets[b], j] when the neighbor exists in the grid — every
// coordinate of j minus the stencil offset stays in range, no
// wrap-around — and is padding otherwise. The grid coordinates of j are
// divided out once per block and then counted up with carry.
func (a *StencilOperator) mulIntervals(y, x []float64, ivs []index.Interval, adjoint bool) {
	st, dims := &stencils[a.kind], a.grid.Dims
	var blk blockSegs
	walkDiagBlocks(ivs, a.offsets, a.n, a.n, adjoint, &blk, func() {
		for _, s := range blk.segs[:blk.n] {
			c := &st.offs[s.b]
			v := -1.0
			if a.offsets[s.b] == 0 {
				v = st.diag
			}
			var cd [3]int64
			rem := s.col + s.lo // column of the first slot
			for d := len(dims) - 1; d >= 0; d-- {
				cd[d] = rem % dims[d]
				rem /= dims[d]
			}
			for o := s.lo; o <= s.hi; o++ {
				if inGrid(&cd, c, dims, -1) {
					y[o] += v * x[o+s.shift]
				}
				nextPoint(&cd, dims)
			}
		}
	})
}
