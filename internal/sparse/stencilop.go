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
// matrix-free operators need no library changes). Because its memory
// footprint is O(1), it lets virtual-mode benchmarks drive the simulator
// at the paper's full problem scale (up to 2^32 unknowns), and it is what
// a served or one-shot job of a generated matrix ("lap2d:") runs under
// format auto: the kernel reads only the vectors, where a stored DIA
// streams one value per slot as well.
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
// A[j − offsets[b], j] when the neighbour exists in the grid — every
// coordinate of j minus the stencil offset stays in range, no
// wrap-around — and is padding otherwise.
//
// The kernel works one output line at a time, a line being the outputs
// that share every coordinate but the fastest. A segment's slower
// coordinates are tested once per line, and the segment is clipped to the
// run of the line whose neighbour lies in the grid: x+dx ∈ [0, nx)
// forward, where output x reads input x+dx, and x−dx ∈ [0, nx) adjoint.
// Every slot of a run then holds the diagonal's one coefficient, so a
// run is a constant-coefficient loop that loads no values at all.
func (a *StencilOperator) mulIntervals(y, x []float64, ivs []index.Interval, adjoint bool) {
	st, dims := &stencils[a.kind], a.grid.Dims
	slow, nx := dims[:len(dims)-1], dims[len(dims)-1]
	sign := int64(1)
	if adjoint {
		sign = -1
	}
	var blk blockSegs
	var runs [diagSegBatch]stencilRun
	walkDiagBlocks(ivs, a.offsets, a.n, a.n, adjoint, &blk, func() {
		segs := blk.segs[:blk.n]
		lo, hi := segs[0].lo, segs[0].hi
		for _, s := range segs[1:] {
			lo, hi = min(lo, s.lo), max(hi, s.hi)
		}
		for l0 := lo - lo%nx; l0 <= hi; l0 += nx {
			var cd [3]int64 // the line's slower coordinates
			for d, q := len(slow)-1, l0/nx; d >= 0; d-- {
				cd[d] = q % slow[d]
				q /= slow[d]
			}
			n := 0
			for _, s := range segs {
				c := &st.offs[s.b]
				if !inGrid(&cd, c, slow, sign) {
					continue
				}
				dx := sign * c[len(slow)]
				if rlo, rhi := max(s.lo, l0, l0-dx), min(s.hi, l0+nx-1, l0+nx-1-dx); rlo <= rhi {
					v := -1.0
					if a.offsets[s.b] == 0 {
						v = st.diag
					}
					runs[n] = stencilRun{lo: rlo, hi: rhi, shift: s.shift, v: v}
					n++
				}
			}
			mulRuns(y, x, runs[:n])
		}
	})
}

// stencilRun is a stretch of one diagonal within an output line whose
// every slot holds v: outputs [lo, hi], each reading input output + shift.
type stencilRun struct {
	lo, hi, shift int64
	v             float64
}

// mulRuns applies a line's runs, given in kernel order. Where the next
// five runs, or failing that the next three, cover a common stretch, one
// loop applies them all there, adding the terms left to right in kernel
// order — on an interior line of a 5-point stencil that is the whole
// stencil in one pass. The rest of each run, before and after the
// stretch, runs on its own, so every output still receives its terms in
// kernel order.
func mulRuns(y, x []float64, runs []stencilRun) {
	for len(runs) > 0 {
		g, lo, hi := 1, runs[0].lo, runs[0].hi
		for _, w := range [...]int{5, 3} {
			if len(runs) < w {
				continue
			}
			l, h := runs[0].lo, runs[0].hi
			for _, r := range runs[1:w] {
				l, h = max(l, r.lo), min(h, r.hi)
			}
			if l <= h {
				g, lo, hi = w, l, h
				break
			}
		}
		grp := runs[:g]
		for _, r := range grp {
			r.mul(y, x, r.lo, lo-1)
		}
		switch g {
		case 5:
			mulRun5(y, x, grp, lo, hi)
		case 3:
			mulRun3(y, x, grp, lo, hi)
		default:
			grp[0].mul(y, x, lo, hi)
		}
		for _, r := range grp {
			r.mul(y, x, hi+1, r.hi)
		}
		runs = runs[g:]
	}
}

// mul adds the run's terms to the outputs [lo, hi] (none when lo > hi).
func (r stencilRun) mul(y, x []float64, lo, hi int64) {
	if lo > hi {
		return
	}
	ys := y[lo : hi+1]
	xs := x[lo+r.shift:][:len(ys)]
	for t := range ys {
		ys[t] += r.v * xs[t]
	}
}

// mulRun3 adds the terms of three runs, in order, to the outputs
// [lo, hi], which all three cover.
func mulRun3(y, x []float64, r []stencilRun, lo, hi int64) {
	ys := y[lo : hi+1]
	x0, x1, x2 := x[lo+r[0].shift:][:len(ys)], x[lo+r[1].shift:][:len(ys)], x[lo+r[2].shift:][:len(ys)]
	v0, v1, v2 := r[0].v, r[1].v, r[2].v
	for t := range ys {
		ys[t] = ys[t] + v0*x0[t] + v1*x1[t] + v2*x2[t]
	}
}

// mulRun5 adds the terms of five runs, in order, to the outputs
// [lo, hi], which all five cover.
func mulRun5(y, x []float64, r []stencilRun, lo, hi int64) {
	ys := y[lo : hi+1]
	x0, x1, x2 := x[lo+r[0].shift:][:len(ys)], x[lo+r[1].shift:][:len(ys)], x[lo+r[2].shift:][:len(ys)]
	x3, x4 := x[lo+r[3].shift:][:len(ys)], x[lo+r[4].shift:][:len(ys)]
	v0, v1, v2, v3, v4 := r[0].v, r[1].v, r[2].v, r[3].v, r[4].v
	for t := range ys {
		ys[t] = ys[t] + v0*x0[t] + v1*x1[t] + v2*x2[t] + v3*x3[t] + v4*x4[t]
	}
}
