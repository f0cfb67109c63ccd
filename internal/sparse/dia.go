package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// DIA stores a matrix by diagonals: the kernel space is
// K = [0, nDiag) × [0, cols), and kernel point (b, j) holds the entry at
// row j - offsets[b], column j, when that row exists. Both relations are
// implicit: the column relation is j = k % cols (a ModRelation) and the
// row relation is the per-diagonal shift (a DiagRelation). Out-of-matrix
// slots are padding and must hold zero.
type DIA struct {
	rows, cols int64
	offsets    []int64   // offset of each stored diagonal: col - row
	vals       []float64 // len nDiag*cols, diagonal-major

	rowRel *dpart.DiagRelation
	colRel *dpart.ModRelation
}

// NewDIA wraps diagonal-major value storage (retained, not copied) as a
// rows × cols matrix. vals[b*cols + j] is the entry at column j of the
// diagonal with offset offsets[b] (row j - offsets[b]); slots whose row
// falls outside [0, rows) must be zero.
func NewDIA(rows, cols int64, offsets []int64, vals []float64) *DIA {
	if int64(len(vals)) != int64(len(offsets))*cols {
		panic("sparse: DIA vals must have nDiag*cols entries")
	}
	return &DIA{
		rows: rows, cols: cols,
		offsets: offsets, vals: vals,
		rowRel: dpart.NewDiagRelation("K", offsets, cols, rows, "R"),
		colRel: dpart.NewModRelation("K", int64(len(offsets)), cols, "D"),
	}
}

// DIAFromCSR converts a CSR matrix to DIA, storing every populated
// diagonal.
func DIAFromCSR(a *CSR) *DIA {
	// slot[off+rows−1] is 1 + the storage slot of diagonal off, 0 while
	// unpopulated; offsets span [−(rows−1), cols−1].
	slot := make([]int32, a.rows+a.cols)
	for i := int64(0); i < a.rows; i++ {
		for _, j := range a.colIdx[a.rowptr[i]:a.rowptr[i+1]] {
			slot[j-i+a.rows-1] = 1
		}
	}
	var offsets []int64
	for d, seen := range slot {
		if seen != 0 {
			offsets = append(offsets, int64(d)-(a.rows-1))
			slot[d] = int32(len(offsets))
		}
	}
	vals := make([]float64, int64(len(offsets))*a.cols)
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			j := a.colIdx[k]
			vals[int64(slot[j-i+a.rows-1]-1)*a.cols+j] += a.vals[k]
		}
	}
	return NewDIA(a.rows, a.cols, offsets, vals)
}

// Domain implements Matrix.
func (a *DIA) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *DIA) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *DIA) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// RowRelation implements Matrix.
func (a *DIA) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *DIA) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *DIA) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *DIA) Format() string { return "DIA" }

// MultiplyAddPart implements Matrix.
func (a *DIA) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	a.mulIntervals(y, x, kset.Intervals(), false)
}

// MultiplyAddTPart implements Matrix.
func (a *DIA) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	a.mulIntervals(y, x, kset.Intervals(), true)
}

// mulIntervals is the kernel over a set of kernel intervals, forward or
// adjoint: parallel streams per diagonal, no indices at all. Where three
// consecutive segments of a block cover a common stretch, one loop applies
// all three there, so each output of the stretch is loaded and stored once
// instead of three times; the terms are added left to right in kernel
// order, which is the order of three per-diagonal passes. The rest of each
// segment, and any segment without two successors to share a stretch
// with, runs the per-diagonal loop. (On lap2d:512x512 groups of four
// gained less than three and groups of five almost nothing: EXPERIMENTS.md,
// "One pass per output".)
func (a *DIA) mulIntervals(y, x []float64, ivs []index.Interval, adjoint bool) {
	var blk blockSegs
	walkDiagBlocks(ivs, a.offsets, a.rows, a.cols, adjoint, &blk, func() {
		segs := blk.segs[:blk.n]
		for len(segs) > 0 {
			if len(segs) >= 3 {
				s0, s1, s2 := segs[0], segs[1], segs[2]
				if lo, hi := max(s0.lo, s1.lo, s2.lo), min(s0.hi, s1.hi, s2.hi); lo <= hi {
					// An output outside [lo, hi] gets its terms from the
					// per-diagonal runs before or after it, still in order.
					for _, s := range segs[:3] {
						a.mulSeg(y, x, s, s.lo, lo-1)
					}
					a.mulSeg3(y, x, s0, s1, s2, lo, hi)
					for _, s := range segs[:3] {
						a.mulSeg(y, x, s, hi+1, s.hi)
					}
					segs = segs[3:]
					continue
				}
			}
			a.mulSeg(y, x, segs[0], segs[0].lo, segs[0].hi)
			segs = segs[1:]
		}
	})
}

// mulSeg adds segment s's terms to the outputs [lo, hi] (none when lo > hi).
func (a *DIA) mulSeg(y, x []float64, s diagSeg, lo, hi int64) {
	if lo > hi {
		return
	}
	ys := y[lo : hi+1]
	xs := x[lo+s.shift:][:len(ys)]
	vs := a.vals[s.base+lo:][:len(ys)]
	for t, v := range vs {
		ys[t] += v * xs[t]
	}
}

// mulSeg3 adds the terms of three segments, in order, to the outputs
// [lo, hi], which all three cover.
func (a *DIA) mulSeg3(y, x []float64, s0, s1, s2 diagSeg, lo, hi int64) {
	ys := y[lo : hi+1]
	x0, v0 := x[lo+s0.shift:][:len(ys)], a.vals[s0.base+lo:][:len(ys)]
	x1, v1 := x[lo+s1.shift:][:len(ys)], a.vals[s1.base+lo:][:len(ys)]
	x2, v2 := x[lo+s2.shift:][:len(ys)], a.vals[s2.base+lo:][:len(ys)]
	for t := range ys {
		ys[t] = ys[t] + v0[t]*x0[t] + v1[t]*x1[t] + v2[t]*x2[t]
	}
}

// The DIA kernel layout — nDiag blocks of cols slots, slot (b, j) holding
// the entry at row j − offsets[b] — is shared by DIA, Band and
// StencilOperator, and so is the way their kernels walk it.

// diagSeg is one run of in-matrix kernel slots on a single diagonal,
// described from the output vector's side: output indices [lo, hi] (rows
// forward, columns adjoint), the input index is output + shift, the
// kernel slot is base + output and its column col + output.
type diagSeg struct {
	b                int // diagonal
	lo, hi           int64
	shift, base, col int64
}

const (
	// diagBlock is the number of output points one block covers: the y
	// block and one x window per diagonal stay in L1 while every diagonal
	// of the piece passes over them, instead of y being streamed from
	// memory once per diagonal.
	diagBlock = 1024
	// diagSegBatch bounds the segments blocked together, so the walk
	// needs no allocation; a kernel set with more runs is processed in
	// consecutive batches, which keeps the per-output order.
	diagSegBatch = 32
)

// blockSegs is one output block of a walk: the segments that meet it,
// clipped to it, in kernel order.
type blockSegs struct {
	n    int
	segs [diagSegBatch]diagSeg
}

// walkDiagBlocks splits kernel intervals of a DIA-layout kernel space at
// diagonal boundaries (one division per interval), drops padding slots,
// and hands fn every output block in turn: blocks of diagBlock output
// points outermost, each with all of its segments, clipped to the block
// and in walk order. A forward walk takes the diagonals in ascending
// kernel order; an adjoint walk takes them from the last interval's last
// diagonal down, because a column's row j − offset ascends as the offset
// descends. A kernel that applies a block's segments in
// the order given therefore gives every output point its contributions in
// ascending row order either way — the order csr, ell and coo add them in.
// The block arrives in *blk, which the caller owns, rather than as an
// argument of fn: a slice handed to a function value escapes, and the
// walk would allocate on every call.
func walkDiagBlocks(ivs []index.Interval, offsets []int64, rows, cols int64, adjoint bool, blk *blockSegs, fn func()) {
	var buf [diagSegBatch]diagSeg
	segs := buf[:0]
	flush := func() {
		if len(segs) == 0 {
			return
		}
		lo, hi := segs[0].lo, segs[0].hi
		for _, s := range segs[1:] {
			lo, hi = min(lo, s.lo), max(hi, s.hi)
		}
		for b0 := lo; b0 <= hi; b0 += diagBlock {
			b1 := min(b0+diagBlock-1, hi)
			blk.n = 0
			for _, s := range segs {
				if l, h := max(s.lo, b0), min(s.hi, b1); l <= h {
					s.lo, s.hi = l, h
					blk.segs[blk.n] = s
					blk.n++
				}
			}
			if blk.n > 0 {
				fn()
			}
		}
		segs = segs[:0]
	}
	for i := range ivs {
		iv := ivs[i]
		if adjoint {
			iv = ivs[len(ivs)-1-i]
		}
		if iv.Empty() {
			continue
		}
		bLo, bHi := iv.Lo/cols, iv.Hi/cols
		for d := int64(0); d <= bHi-bLo; d++ {
			b := bLo + d
			if adjoint {
				b = bHi - d
			}
			start, off := b*cols, offsets[b]
			// Columns of the interval's run on diagonal b, clipped to slots
			// whose row j − off exists.
			jLo, jHi := max(iv.Lo-start, 0, off), min(iv.Hi-start, cols-1, rows-1+off)
			if jLo > jHi {
				continue
			}
			if len(segs) == cap(segs) {
				flush()
			}
			if adjoint {
				segs = append(segs, diagSeg{b: int(b), lo: jLo, hi: jHi, shift: -off, base: start})
			} else {
				segs = append(segs, diagSeg{b: int(b), lo: jLo - off, hi: jHi - off, shift: off, base: start + off, col: off})
			}
		}
	}
	flush()
}
