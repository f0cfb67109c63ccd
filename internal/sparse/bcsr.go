package sparse

import (
	"sort"
	"sync"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// BCSR stores a matrix in block compressed sparse row form: the kernel
// space is K = K0 × BR × BD where K0 indexes dense br × bd blocks, the
// block-row pointer rowptr: R0 → [K0, K0] orders blocks by block row, and
// bcol: K0 → D0 stores block columns. rows and cols must be multiples of
// the block shape.
//
// The structural assumptions make the within-block coordinates implicit,
// which the kernels exploit; the point-level row/col relations required by
// the Matrix interface are materialized lazily on first use, which keeps
// the universal co-partitioning operators applicable to block formats.
type BCSR struct {
	rows, cols int64
	br, bd     int64   // block shape
	rowptr     []int64 // len rows/br + 1, in block units
	bcol       []int64 // block column of each block
	vals       []float64

	relOnce        sync.Once
	rowRel, colRel *dpart.FnRelation
}

// NewBCSR wraps block storage (retained, not copied) as a rows × cols
// matrix with br × bd blocks. vals holds the blocks row-major,
// back to back.
func NewBCSR(rows, cols, br, bd int64, rowptr, bcol []int64, vals []float64) *BCSR {
	if rows%br != 0 || cols%bd != 0 {
		panic("sparse: BCSR dimensions must be multiples of the block shape")
	}
	if int64(len(rowptr)) != rows/br+1 {
		panic("sparse: BCSR rowptr must have rows/br+1 entries")
	}
	if int64(len(vals)) != int64(len(bcol))*br*bd {
		panic("sparse: BCSR vals must have nblocks*br*bd entries")
	}
	return &BCSR{
		rows: rows, cols: cols, br: br, bd: bd,
		rowptr: rowptr, bcol: bcol, vals: vals,
	}
}

// BCSRFromCSR converts a CSR matrix to BCSR with the given block shape,
// materializing every block that contains at least one nonzero.
func BCSRFromCSR(a *CSR, br, bd int64) *BCSR {
	if a.rows%br != 0 || a.cols%bd != 0 {
		panic("sparse: BCSR block shape must divide the matrix dimensions")
	}
	nbr := a.rows / br
	// Collect the distinct block columns of each block row.
	blockCols := make([][]int64, nbr)
	for i := int64(0); i < a.rows; i++ {
		bi := i / br
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			blockCols[bi] = append(blockCols[bi], a.colIdx[k]/bd)
		}
	}
	rowptr := make([]int64, nbr+1)
	var bcol []int64
	for bi := int64(0); bi < nbr; bi++ {
		cs := blockCols[bi]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		rowptr[bi] = int64(len(bcol))
		for i, c := range cs {
			if i == 0 || c != cs[i-1] {
				bcol = append(bcol, c)
			}
		}
	}
	rowptr[nbr] = int64(len(bcol))
	vals := make([]float64, int64(len(bcol))*br*bd)
	// Fill block values.
	for i := int64(0); i < a.rows; i++ {
		bi := i / br
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			j := a.colIdx[k]
			bj := j / bd
			// Find the block (bi, bj) by binary search over this row's blocks.
			lo, hi := rowptr[bi], rowptr[bi+1]
			b := lo + int64(sort.Search(int(hi-lo), func(t int) bool { return bcol[lo+int64(t)] >= bj }))
			vals[b*br*bd+(i%br)*bd+(j%bd)] += a.vals[k]
		}
	}
	return NewBCSR(a.rows, a.cols, br, bd, rowptr, bcol, vals)
}

// Domain implements Matrix.
func (a *BCSR) Domain() index.Space { return index.NewSpace("D", a.cols) }

// Range implements Matrix.
func (a *BCSR) Range() index.Space { return index.NewSpace("R", a.rows) }

// Kernel implements Matrix.
func (a *BCSR) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// buildRelations materializes the point-level row and column relations
// from the block structure.
func (a *BCSR) buildRelations() {
	a.relOnce.Do(func() {
		n := int64(len(a.vals))
		rowIdx := make([]int64, n)
		colIdx := make([]int64, n)
		bsz := a.br * a.bd
		nbr := a.rows / a.br
		for bi := int64(0); bi < nbr; bi++ {
			for b := a.rowptr[bi]; b < a.rowptr[bi+1]; b++ {
				for r := int64(0); r < a.br; r++ {
					for c := int64(0); c < a.bd; c++ {
						k := b*bsz + r*a.bd + c
						rowIdx[k] = bi*a.br + r
						colIdx[k] = a.bcol[b]*a.bd + c
					}
				}
			}
		}
		a.rowRel = dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", a.rows))
		a.colRel = dpart.NewFnRelation("K", colIdx, index.NewSpace("D", a.cols))
	})
}

// RowRelation implements Matrix.
func (a *BCSR) RowRelation() dpart.Relation {
	a.buildRelations()
	return a.rowRel
}

// ColRelation implements Matrix.
func (a *BCSR) ColRelation() dpart.Relation {
	a.buildRelations()
	return a.colRel
}

// NNZ implements Matrix.
func (a *BCSR) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *BCSR) Format() string { return "BCSR" }

// MultiplyAddPart implements Matrix.
func (a *BCSR) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	a.mul(y, x, kset, false)
}

// MultiplyAddTPart implements Matrix.
func (a *BCSR) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	a.mul(y, x, kset, true)
}

// mul is the range kernel over a kernel set, forward or adjoint (BCSC,
// the transposed view of a BCSR, runs it with the directions exchanged).
// The owning block row is searched once per kernel set and carried from
// interval to interval: intervals are sorted, so it only moves forward,
// past empty block rows by the same loop that advances it inside an
// interval. Per interval the (block, within-block row, within-block
// column) position is divided out; from there the walk advances one
// within-block row run at a time, each run accumulating into its output
// in slot order.
func (a *BCSR) mul(y, x []float64, kset index.IntervalSet, adjoint bool) {
	ivs := kset.Intervals()
	if len(ivs) == 0 {
		return
	}
	rowptr, bcol, vals, br, bd := a.rowptr, a.bcol, a.vals, a.br, a.bd
	bsz := br * bd
	bi := segOf(rowptr, ivs[0].Lo/bsz)
	for _, iv := range ivs {
		lo, hi := iv.Lo, iv.Hi
		b := lo / bsz
		r := (lo - b*bsz) / bd
		c := lo - b*bsz - r*bd
		for k := lo; k <= hi; c = 0 {
			for b >= rowptr[bi+1] {
				bi++
			}
			i, j := bi*br+r, bcol[b]*bd+c
			end := min(k+bd-c, hi+1)
			run := vals[k:end]
			if adjoint {
				ys, xi := y[j:j+int64(len(run))], x[i]
				for t, v := range run {
					ys[t] += v * xi
				}
			} else {
				xs, s := x[j:j+int64(len(run))], y[i]
				for t, v := range run {
					s += v * xs[t]
				}
				y[i] = s
			}
			k = end
			if r++; r == br {
				r, b = 0, b+1
			}
		}
	}
}
