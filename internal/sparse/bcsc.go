package sparse

import (
	"sort"
	"sync"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// BCSC is the column-major dual of BCSR: dense br × bd blocks ordered by
// block column through colptr: D0 → [K0, K0], with brow: K0 → R0 storing
// block rows.
type BCSC struct {
	rows, cols int64
	br, bd     int64
	colptr     []int64 // len cols/bd + 1, in block units
	brow       []int64 // block row of each block
	vals       []float64

	relOnce        sync.Once
	rowRel, colRel *dpart.FnRelation
}

// NewBCSC wraps block storage (retained, not copied) as a rows × cols
// matrix with br × bd blocks. Blocks are stored row-major internally,
// back to back, in block-column order.
func NewBCSC(rows, cols, br, bd int64, colptr, brow []int64, vals []float64) *BCSC {
	if rows%br != 0 || cols%bd != 0 {
		panic("sparse: BCSC dimensions must be multiples of the block shape")
	}
	if int64(len(colptr)) != cols/bd+1 {
		panic("sparse: BCSC colptr must have cols/bd+1 entries")
	}
	if int64(len(vals)) != int64(len(brow))*br*bd {
		panic("sparse: BCSC vals must have nblocks*br*bd entries")
	}
	return &BCSC{
		rows: rows, cols: cols, br: br, bd: bd,
		colptr: colptr, brow: brow, vals: vals,
	}
}

// BCSCFromCSR converts a CSR matrix to BCSC with the given block shape.
func BCSCFromCSR(a *CSR, br, bd int64) *BCSC {
	if a.rows%br != 0 || a.cols%bd != 0 {
		panic("sparse: BCSC block shape must divide the matrix dimensions")
	}
	nbc := a.cols / bd
	blockRows := make([][]int64, nbc)
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			bj := a.colIdx[k] / bd
			blockRows[bj] = append(blockRows[bj], i/br)
		}
	}
	colptr := make([]int64, nbc+1)
	var brow []int64
	for bj := int64(0); bj < nbc; bj++ {
		rs := blockRows[bj]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		colptr[bj] = int64(len(brow))
		for i, r := range rs {
			if i == 0 || r != rs[i-1] {
				brow = append(brow, r)
			}
		}
	}
	colptr[nbc] = int64(len(brow))
	vals := make([]float64, int64(len(brow))*br*bd)
	for i := int64(0); i < a.rows; i++ {
		bi := i / br
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			j := a.colIdx[k]
			bj := j / bd
			lo, hi := colptr[bj], colptr[bj+1]
			b := lo + int64(sort.Search(int(hi-lo), func(t int) bool { return brow[lo+int64(t)] >= bi }))
			vals[b*br*bd+(i%br)*bd+(j%bd)] += a.vals[k]
		}
	}
	return NewBCSC(a.rows, a.cols, br, bd, colptr, brow, vals)
}

// Domain implements Matrix.
func (a *BCSC) Domain() index.Space { return index.NewSpace("D", a.cols) }

// Range implements Matrix.
func (a *BCSC) Range() index.Space { return index.NewSpace("R", a.rows) }

// Kernel implements Matrix.
func (a *BCSC) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

func (a *BCSC) buildRelations() {
	a.relOnce.Do(func() {
		n := int64(len(a.vals))
		rowIdx := make([]int64, n)
		colIdx := make([]int64, n)
		bsz := a.br * a.bd
		nbc := a.cols / a.bd
		for bj := int64(0); bj < nbc; bj++ {
			for b := a.colptr[bj]; b < a.colptr[bj+1]; b++ {
				for r := int64(0); r < a.br; r++ {
					for c := int64(0); c < a.bd; c++ {
						k := b*bsz + r*a.bd + c
						rowIdx[k] = a.brow[b]*a.br + r
						colIdx[k] = bj*a.bd + c
					}
				}
			}
		}
		a.rowRel = dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", a.rows))
		a.colRel = dpart.NewFnRelation("K", colIdx, index.NewSpace("D", a.cols))
	})
}

// RowRelation implements Matrix.
func (a *BCSC) RowRelation() dpart.Relation {
	a.buildRelations()
	return a.rowRel
}

// ColRelation implements Matrix.
func (a *BCSC) ColRelation() dpart.Relation {
	a.buildRelations()
	return a.colRel
}

// NNZ implements Matrix.
func (a *BCSC) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *BCSC) Format() string { return "BCSC" }

// MultiplyAddPart implements Matrix.
func (a *BCSC) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for _, iv := range kset.Intervals() {
		a.mulRange(y, x, iv.Lo, iv.Hi, false)
	}
}

// MultiplyAddTPart implements Matrix.
func (a *BCSC) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for _, iv := range kset.Intervals() {
		a.mulRange(y, x, iv.Lo, iv.Hi, true)
	}
}

// mulRange is the block formats' shared range kernel (bcsr.go) with the
// blocks ordered by block column.
func (a *BCSC) mulRange(y, x []float64, lo, hi int64, adjoint bool) {
	blockRange(y, x, a.vals, a.colptr, a.brow, a.br, a.bd, lo, hi, false, adjoint)
}
