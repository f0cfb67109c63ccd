// Customformat: the paper's P2 claim — a user-defined sparse matrix
// storage format, written entirely in application code, runs through the
// library's universal co-partitioning operators and solvers with no
// library changes. The format below ("JDS-lite", a jagged-diagonal-style
// layout with rows sorted by length) only has to expose its row and
// column relations and one range kernel per direction — the nine
// methods of sparse.Matrix; everything else (partition derivation, halo
// computation, dependence analysis, solving, whole-matrix products) is
// format-independent.
package main

import (
	"fmt"
	"math"
	"sort"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// JDSLite stores rows in descending-length order, entries contiguous per
// permuted row. The kernel space is ordered by permuted row, so its row
// relation is an explicit function K → R through the permutation and its
// column relation an explicit col array — no structural assumption the
// library must know about.
type JDSLite struct {
	rows, cols int64
	perm       []int64 // permuted position -> original row
	ptr        []int64 // kernel interval per permuted row
	colIdx     []int64
	vals       []float64
	rowOfK     []int64 // original row of each kernel entry

	rowRel, colRel *dpart.FnRelation
}

// NewJDSLite converts a CSR matrix into the custom layout.
func NewJDSLite(a *sparse.CSR) *JDSLite {
	rows, cols := sparse.Dims(a)
	rp, ci, vs := a.RowPtr(), a.ColIdx(), a.Vals()
	perm := make([]int64, rows)
	for i := range perm {
		perm[i] = int64(i)
	}
	sort.Slice(perm, func(x, y int) bool {
		lx := rp[perm[x]+1] - rp[perm[x]]
		ly := rp[perm[y]+1] - rp[perm[y]]
		if lx != ly {
			return lx > ly
		}
		return perm[x] < perm[y]
	})
	j := &JDSLite{rows: rows, cols: cols, perm: perm, ptr: make([]int64, rows+1)}
	for p, orig := range perm {
		j.ptr[p] = int64(len(j.vals))
		for k := rp[orig]; k < rp[orig+1]; k++ {
			j.colIdx = append(j.colIdx, ci[k])
			j.vals = append(j.vals, vs[k])
			j.rowOfK = append(j.rowOfK, orig)
		}
		_ = p
	}
	j.ptr[rows] = int64(len(j.vals))
	j.rowRel = dpart.NewFnRelation("K", j.rowOfK, index.NewSpace("R", rows))
	j.colRel = dpart.NewFnRelation("K", j.colIdx, index.NewSpace("D", cols))
	return j
}

func (j *JDSLite) Domain() index.Space         { return j.colRel.Right() }
func (j *JDSLite) Range() index.Space          { return j.rowRel.Right() }
func (j *JDSLite) Kernel() index.Space         { return index.NewSpace("K", int64(len(j.vals))) }
func (j *JDSLite) RowRelation() dpart.Relation { return j.rowRel }
func (j *JDSLite) ColRelation() dpart.Relation { return j.colRel }
func (j *JDSLite) NNZ() int64                  { return int64(len(j.vals)) }
func (j *JDSLite) Format() string              { return "JDS-lite (user-defined)" }

func (j *JDSLite) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	kset.EachInterval(func(iv index.Interval) {
		for k := iv.Lo; k <= iv.Hi; k++ {
			y[j.rowOfK[k]] += j.vals[k] * x[j.colIdx[k]]
		}
	})
}

func (j *JDSLite) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	kset.EachInterval(func(iv index.Interval) {
		for k := iv.Lo; k <= iv.Hi; k++ {
			y[j.colIdx[k]] += j.vals[k] * x[j.rowOfK[k]]
		}
	})
}

func main() {
	const nx, ny = 24, 24
	n := int64(nx * ny)
	custom := NewJDSLite(sparse.Laplacian2D(nx, ny))

	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) / 13)
	}
	x := make([]float64, n)

	// The planner neither knows nor cares that the format is user-defined:
	// the universal projections derive the kernel and halo partitions from
	// the relations the format exposes.
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), 6))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), 6))
	p.AddOperator(custom, si, ri)
	p.Finalize()
	res := solvers.Solve(solvers.NewCG(p), 1e-10, 2000)
	p.Drain()

	// Check the residual against the reference CSR operator.
	ref := sparse.Laplacian2D(nx, ny)
	y := make([]float64, n)
	sparse.SpMV(ref, y, x)
	var r2 float64
	for i := range y {
		d := y[i] - b[i]
		r2 += d * d
	}
	fmt.Printf("format %q: CG converged=%v in %d iterations\n",
		custom.Format(), res.Converged, res.Iterations)
	fmt.Printf("residual checked against reference CSR: %.3g\n", math.Sqrt(r2))
	if !res.Converged || math.Sqrt(r2) > 1e-8 {
		panic("customformat: solve failed")
	}
	fmt.Println("ok: user-defined format solved with zero library modifications")
}
