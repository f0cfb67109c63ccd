package figures

import (
	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// Fig9Row is one point of the Figure 9 experiment: BiCGStab on a 5-point
// Laplacian over a 2^n × 2^n grid, formulated once as a single-operator
// system and once as a multi-operator system over two half-grids.
type Fig9Row struct {
	// LogN is the grid exponent: the grid is 2^LogN × 2^LogN.
	LogN int
	// Single and Multi are seconds per iteration for the two
	// formulations.
	Single, Multi float64
}

// SplitPlanner builds the Figure 9 multi-operator formulation on a
// virtual planner: the 2^e × 2^e grid split into two half-grids D1, D2
// with self-interaction stencils A11, A22 and single-diagonal
// boundary-interaction bands A12, A21 (Section 6.2). Each component
// carries the full vp-piece canonical partition, exactly as in the paper
// where the same -vp flag applies per domain space: the formulation
// doubles the piece count, which is both its small-size overhead cost and
// its large-size overlap benefit (two half-size multiplies per processor
// let compute hide boundary communication).
func SplitPlanner(m machine.Machine, e int, vp int) *core.Planner {
	nx := int64(1) << e
	half := nx / 2
	n := half * nx // unknowns per half

	p := core.NewPlanner(core.Config{Machine: m, Virtual: true})
	d1 := p.AddSolVector(nil, index.EqualPartition(index.NewSpace("D1", n), vp))
	d2 := p.AddSolVector(nil, index.EqualPartition(index.NewSpace("D2", n), vp))
	r1 := p.AddRHSVector(nil, index.EqualPartition(index.NewSpace("R1", n), vp))
	r2 := p.AddRHSVector(nil, index.EqualPartition(index.NewSpace("R2", n), vp))

	// Self-interaction: the 5-point stencil restricted to each half.
	a11 := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(half, nx))
	a22 := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(half, nx))
	// Boundary interaction: the last grid row of one half couples to the
	// first grid row of the other — a single thin diagonal.
	off := (half - 1) * nx
	a12 := sparse.ConstBand(n, n, []int64{-off}, []float64{-1}) // x2 row 0 → y1 row half-1
	a21 := sparse.ConstBand(n, n, []int64{off}, []float64{-1})  // x1 row half-1 → y2 row 0

	p.AddOperator(a11, d1, r1)
	p.AddOperator(a12, d2, r1)
	p.AddOperator(a21, d1, r2)
	p.AddOperator(a22, d2, r2)
	p.Finalize()
	return p
}

// Fig9 sweeps grid exponents, measuring BiCGStab per-iteration time for
// both formulations. The paper sweeps 2^n × 2^n up to 2^16 × 2^16 = 2^32
// unknowns on 64 GPUs.
func Fig9(m machine.Machine, exps []int, warmup, timed int) []Fig9Row {
	vp := m.NumProcs()
	var rows []Fig9Row
	for _, e := range exps {
		n := int64(1) << uint(2*e)
		single := KDRIterTime(m, sparse.Stencil2D5, n, "bicgstab", warmup, timed,
			KDROptions{Tracing: true, VP: vp})
		multi := MeasurePlanner(SplitPlanner(m, e, vp), "bicgstab", warmup, timed,
			KDROptions{Tracing: true})
		rows = append(rows, Fig9Row{LogN: e, Single: single.SecondsPerIter, Multi: multi.SecondsPerIter})
	}
	return rows
}
