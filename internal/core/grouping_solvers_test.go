package core_test

import (
	"fmt"
	"math"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// Launching by the grain changes how many tasks carry a sweep or a
// product, never what they compute: the unit of data stays the piece, so
// a solver stepped on a grouped planner and on a one-task-per-piece
// planner (grain 0) holds bit-identical vectors and scalars after every
// step — traced or not, with SDC detection on or off (and no alarm either
// way).

// groupingSystem builds one of the two test systems on a fresh planner.
type groupingSystem struct {
	name  string
	multi bool // several components: the matrix-powers solvers do not apply
	build func(withPre bool) *core.Planner
}

func groupingRHS(n int64, phase float64) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i)/7+phase) + float64((i*7)%11)/9
	}
	return b
}

var groupingSystems = []groupingSystem{
	// The served workload: lap2d:32x32 in the default 8 pieces of 128
	// points, one group a sweep.
	{"lap2d:32x32", false, func(withPre bool) *core.Planner {
		const n = 32 * 32
		a := sparse.Laplacian2D(32, 32)
		p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
		si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), 8))
		ri := p.AddRHSVector(groupingRHS(n, 0), index.EqualPartition(index.NewSpace("R", n), 8))
		p.AddOperator(a, si, ri)
		if withPre {
			p.AddPreconditioner(precond.Jacobi(a), si, ri)
		}
		p.Finalize()
		return p
	}},
	// Two components, five operators: the halves of a 32x32 Laplacian as
	// four blocks, the first diagonal block held as one half-weight matrix
	// added twice (aliased storage, reduction privilege on the second),
	// and the coupling block of each row launched before its diagonal
	// block, so a group's members mix fresh and folding write sets.
	{"two-component", true, func(withPre bool) *core.Planner {
		const n, half = 32 * 32, 16 * 32
		var blocks [2][2][]sparse.Coord
		for _, c := range sparse.CoordsFromCSR(sparse.Laplacian2D(32, 32)) {
			bi, bj := c.Row/half, c.Col/half
			v := c.Val
			if bi == 0 && bj == 0 {
				v /= 2
			}
			blocks[bi][bj] = append(blocks[bi][bj], sparse.Coord{Row: c.Row % half, Col: c.Col % half, Val: v})
		}
		mat := func(bi, bj int) *sparse.CSR { return sparse.CSRFromCoords(half, half, blocks[bi][bj]) }
		p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
		part := func(tag string) index.Partition {
			return index.EqualPartition(index.NewSpace(tag, half), 4)
		}
		d1 := p.AddSolVector(make([]float64, half), part("D1"))
		d2 := p.AddSolVector(make([]float64, half), part("D2"))
		r1 := p.AddRHSVector(groupingRHS(half, 0.3), part("R1"))
		r2 := p.AddRHSVector(groupingRHS(half, 1.1), part("R2"))
		halfA11, a22 := mat(0, 0), mat(1, 1)
		p.AddOperator(mat(0, 1), d2, r1)
		p.AddOperator(halfA11, d1, r1)
		p.AddOperator(halfA11, d1, r1)
		p.AddOperator(mat(1, 0), d1, r2)
		p.AddOperator(a22, d2, r2)
		if withPre {
			p.AddPreconditioner(precond.Jacobi(sparse.Add(halfA11, halfA11)), d1, r1)
			p.AddPreconditioner(precond.Jacobi(a22), d2, r2)
		}
		p.Finalize()
		return p
	}},
}

// sameBits fails unless every vector of the two planners is bit-identical.
func sameBits(t *testing.T, step int, grouped, perPiece *core.Planner) {
	t.Helper()
	if grouped.NumVecs() != perPiece.NumVecs() {
		t.Fatalf("step %d: %d vectors grouped, %d per piece", step, grouped.NumVecs(), perPiece.NumVecs())
	}
	for id := core.VecID(0); int(id) < grouped.NumVecs(); id++ {
		for c := 0; c < grouped.NumVecComponents(id); c++ {
			g, w := grouped.VecData(id, c), perPiece.VecData(id, c)
			for i := range g {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("step %d: vector %d component %d [%d] = %v grouped, %v per piece",
						step, id, c, i, g[i], w[i])
				}
			}
		}
	}
}

func TestGroupedLaunchIsBitwiseIdentical(t *testing.T) {
	const steps = 40
	for _, sys := range groupingSystems {
		for _, name := range []string{"cg", "bicg", "bicgstab", "cgs", "pipecg", "gmres", "minres", "sstep-cg", "pcg"} {
			if sys.multi && name == "sstep-cg" {
				continue // the matrix-powers kernel takes single-component systems
			}
			for _, traced := range []bool{false, true} {
				for _, sdc := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/traced=%v/sdc=%v", sys.name, name, traced, sdc), func(t *testing.T) {
						var ps [2]*core.Planner
						var ss [2]solvers.Solver
						var mons [2]*core.SDCMonitor
						for i, grain := range []int64{core.LaunchGrain, 0} {
							p := sys.build(name == "pcg")
							p.SetLaunchGrain(grain)
							p.SetTracing(traced)
							if sdc {
								mons[i] = p.EnableSDCDetection(0)
							}
							ps[i], ss[i] = p, solvers.New(name, p)
						}
						for step := 0; step <= steps; step++ {
							if step > 0 {
								ss[0].Step()
								ss[1].Step()
							}
							g, w := ss[0].ConvergenceMeasure().Value(), ss[1].ConvergenceMeasure().Value()
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("step %d: convergence measure %v grouped, %v per piece", step, g, w)
							}
							ps[0].Drain()
							ps[1].Drain()
							sameBits(t, step, ps[0], ps[1])
						}
						st0, st1 := ps[0].Session().Stats(), ps[1].Session().Stats()
						if st0.Launched*2 > st1.Launched {
							t.Errorf("grouped planner launched %d tasks, per-piece %d: nothing was grouped",
								st0.Launched, st1.Launched)
						}
						for i, mon := range mons {
							if mon != nil && mon.Count() != 0 {
								t.Errorf("planner %d raised %d SDC alarms on a clean run: %v", i, mon.Count(), mon.Alarms())
							}
						}
						if err := ps[0].Runtime().Err(); err != nil {
							t.Errorf("grouped runtime error: %v", err)
						}
					})
				}
			}
		}
	}
}

// A partition wider than the vector has empty pieces; they ride along in
// the groups of their neighbours and the solve converges to the answer of
// the 8-piece solve.
func TestMorePiecesThanPointsConverges(t *testing.T) {
	const n = 12 * 12
	a := sparse.Laplacian2D(12, 12)
	solve := func(pieces int) (solvers.Result, []float64) {
		b := make([]float64, n)
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		sparse.SpMV(a, b, ones)
		x := make([]float64, n)
		p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
		si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), pieces))
		ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), pieces))
		p.AddOperator(a, si, ri)
		p.Finalize()
		res := solvers.Solve(p, solvers.New("cg", p), 1e-10, 500)
		p.Drain()
		if err := p.Runtime().Err(); err != nil {
			t.Fatalf("pieces=%d: runtime error: %v", pieces, err)
		}
		return res, x
	}
	few, _ := solve(8)
	many, x := solve(5 * n)
	if !many.Converged {
		t.Fatalf("pieces > n did not converge: %+v", many)
	}
	if d := many.Iterations - few.Iterations; d < -1 || d > 1 {
		t.Errorf("pieces > n took %d iterations, 8 pieces took %d", many.Iterations, few.Iterations)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-8 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}
