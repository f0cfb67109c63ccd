package core

import (
	"fmt"
	"math"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// powersTestPlanner builds a single-component square system over the
// given operator(s) with deterministic non-trivial source data.
func powersTestPlanner(n int64, pieces int, virt bool, mats ...sparse.Matrix) *Planner {
	p := NewPlanner(Config{Machine: machine.Lassen(2), Virtual: virt})
	var si, ri int
	if virt {
		si = p.AddSolVectorVirtual(n, index.EqualPartition(index.NewSpace("D", n), pieces))
		ri = p.AddRHSVectorVirtual(n, index.EqualPartition(index.NewSpace("R", n), pieces))
	} else {
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64((i*7)%23)/11 - 0.4
		}
		si = p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
		ri = p.AddRHSVector(rhs, index.EqualPartition(index.NewSpace("R", n), pieces))
	}
	for _, m := range mats {
		p.AddOperator(m, si, ri)
	}
	p.Finalize()
	return p
}

// hostPowers computes the reference basis [(A−θ₁)x, (A−θ₂)(A−θ₁)x, …]
// with plain full-matrix SpMVs, A being the sum of the operators.
func hostPowers(mats []sparse.Matrix, x []float64, levels int, shifts []float64) [][]float64 {
	out := make([][]float64, levels)
	cur := x
	tmp := make([]float64, len(x))
	for k := 0; k < levels; k++ {
		out[k] = make([]float64, len(x))
		for _, m := range mats {
			sparse.SpMV(m, tmp, cur)
			for i := range tmp {
				out[k][i] += tmp[i]
			}
		}
		if shifts != nil && shifts[k] != 0 {
			for i := range cur {
				out[k][i] -= shifts[k] * cur[i]
			}
		}
		cur = out[k]
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// powersTestOperators is the format sweep the kernel must be agnostic
// to: assembled CSR, ELL, the adaptive composite, and the matrix-free
// stencil operator.
func powersTestOperators() map[string]sparse.Matrix {
	lap := sparse.Laplacian2D(8, 8)
	return map[string]sparse.Matrix{
		"csr":     lap,
		"ell":     sparse.Convert(lap, "ELL"),
		"auto":    sparse.Convert(lap, "Auto"),
		"stencil": sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(8, 8)),
	}
}

func TestPowersSweepMatchesRepeatedSpMV(t *testing.T) {
	const n, pieces, depth = 64, 4, 4
	for name, mat := range powersTestOperators() {
		for _, shifts := range [][]float64{nil, {0.5, -0.25, 1.5, 0}} {
			t.Run(fmt.Sprintf("%s/newton=%v", name, shifts != nil), func(t *testing.T) {
				p := powersTestPlanner(n, pieces, false, mat)
				plan := NewPowersPlan(p, depth)
				dsts := make([]VecID, depth)
				for i := range dsts {
					dsts[i] = p.AllocateWorkspace(RhsShape)
				}
				plan.Sweep(dsts, RHS, shifts)
				p.Drain()
				if err := p.Runtime().Err(); err != nil {
					t.Fatalf("runtime error: %v", err)
				}
				want := hostPowers([]sparse.Matrix{mat}, p.VecData(RHS, 0), depth, shifts)
				for k := range dsts {
					if d := maxAbsDiff(p.VecData(dsts[k], 0), want[k]); d > 1e-12 {
						t.Errorf("level %d: max deviation %g from host powers", k+1, d)
					}
				}
			})
		}
	}
}

func TestPowersSweepMultiOperatorSums(t *testing.T) {
	// Two operators on one system act as their sum; the powers kernel
	// must apply the summed operator at every level, not each operator's
	// powers separately.
	const n, pieces, depth = 64, 4, 3
	lap := sparse.Laplacian2D(8, 8)
	tri := convTestMatrix(n)
	p := powersTestPlanner(n, pieces, false, lap, tri)
	plan := NewPowersPlan(p, depth)
	dsts := make([]VecID, depth)
	for i := range dsts {
		dsts[i] = p.AllocateWorkspace(RhsShape)
	}
	plan.Sweep(dsts, RHS, nil)
	p.Drain()
	if err := p.Runtime().Err(); err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	want := hostPowers([]sparse.Matrix{lap, tri}, p.VecData(RHS, 0), depth, nil)
	for k := range dsts {
		if d := maxAbsDiff(p.VecData(dsts[k], 0), want[k]); d > 1e-12 {
			t.Errorf("level %d: max deviation %g from host (A+B) powers", k+1, d)
		}
	}
}

// convTestMatrix builds a nonsymmetric tridiagonal operator.
func convTestMatrix(n int64) *sparse.CSR {
	var cs []sparse.Coord
	for i := int64(0); i < n; i++ {
		cs = append(cs, sparse.Coord{Row: i, Col: i, Val: 3})
		if i > 0 {
			cs = append(cs, sparse.Coord{Row: i, Col: i - 1, Val: -1.5})
		}
		if i < n-1 {
			cs = append(cs, sparse.Coord{Row: i, Col: i + 1, Val: -0.5})
		}
	}
	return sparse.CSRFromCoords(n, n, cs)
}

func TestPowersSweepShallowerThanPlan(t *testing.T) {
	// A depth-4 plan serving a 2-level sweep uses the deeper (wider) halo
	// sets; the answer must still be exact.
	const n, pieces = 64, 4
	lap := sparse.Laplacian2D(8, 8)
	p := powersTestPlanner(n, pieces, false, lap)
	plan := NewPowersPlan(p, 4)
	dsts := []VecID{p.AllocateWorkspace(RhsShape), p.AllocateWorkspace(RhsShape)}
	plan.Sweep(dsts, RHS, nil)
	p.Drain()
	if err := p.Runtime().Err(); err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	want := hostPowers([]sparse.Matrix{lap}, p.VecData(RHS, 0), 2, nil)
	for k := range dsts {
		if d := maxAbsDiff(p.VecData(dsts[k], 0), want[k]); d > 1e-12 {
			t.Errorf("level %d: max deviation %g", k+1, d)
		}
	}
}

func TestPowersSweepVirtualLaunchParity(t *testing.T) {
	// The kernel's launch structure is data-independent: a virtual
	// planner must record the real planner's graph, for the sweep alone
	// and for a sweep plus its Gram reduction, up to the Gram's combine
	// task (which only the virtual planner launches).
	const n, pieces, depth = 64, 4, 3
	for name, mat := range powersTestOperators() {
		t.Run(name, func(t *testing.T) {
			run := func(virt bool) taskrt.Graph {
				p := powersTestPlanner(n, pieces, virt, mat)
				p.grain = 0 // Gram's partials launch per piece, as the sweep always does
				plan := NewPowersPlan(p, depth)
				dsts := make([]VecID, depth)
				for i := range dsts {
					dsts[i] = p.AllocateWorkspace(RhsShape)
				}
				plan.Sweep(dsts, RHS, nil)
				p.Gram(append([]VecID{RHS}, dsts...)...)
				p.Drain()
				if err := p.Runtime().Err(); err != nil {
					t.Fatalf("virt=%v runtime error: %v", virt, err)
				}
				return p.Runtime().Graph()
			}
			if real, virt := run(false), run(true); !contractedEqual(t, real, virt) {
				t.Errorf("launched %d tasks real vs %d virtual, and they do not contract to one graph", real.Len(), virt.Len())
			}
		})
	}
}

func TestGramMatchesIndividualDots(t *testing.T) {
	const n, pieces = 96, 3
	lap := sparse.Laplacian2D(12, 8)
	p := powersTestPlanner(n, pieces, false, lap)
	a := p.AllocateWorkspace(RhsShape)
	b := p.AllocateWorkspace(RhsShape)
	p.Copy(a, RHS)
	p.Matmul(b, RHS)
	vs := []VecID{RHS, a, b}
	g := p.Gram(vs...)
	want := make([][]*Scalar, len(vs))
	for i := range vs {
		want[i] = make([]*Scalar, len(vs))
		for j := range vs {
			want[i][j] = p.Dot(vs[i], vs[j])
		}
	}
	p.Drain()
	for i := range vs {
		for j := range vs {
			if g[i][j].Value() != want[i][j].Value() {
				t.Errorf("G[%d][%d] = %g, individual dot %g", i, j,
					g[i][j].Value(), want[i][j].Value())
			}
			if g[i][j] != g[j][i] {
				t.Errorf("G[%d][%d] and G[%d][%d] are distinct scalars", i, j, j, i)
			}
		}
	}
}
