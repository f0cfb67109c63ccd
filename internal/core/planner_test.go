package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sim"
	"kdrsolvers/internal/sparse"
)

// newTestPlanner builds a real-mode planner for Ax = b with the given
// number of vector pieces.
// convertAll is sparse.Convert over sparse.Formats plus "Auto", which
// tunes the four bands of a four-piece range partition.
func convertAll(a *sparse.CSR, f string) sparse.Matrix {
	if f == "Auto" {
		rows, _ := sparse.Dims(a)
		return sparse.AutoSelectBands(a, index.EqualPartition(index.NewSpace("R", rows), 4))
	}
	return sparse.Convert(a, f)
}

func newTestPlanner(t *testing.T, a sparse.Matrix, x, b []float64, pieces int) *Planner {
	t.Helper()
	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	n := int64(len(x))
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), pieces))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), pieces))
	p.AddOperator(a, si, ri)
	p.Finalize()
	return p
}

func randVec(r *rand.Rand, n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func vecsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatmulMatchesSpMV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := sparse.Laplacian2D(6, 6)
	x := randVec(r, 36)
	want := make([]float64, 36)
	sparse.SpMV(a, want, x)

	for _, pieces := range []int{1, 2, 3, 7} {
		xc := make([]float64, 36)
		copy(xc, x)
		p := newTestPlanner(t, a, xc, make([]float64, 36), pieces)
		y := p.AllocateWorkspace(RhsShape)
		p.Matmul(y, SOL)
		p.Drain()
		if !vecsClose(p.VecData(y, 0), want, 1e-12) {
			t.Errorf("pieces=%d: Matmul != SpMV", pieces)
		}
	}
}

func TestMatmulAllFormats(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	csr := sparse.Laplacian2D(4, 4)
	x := randVec(r, 16)
	want := make([]float64, 16)
	sparse.SpMV(csr, want, x)
	for _, f := range append(append([]string(nil), sparse.Formats...), "Auto") {
		m := convertAll(csr, f)
		xc := make([]float64, 16)
		copy(xc, x)
		p := newTestPlanner(t, m, xc, make([]float64, 16), 3)
		y := p.AllocateWorkspace(RhsShape)
		p.Matmul(y, SOL)
		p.Drain()
		if !vecsClose(p.VecData(y, 0), want, 1e-12) {
			t.Errorf("format %s: planner Matmul wrong", f)
		}
	}
}

func TestMatmulMatrixFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(5, 5))
	ref := sparse.Laplacian2D(5, 5)
	x := randVec(r, 25)
	want := make([]float64, 25)
	sparse.SpMV(ref, want, x)
	xc := make([]float64, 25)
	copy(xc, x)
	p := newTestPlanner(t, op, xc, make([]float64, 25), 4)
	y := p.AllocateWorkspace(RhsShape)
	p.Matmul(y, SOL)
	p.Drain()
	if !vecsClose(p.VecData(y, 0), want, 1e-12) {
		t.Error("matrix-free Matmul wrong")
	}
}

func TestMultiOperatorEqualsAssembled(t *testing.T) {
	// The Figure 9 formulation: a 2D Laplacian on a grid split into two
	// halves D1, D2 with four block operators must equal the
	// single-operator system.
	r := rand.New(rand.NewSource(4))
	const nx, ny = 6, 4
	n := int64(nx * ny)
	full := sparse.Laplacian2D(nx, ny)
	x := randVec(r, n)
	want := make([]float64, n)
	sparse.SpMV(full, want, x)

	// Split rows/cols at the midpoint (row-block halves of the grid).
	half := n / 2
	var blocks [2][2][]sparse.Coord
	for _, c := range sparse.CoordsFromCSR(full) {
		bi, bj := c.Row/half, c.Col/half
		blocks[bi][bj] = append(blocks[bi][bj],
			sparse.Coord{Row: c.Row % half, Col: c.Col % half, Val: c.Val})
	}

	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	x1, x2 := make([]float64, half), make([]float64, half)
	copy(x1, x[:half])
	copy(x2, x[half:])
	d1 := p.AddSolVector(x1, index.EqualPartition(index.NewSpace("D1", half), 2))
	d2 := p.AddSolVector(x2, index.EqualPartition(index.NewSpace("D2", half), 2))
	r1 := p.AddRHSVector(make([]float64, half), index.EqualPartition(index.NewSpace("R1", half), 2))
	r2 := p.AddRHSVector(make([]float64, half), index.EqualPartition(index.NewSpace("R2", half), 2))
	sols := []int{d1, d2}
	rhss := []int{r1, r2}
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			m := sparse.CSRFromCoords(half, half, blocks[bi][bj])
			p.AddOperator(m, sols[bj], rhss[bi])
		}
	}
	p.Finalize()
	if len(p.ops) != 4 || len(p.sol) != 2 {
		t.Fatal("system shape wrong")
	}
	if !p.IsSquare() {
		t.Fatal("system should be square")
	}
	y := p.AllocateWorkspace(RhsShape)
	p.Matmul(y, SOL)
	p.Drain()
	got := append(append([]float64{}, p.VecData(y, 0)...), p.VecData(y, 1)...)
	if !vecsClose(got, want, 1e-12) {
		t.Error("multi-operator product != assembled product")
	}
}

func TestAliasedOperatorDoubles(t *testing.T) {
	// Section 4.2: adding the same matrix twice must double the product
	// without duplicating storage.
	r := rand.New(rand.NewSource(5))
	a := sparse.Laplacian1D(12)
	x := randVec(r, 12)
	want := make([]float64, 12)
	sparse.SpMV(a, want, x)
	for i := range want {
		want[i] *= 2
	}
	p := NewPlanner(Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", 12), 3))
	ri := p.AddRHSVector(make([]float64, 12), index.EqualPartition(index.NewSpace("R", 12), 3))
	p.AddOperator(a, si, ri)
	p.AddOperator(a, si, ri) // aliased: same physical matrix
	p.Finalize()
	y := p.AllocateWorkspace(RhsShape)
	p.Matmul(y, SOL)
	p.Drain()
	if !vecsClose(p.VecData(y, 0), want, 1e-12) {
		t.Error("aliased operators should sum")
	}
}

func TestMatmulTMatchesTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	// Non-symmetric rectangular-free test: use an asymmetric square matrix.
	coords := []sparse.Coord{}
	for i := int64(0); i < 10; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 2})
		if i+1 < 10 {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1, Val: -3})
		}
	}
	a := sparse.CSRFromCoords(10, 10, coords)
	x := randVec(r, 10)
	want := make([]float64, 10)
	sparse.SpMVT(a, want, x)

	xc := make([]float64, 10)
	p := newTestPlanner(t, a, xc, x, 2)
	y := p.AllocateWorkspace(SolShape)
	p.MatmulT(y, RHS)
	p.Drain()
	if !vecsClose(p.VecData(y, 0), want, 1e-12) {
		t.Error("MatmulT != transpose SpMV")
	}
}

func TestVectorOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := sparse.Laplacian1D(20)
	x := randVec(r, 20)
	b := randVec(r, 20)
	xs := append([]float64{}, x...)
	p := newTestPlanner(t, a, xs, b, 3)

	w := p.AllocateWorkspace(SolShape)
	p.Copy(w, SOL)
	p.Axpy(w, p.Constant(2), RHS)  // w = x + 2b
	p.Xpay(w, p.Constant(-1), SOL) // w = x - (x + 2b) = -2b
	p.Scal(w, p.Constant(-0.5))    // w = b
	p.Drain()
	if !vecsClose(p.VecData(w, 0), b, 1e-12) {
		t.Error("vector op chain wrong")
	}

	p.Zero(w)
	p.Drain()
	if !vecsClose(p.VecData(w, 0), make([]float64, 20), 0) {
		t.Error("Zero failed")
	}

	// Copy to itself is a no-op.
	p.Copy(w, w)
	p.Drain()
}

func TestDotAndScalars(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := sparse.Laplacian1D(15)
	x := randVec(r, 15)
	b := randVec(r, 15)
	var want float64
	for i := range x {
		want += x[i] * b[i]
	}
	xs := append([]float64{}, x...)
	p := newTestPlanner(t, a, xs, b, 4)
	d := p.Dot(SOL, RHS)
	if math.Abs(d.Value()-want) > 1e-12 {
		t.Errorf("Dot = %g, want %g", d.Value(), want)
	}
	// Scalar expression tree.
	q := p.Div(p.Mul(d, p.Constant(3)), p.Constant(2))
	if math.Abs(q.Value()-1.5*want) > 1e-12 {
		t.Errorf("scalar expr = %g", q.Value())
	}
	if v := p.Neg(d).Value(); math.Abs(v+want) > 1e-12 {
		t.Errorf("Neg = %g", v)
	}
	nrm := p.Sqrt(p.Dot(RHS, RHS))
	var bb float64
	for _, v := range b {
		bb += v * v
	}
	if math.Abs(nrm.Value()-math.Sqrt(bb)) > 1e-12 {
		t.Errorf("Sqrt(Dot) = %g", nrm.Value())
	}
	p.Drain()
}

func TestDotDeterminism(t *testing.T) {
	// Partial-dot reduction must be bitwise deterministic across runs.
	r := rand.New(rand.NewSource(9))
	x := randVec(r, 501)
	var first float64
	for trial := 0; trial < 5; trial++ {
		a := sparse.Laplacian1D(501)
		xc := append([]float64{}, x...)
		p := newTestPlanner(t, a, xc, make([]float64, 501), 7)
		v := p.Dot(SOL, SOL).Value()
		p.Drain()
		if trial == 0 {
			first = v
		} else if v != first {
			t.Fatalf("dot changed across runs: %g vs %g", v, first)
		}
	}
}

func TestPSolveJacobi(t *testing.T) {
	// A diagonal preconditioner: PSolve must scale componentwise.
	r := rand.New(rand.NewSource(10))
	a := sparse.Laplacian1D(8)
	b := randVec(r, 8)
	p := NewPlanner(Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(make([]float64, 8), index.EqualPartition(index.NewSpace("D", 8), 2))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", 8), 2))
	p.AddOperator(a, si, ri)
	// Jacobi: P = diag(A)^-1 = diag(1/2).
	diag := make([]sparse.Coord, 8)
	for i := range diag {
		diag[i] = sparse.Coord{Row: int64(i), Col: int64(i), Val: 0.5}
	}
	p.AddPreconditioner(sparse.CSRFromCoords(8, 8, diag), si, ri)
	p.Finalize()
	if !p.HasPreconditioner() {
		t.Fatal("HasPreconditioner = false")
	}
	z := p.AllocateWorkspace(SolShape)
	p.PSolve(z, RHS)
	p.Drain()
	want := make([]float64, 8)
	for i := range want {
		want[i] = b[i] / 2
	}
	if !vecsClose(p.VecData(z, 0), want, 1e-12) {
		t.Error("PSolve wrong")
	}
}

func TestPSolveWithoutPreconditionerPanics(t *testing.T) {
	p := newTestPlanner(t, sparse.Laplacian1D(4), make([]float64, 4), make([]float64, 4), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.PSolve(SOL, RHS)
}

func TestVirtualPlannerGraph(t *testing.T) {
	// Virtual planners record the same graph structure without storage.
	m := machine.Lassen(4)
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(1<<12, 1<<12))
	n := op.Domain().Size()
	p := NewPlanner(Config{Machine: m, Virtual: true})
	si := p.AddSolVector(nil, index.EqualPartition(index.NewSpace("D", n), 16))
	ri := p.AddRHSVector(nil, index.EqualPartition(index.NewSpace("R", n), 16))
	p.AddOperator(op, si, ri)
	p.Finalize()
	y := p.AllocateWorkspace(RhsShape)
	p.Matmul(y, SOL)
	d := p.Dot(y, y)
	_ = d.Value() // virtual scalars resolve to zero
	p.Drain()

	g := p.Runtime().Graph()
	if err := sim.Validate(g); err != nil {
		t.Fatal(err)
	}
	// 16 matmul (first-writer tasks zero inline) + 16 partial dots +
	// 1 reduce = 33 tasks.
	if g.Len() != 33 {
		t.Fatalf("graph has %d tasks, want 33", g.Len())
	}
	res := sim.Simulate(g, m, sim.Options{TaskOverhead: 15e-6})
	if res.Makespan <= 0 {
		t.Fatal("makespan must be positive")
	}
	if res.CommBytes == 0 {
		t.Fatal("a 16-piece stencil matmul must exchange halos across nodes")
	}
	if got := p.sol[0].space.Size(); len(p.sol) != 1 || got != n {
		t.Fatalf("domain has %d component(s), the first of %d unknowns, want 1 of %d", len(p.sol), got, n)
	}
}

func TestGraphHasScalarDataflow(t *testing.T) {
	// The axpy tasks reading a dot must depend on every one of its partial
	// tasks — directly on a real planner, which combines in the reader,
	// and through the dot.reduce task on a virtual one — so the simulator
	// charges the reduction barrier and no reader runs on a stale partial.
	a := sparse.Laplacian1D(16)
	real := newTestPlanner(t, a, make([]float64, 16), make([]float64, 16), 2)
	real.grain = 0
	virt := NewPlanner(Config{Machine: machine.Lassen(2), Virtual: true})
	virt.AddSolVector(nil, index.EqualPartition(index.NewSpace("D", 16), 2))
	virt.AddRHSVector(nil, index.EqualPartition(index.NewSpace("R", 16), 2))
	virt.AddOperator(a, 0, 0)
	virt.Finalize()
	for _, p := range []*Planner{real, virt} {
		p.Axpy(SOL, p.Dot(SOL, RHS), RHS)
		p.Drain()
		g, _ := contractScalars(p.Runtime().Graph())
		var partials []int64
		axpys := 0
		for _, n := range g.Nodes {
			switch n.Name {
			case "dot.partial":
				partials = append(partials, n.ID)
			case "axpy":
				axpys++
				for _, d := range partials {
					if !slices.Contains(n.Deps, d) {
						t.Errorf("virtual=%v: axpy %d does not depend on dot.partial %d — scalar dataflow missing from graph",
							p.Virtual(), n.ID, d)
					}
				}
			}
		}
		if len(partials) != 2 || axpys != 2 {
			t.Fatalf("virtual=%v: %d dot.partial and %d axpy tasks, want 2 and 2", p.Virtual(), len(partials), axpys)
		}
	}
}

func TestPlannerValidation(t *testing.T) {
	m := machine.Lassen(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("finalize empty", func() {
		NewPlanner(Config{Machine: m}).Finalize()
	})
	mustPanic("op before vectors", func() {
		p := NewPlanner(Config{Machine: m})
		p.AddOperator(sparse.Laplacian1D(4), 0, 0)
	})
	mustPanic("operator shape", func() {
		p := NewPlanner(Config{Machine: m})
		si := p.AddSolVector(make([]float64, 4), index.Partition{})
		ri := p.AddRHSVector(make([]float64, 4), index.Partition{})
		p.AddOperator(sparse.Laplacian1D(5), si, ri)
	})
	mustPanic("use before finalize", func() {
		p := NewPlanner(Config{Machine: m})
		p.AddSolVector(make([]float64, 4), index.Partition{})
		p.Zero(SOL)
	})
	mustPanic("double finalize", func() {
		p := NewPlanner(Config{Machine: m})
		p.AddSolVector(make([]float64, 4), index.Partition{})
		p.AddRHSVector(make([]float64, 4), index.Partition{})
		p.AddOperator(sparse.Laplacian1D(4), 0, 0)
		p.Finalize()
		p.Finalize()
	})
	mustPanic("aliased partition", func() {
		p := NewPlanner(Config{Machine: m})
		sp := index.NewSpace("D", 4)
		bad := index.NewPartition(sp, []index.IntervalSet{index.Span(0, 2), index.Span(2, 3)})
		p.AddSolVector(make([]float64, 4), bad)
	})
	mustPanic("real planner without data", func() {
		NewPlanner(Config{Machine: m}).AddSolVector(nil, index.EqualPartition(index.NewSpace("D", 4), 2))
	})
	mustPanic("virtual planner without data or partition", func() {
		NewPlanner(Config{Machine: m, Virtual: true}).AddRHSVector(nil, index.Partition{})
	})
}

func TestVirtualVectorTakesPartitionSize(t *testing.T) {
	// A virtual planner stores nothing: nil data gives a component of the
	// partition's size, and data, if passed, only gives its length.
	p := NewPlanner(Config{Machine: machine.Lassen(1), Virtual: true})
	si := p.AddSolVector(nil, index.EqualPartition(index.NewSpace("D", 12), 3))
	ri := p.AddRHSVector(make([]float64, 12), index.EqualPartition(index.NewSpace("R", 12), 3))
	if got := p.sol[si].space.Size(); got != 12 {
		t.Fatalf("sol component size %d, want 12", got)
	}
	if got := p.sol[si].part.NumColors(); got != 3 {
		t.Fatalf("sol component has %d pieces, want 3", got)
	}
	if got := p.rhs[ri].space.Size(); got != 12 {
		t.Fatalf("rhs component size %d, want 12", got)
	}
	p.AddOperator(sparse.Laplacian1D(12), si, ri)
	p.Finalize()
	p.Matmul(RHS, SOL)
	p.Drain()
	if got := p.Runtime().Graph().Len(); got != 3 {
		t.Fatalf("virtual product launched %d tasks, want one per range piece (3)", got)
	}
}

func TestNotSquare(t *testing.T) {
	p := NewPlanner(Config{Machine: machine.Lassen(1)})
	p.AddSolVector(make([]float64, 4), index.Partition{})
	p.AddRHSVector(make([]float64, 6), index.Partition{})
	coords := []sparse.Coord{{Row: 5, Col: 3, Val: 1}}
	p.AddOperator(sparse.CSRFromCoords(6, 4, coords), 0, 0)
	p.Finalize()
	if p.IsSquare() {
		t.Fatal("4x6 system reported square")
	}
}

// Config.VectorProc places vector pieces: colors count on across
// components in the order they are added, the default is color mod the
// machine's processor count, and a sweep runs each piece's task on the
// owner of the piece it writes.
func TestVectorProcPlacement(t *testing.T) {
	for _, c := range []struct {
		name     string
		proc     func(color int) int
		sol, rhs []int
	}{
		{"default", nil, []int{0, 1, 2, 3, 0, 1}, []int{2, 3, 0, 1, 2, 3}},
		{"custom", func(color int) int { return 7 - color%8 }, []int{7, 6, 5, 4, 3, 2}, []int{1, 0, 7, 6, 5, 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPlanner(Config{Machine: machine.Lassen(1), Virtual: true, VectorProc: c.proc})
			si := p.AddSolVector(nil, index.EqualPartition(index.NewSpace("D", 60), 6))
			ri := p.AddRHSVector(nil, index.EqualPartition(index.NewSpace("R", 60), 6))
			p.AddOperator(sparse.Laplacian1D(60), si, ri)
			p.Finalize()
			if !slices.Equal(p.sol[0].procs, c.sol) || !slices.Equal(p.rhs[0].procs, c.rhs) {
				t.Fatalf("procs: sol %v rhs %v, want %v and %v", p.sol[0].procs, p.rhs[0].procs, c.sol, c.rhs)
			}
			ws := p.AllocateWorkspace(SolShape)
			start := p.Runtime().Graph().Len()
			p.Copy(ws, SOL)
			p.Drain()
			var got []int
			for _, n := range p.Runtime().Graph().Nodes[start:] {
				got = append(got, n.Proc)
			}
			if !slices.Equal(got, c.sol) {
				t.Fatalf("copy tasks ran on %v, want the owners %v", got, c.sol)
			}
		})
	}
}
