package solvers

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// denseSolve solves Ax = b by Gaussian elimination with partial pivoting,
// as the ground truth for small systems.
func denseSolve(a sparse.Matrix, b []float64) []float64 {
	rows, cols := sparse.Dims(a)
	if rows != cols {
		panic("denseSolve: square only")
	}
	n := int(rows)
	m := sparse.ToDense(a)
	x := append([]float64{}, b...)
	for k := 0; k < n; k++ {
		// Pivot.
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i*n+k]) > math.Abs(m[piv*n+k]) {
				piv = i
			}
		}
		if piv != k {
			for j := 0; j < n; j++ {
				m[k*n+j], m[piv*n+j] = m[piv*n+j], m[k*n+j]
			}
			x[k], x[piv] = x[piv], x[k]
		}
		for i := k + 1; i < n; i++ {
			f := m[i*n+k] / m[k*n+k]
			for j := k; j < n; j++ {
				m[i*n+j] -= f * m[k*n+j]
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= m[i*n+j] * x[j]
		}
		x[i] /= m[i*n+i]
	}
	return x
}

// planFor builds a single-operator planner for Ax = b with x0 = 0.
func planFor(a sparse.Matrix, b []float64, pieces int) *core.Planner {
	n := int64(len(b))
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), pieces))
	p.AddOperator(a, si, ri)
	p.Finalize()
	return p
}

// The set of solvers is stated once, in table: every name Names lists
// constructs through New and steps, and any other name — the unfused
// twins have constructors but no name — panics as unknown.
func TestNewConstructsExactlyNames(t *testing.T) {
	a := sparse.Laplacian2D(8, 8)
	if len(Names) != len(table) {
		t.Fatalf("Names has %d entries, table %d", len(Names), len(table))
	}
	for i, name := range Names {
		if table[i].name != name {
			t.Errorf("Names[%d] = %q, table says %q", i, name, table[i].name)
		}
		p := pcgPlanFor(a, fusedRHS(64), 2) // the preconditioner is for "pcg"
		New(name, p).Step()
		p.Drain()
		if err := p.Runtime().Err(); err != nil {
			t.Errorf("%s: first step failed: %v", name, err)
		}
	}
	p := pcgPlanFor(a, fusedRHS(64), 2)
	for _, name := range []string{"cg-unfused", "pcg-unfused", "bicgstab-unfused", "sor", ""} {
		func() {
			defer func() {
				want := fmt.Sprintf("solvers: unknown solver %q", name)
				if got := recover(); got != want {
					t.Errorf("New(%q) panicked with %v, want %q", name, got, want)
				}
			}()
			New(name, p)
		}()
	}
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

// convectionDiffusion builds a nonsymmetric 1D convection-diffusion
// matrix: tridiagonal with -1-c, 2, -1+c entries.
func convectionDiffusion(n int64, c float64) *sparse.CSR {
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		if i > 0 {
			coords = append(coords, sparse.Coord{Row: i, Col: i - 1, Val: -1 - c})
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 2.4})
		if i < n-1 {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1, Val: -1 + c})
		}
	}
	return sparse.CSRFromCoords(n, n, coords)
}

func TestCGSolvesPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, pieces := range []int{1, 4} {
		a := sparse.Laplacian2D(6, 6)
		b := make([]float64, 36)
		for i := range b {
			b[i] = r.Float64()
		}
		want := denseSolve(a, b)
		p := planFor(a, b, pieces)
		s := NewCG(p)
		res := Solve(p, s, 1e-10, 200)
		p.Drain()
		if !res.Converged {
			t.Fatalf("pieces=%d: CG did not converge: %+v", pieces, res)
		}
		if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-8 {
			t.Errorf("pieces=%d: CG solution off by %g", pieces, d)
		}
	}
}

func TestCGOnAllStencils(t *testing.T) {
	cases := []sparse.Matrix{
		sparse.Laplacian1D(30),
		sparse.Laplacian2D(5, 6),
		sparse.Stencil(sparse.Stencil3D7, index.NewGrid(3, 3, 3)),
		sparse.Stencil(sparse.Stencil3D27, index.NewGrid(3, 3, 3)),
	}
	for _, a := range cases {
		n, _ := sparse.Dims(a)
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		want := denseSolve(a, b)
		p := planFor(a, b, 3)
		res := Solve(p, NewCG(p), 1e-10, 500)
		p.Drain()
		if !res.Converged {
			t.Errorf("%s: CG failed: %+v", a.Format(), res)
			continue
		}
		if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-7 {
			t.Errorf("%s: solution off by %g", a.Format(), d)
		}
	}
}

func TestCGMatrixFreeOperator(t *testing.T) {
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(5, 5))
	ref := sparse.Laplacian2D(5, 5)
	b := make([]float64, 25)
	for i := range b {
		b[i] = float64(i%3) + 1
	}
	want := denseSolve(ref, b)
	p := planFor(op, b, 4)
	res := Solve(p, NewCG(p), 1e-10, 200)
	p.Drain()
	if !res.Converged {
		t.Fatalf("CG on matrix-free operator failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-8 {
		t.Errorf("solution off by %g", d)
	}
}

func TestCGResidualMonotoneInANorm(t *testing.T) {
	// CG property: the A-norm of the error decreases monotonically on SPD
	// systems.
	a := sparse.Laplacian1D(24)
	b := make([]float64, 24)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 2)
	s := NewCG(p)
	prev := math.Inf(1)
	for it := 0; it < 24; it++ {
		s.Step()
		p.Drain()
		x := p.VecData(core.SOL, 0)
		// e_A² = (x-x*)ᵀ A (x-x*).
		e := make([]float64, 24)
		for i := range e {
			e[i] = x[i] - want[i]
		}
		ae := make([]float64, 24)
		sparse.SpMV(a, ae, e)
		var eA float64
		for i := range e {
			eA += e[i] * ae[i]
		}
		if eA > prev*(1+1e-9) {
			t.Fatalf("A-norm error grew at iteration %d: %g > %g", it, eA, prev)
		}
		prev = eA
	}
}

func TestBiCGStabSolvesNonsymmetric(t *testing.T) {
	a := convectionDiffusion(40, 0.4)
	b := make([]float64, 40)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 4)
	res := Solve(p, NewBiCGStab(p), 1e-10, 300)
	p.Drain()
	if !res.Converged {
		t.Fatalf("BiCGStab failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-7 {
		t.Errorf("solution off by %g", d)
	}
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	a := convectionDiffusion(30, 0.3)
	b := make([]float64, 30)
	for i := range b {
		b[i] = float64((i*7)%11) / 3
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 3)
	s := NewGMRES(p, 10)
	// Convergence measure updates at restart boundaries; run whole cycles.
	RunIterations(s, 120)
	p.Drain()
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-6 {
		t.Errorf("GMRES solution off by %g", d)
	}
}

func TestGMRESRestartBoundary(t *testing.T) {
	// The residual measure must shrink across restart cycles.
	a := sparse.Laplacian1D(50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = 1
	}
	p := planFor(a, b, 2)
	s := NewGMRES(p, 5)
	r0 := math.Sqrt(s.ConvergenceMeasure().Value())
	RunIterations(s, 25) // five full cycles
	r1 := math.Sqrt(s.ConvergenceMeasure().Value())
	if r1 >= r0 {
		t.Fatalf("residual did not shrink: %g -> %g", r0, r1)
	}
}

func TestMINRESSolvesSPD(t *testing.T) {
	a := sparse.Laplacian2D(5, 5)
	b := make([]float64, 25)
	for i := range b {
		b[i] = float64(i%4) - 1.5
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 3)
	res := Solve(p, NewMINRES(p), 1e-9, 300)
	p.Drain()
	if !res.Converged {
		t.Fatalf("MINRES failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-6 {
		t.Errorf("solution off by %g", d)
	}
}

func TestMINRESSolvesIndefinite(t *testing.T) {
	// Symmetric indefinite: diagonal blocks of +2 and −2 coupled weakly —
	// CG would fail here, MINRES must not.
	n := int64(20)
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		v := 2.0
		if i%2 == 1 {
			v = -2.0
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: v})
		if i+1 < n {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1, Val: 0.3})
			coords = append(coords, sparse.Coord{Row: i + 1, Col: i, Val: 0.3})
		}
	}
	a := sparse.CSRFromCoords(n, n, coords)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 2)
	res := Solve(p, NewMINRES(p), 1e-9, 200)
	p.Drain()
	if !res.Converged {
		t.Fatalf("MINRES on indefinite system failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-6 {
		t.Errorf("solution off by %g", d)
	}
}

func TestBiCGSolvesNonsymmetric(t *testing.T) {
	a := convectionDiffusion(24, 0.2)
	b := make([]float64, 24)
	for i := range b {
		b[i] = float64(i) / 7
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 3)
	res := Solve(p, NewBiCG(p), 1e-10, 200)
	p.Drain()
	if !res.Converged {
		t.Fatalf("BiCG failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-7 {
		t.Errorf("solution off by %g", d)
	}
}

func TestPCGWithJacobi(t *testing.T) {
	// Badly scaled SPD system: diag(1..n) + Laplacian coupling. Jacobi
	// preconditioning must converge and beat plain CG's iteration count.
	n := int64(40)
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 2 + float64(i)})
		if i+1 < n {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1, Val: -1})
			coords = append(coords, sparse.Coord{Row: i + 1, Col: i, Val: -1})
		}
	}
	a := sparse.CSRFromCoords(n, n, coords)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	want := denseSolve(a, b)

	plain := planFor(a, b, 2)
	plainRes := Solve(plain, NewCG(plain), 1e-10, 500)
	plain.Drain()

	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), 2))
	ri := p.AddRHSVector(append([]float64{}, b...), index.EqualPartition(index.NewSpace("R", n), 2))
	p.AddOperator(a, si, ri)
	diag := make([]sparse.Coord, n)
	for i := int64(0); i < n; i++ {
		diag[i] = sparse.Coord{Row: i, Col: i, Val: 1 / (2 + float64(i))}
	}
	p.AddPreconditioner(sparse.CSRFromCoords(n, n, diag), si, ri)
	p.Finalize()
	res := Solve(p, NewPCG(p), 1e-10, 500)
	p.Drain()
	if !res.Converged {
		t.Fatalf("PCG failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-7 {
		t.Errorf("solution off by %g", d)
	}
	if res.Iterations >= plainRes.Iterations {
		t.Errorf("Jacobi PCG (%d iters) should beat CG (%d iters) on this system",
			res.Iterations, plainRes.Iterations)
	}
}

func TestMultiOperatorCGMatchesSingle(t *testing.T) {
	// Solving the Figure 9 split formulation must give the same answer as
	// the assembled system.
	const nx, ny = 8, 4
	n := int64(nx * ny)
	full := sparse.Laplacian2D(nx, ny)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i))
	}
	want := denseSolve(full, b)

	half := n / 2
	var blocks [2][2][]sparse.Coord
	for _, c := range sparse.CoordsFromCSR(full) {
		bi, bj := c.Row/half, c.Col/half
		blocks[bi][bj] = append(blocks[bi][bj],
			sparse.Coord{Row: c.Row % half, Col: c.Col % half, Val: c.Val})
	}
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	d1 := p.AddSolVector(make([]float64, half), index.EqualPartition(index.NewSpace("D1", half), 2))
	d2 := p.AddSolVector(make([]float64, half), index.EqualPartition(index.NewSpace("D2", half), 2))
	r1 := p.AddRHSVector(append([]float64{}, b[:half]...), index.EqualPartition(index.NewSpace("R1", half), 2))
	r2 := p.AddRHSVector(append([]float64{}, b[half:]...), index.EqualPartition(index.NewSpace("R2", half), 2))
	sols, rhss := []int{d1, d2}, []int{r1, r2}
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			p.AddOperator(sparse.CSRFromCoords(half, half, blocks[bi][bj]), sols[bj], rhss[bi])
		}
	}
	p.Finalize()
	res := Solve(p, NewCG(p), 1e-10, 300)
	p.Drain()
	if !res.Converged {
		t.Fatalf("multi-operator CG failed: %+v", res)
	}
	got := append(append([]float64{}, p.VecData(core.SOL, 0)...), p.VecData(core.SOL, 1)...)
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("multi-operator solution off by %g", d)
	}
}

func TestSolverRegistry(t *testing.T) {
	a := sparse.Laplacian1D(10)
	for _, name := range Names {
		b := make([]float64, 10)
		for i := range b {
			b[i] = 1
		}
		p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
		si := p.AddSolVector(make([]float64, 10), index.Partition{})
		ri := p.AddRHSVector(b, index.Partition{})
		p.AddOperator(a, si, ri)
		if name == "pcg" {
			diag := make([]sparse.Coord, 10)
			for i := range diag {
				diag[i] = sparse.Coord{Row: int64(i), Col: int64(i), Val: 0.5}
			}
			p.AddPreconditioner(sparse.CSRFromCoords(10, 10, diag), si, ri)
		}
		p.Finalize()
		s := New(name, p)
		if s.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
		// Few enough steps that Krylov exact convergence (n = 10) is not
		// reached — stepping past it divides 0/0 by design.
		RunIterations(s, 5)
		p.Drain()
		res := math.Sqrt(s.ConvergenceMeasure().Value())
		if math.IsNaN(res) {
			t.Errorf("%s: residual is NaN", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown solver should panic")
		}
	}()
	New("nope", nil)
}

func TestSolverPanicsOnNonSquare(t *testing.T) {
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	p.AddSolVector(make([]float64, 3), index.Partition{})
	p.AddRHSVector(make([]float64, 5), index.Partition{})
	p.AddOperator(sparse.CSRFromCoords(5, 3, []sparse.Coord{{Row: 0, Col: 0, Val: 1}}), 0, 0)
	p.Finalize()
	for _, mk := range []func(){
		func() { NewCG(p) },
		func() { NewBiCGStab(p) },
		func() { NewGMRES(p, 5) },
		func() { NewMINRES(p) },
		func() { NewBiCG(p) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected non-square panic")
				}
			}()
			mk()
		}()
	}
}

func TestSolveConvergedImmediately(t *testing.T) {
	// b = 0 with x0 = 0 converges in zero iterations.
	a := sparse.Laplacian1D(8)
	p := planFor(a, make([]float64, 8), 1)
	res := Solve(p, NewCG(p), 1e-12, 10)
	p.Drain()
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("expected immediate convergence, got %+v", res)
	}
}

func TestCGSSolvesNonsymmetric(t *testing.T) {
	a := convectionDiffusion(36, 0.25)
	b := make([]float64, 36)
	for i := range b {
		b[i] = 1 + float64(i%4)
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 3)
	res := Solve(p, NewCGS(p), 1e-10, 300)
	p.Drain()
	if !res.Converged {
		t.Fatalf("CGS failed: %+v", res)
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-6 {
		t.Errorf("solution off by %g", d)
	}
}

func TestCGSMatchesBiCGStabSolution(t *testing.T) {
	// Different transpose-free methods, same answer.
	a := convectionDiffusion(28, 0.15)
	b := make([]float64, 28)
	for i := range b {
		b[i] = math.Sin(float64(i) / 3)
	}
	p1 := planFor(a, append([]float64{}, b...), 2)
	p2 := planFor(a, append([]float64{}, b...), 2)
	r1 := Solve(p1, NewCGS(p1), 1e-11, 400)
	r2 := Solve(p2, NewBiCGStab(p2), 1e-11, 400)
	p1.Drain()
	p2.Drain()
	if !r1.Converged || !r2.Converged {
		t.Fatalf("convergence: cgs=%+v bicgstab=%+v", r1, r2)
	}
	if d := maxAbsDiff(p1.VecData(core.SOL, 0), p2.VecData(core.SOL, 0)); d > 1e-7 {
		t.Errorf("solutions differ by %g", d)
	}
}

func TestGMRESHappyBreakdown(t *testing.T) {
	// A diagonal matrix with k distinct eigenvalues: the Krylov space
	// K(A, r0) has dimension k, so GMRES(10) exhausts it ("happy
	// breakdown") well before the restart boundary. The Arnoldi
	// normalization must not divide by the vanished h_{j+1,j} — doing so
	// NaN-poisons the basis and the reported residual — and the short
	// cycle must end the way a full one does (arnoldi.close): solved,
	// restarted, its trace scope closed.
	for _, tc := range []struct {
		name   string
		eigs   []float64
		n      int
		pieces int
	}{
		{"1x1", []float64{3}, 1, 1},
		{"two_eigenvalues", []float64{5, 2}, 6, 3},
		{"three_eigenvalues", []float64{5, 2, 7}, 9, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := make([]float64, tc.n)
			b := make([]float64, tc.n)
			for i := range d {
				d[i] = tc.eigs[i%len(tc.eigs)]
				b[i] = float64(i + 1)
			}
			a := sparse.DiagonalCSR(d)
			want := denseSolve(a, b)
			p := tracedPlanFor(a, b, tc.pieces)
			s := NewGMRES(p, 10)
			// One step per eigenvalue spans the invariant subspace; the last
			// of them must have closed the cycle on the breakdown path.
			RunIterations(s, len(tc.eigs))
			if s.j != 0 || s.tr {
				t.Fatalf("after %d steps the cycle is still open: j=%d, trace scope open=%v", len(tc.eigs), s.j, s.tr)
			}
			res := Solve(p, s, 1e-10, 50)
			if math.IsNaN(res.Residual) {
				t.Fatalf("residual is NaN after breakdown: %+v", res)
			}
			if !res.Converged || res.Iterations != 0 {
				t.Fatalf("the breakdown cycle's solution is exact, yet Solve reports %+v", res)
			}
			// A scope left open would make this step's TraceBegin panic
			// ("must not nest").
			s.Step()
			p.Drain()
			if err := p.Runtime().Err(); err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(p.VecData(core.SOL, 0), want); diff > 1e-8 {
				t.Errorf("solution off by %g", diff)
			}
		})
	}
}
