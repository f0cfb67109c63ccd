package sparse

import (
	"math"
	"slices"
	"testing"

	"kdrsolvers/internal/index"
)

func TestLaplacian1DStructure(t *testing.T) {
	a := Laplacian1D(5)
	if r, c := Dims(a); r != 5 || c != 5 {
		t.Fatalf("dims = %d x %d", r, c)
	}
	if a.NNZ() != 3*5-2 {
		t.Fatalf("nnz = %d", a.NNZ())
	}
	d := ToDense(a)
	for i := int64(0); i < 5; i++ {
		for j := int64(0); j < 5; j++ {
			want := 0.0
			switch {
			case i == j:
				want = 2
			case i == j+1 || j == i+1:
				want = -1
			}
			if d[i*5+j] != want {
				t.Errorf("A[%d,%d] = %g, want %g", i, j, d[i*5+j], want)
			}
		}
	}
}

func TestLaplacian2DRowSums(t *testing.T) {
	// Interior rows sum to zero; boundary rows have positive row sums
	// (Dirichlet truncation). The matrix is symmetric.
	a := Laplacian2D(4, 5)
	n := int64(4 * 5)
	d := ToDense(a)
	g := index.NewGrid(4, 5)
	for i := int64(0); i < 4; i++ {
		for j := int64(0); j < 5; j++ {
			row := g.Linearize(i, j)
			var sum float64
			for c := int64(0); c < n; c++ {
				sum += d[row*n+c]
			}
			interior := i > 0 && i < 3 && j > 0 && j < 4
			if interior && sum != 0 {
				t.Errorf("interior row (%d,%d) sum = %g", i, j, sum)
			}
			if !interior && sum <= 0 {
				t.Errorf("boundary row (%d,%d) sum = %g", i, j, sum)
			}
		}
	}
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			if d[i*n+j] != d[j*n+i] {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

func TestLaplacianNNZCounts(t *testing.T) {
	cases := []struct {
		m    *CSR
		want int64
	}{
		{Laplacian1D(10), 3*10 - 2},
		{Laplacian2D(4, 4), 5*16 - 2*4 - 2*4},
		{Stencil(Stencil3D7, index.NewGrid(3, 3, 3)), 7*27 - 2*9*3},
		{Stencil(Stencil3D27, index.NewGrid(2, 2, 2)), 8 * 8}, // every pair of cells in a 2x2x2 cube is adjacent
	}
	for i, c := range cases {
		if got := c.m.NNZ(); got != c.want {
			t.Errorf("case %d: nnz = %d, want %d", i, got, c.want)
		}
	}
}

func TestStencilDiagonalDominance(t *testing.T) {
	// All four stencils produce weakly diagonally dominant symmetric
	// matrices (hence SPD up to boundary effects).
	mats := []*CSR{
		Laplacian1D(8),
		Laplacian2D(4, 4),
		Stencil(Stencil3D7, index.NewGrid(2, 4, 2)),
		Stencil(Stencil3D27, index.NewGrid(2, 2, 4)),
	}
	for _, a := range mats {
		rows, cols := Dims(a)
		d := ToDense(a)
		for i := int64(0); i < rows; i++ {
			diag := d[i*cols+i]
			var off float64
			for j := int64(0); j < cols; j++ {
				if j != i {
					off += math.Abs(d[i*cols+j])
				}
			}
			if diag < off {
				t.Errorf("row %d not diagonally dominant: %g < %g", i, diag, off)
			}
		}
	}
}

func TestStencilDispatch(t *testing.T) {
	cases := []struct {
		kind StencilKind
		grid index.Grid
		nnz  int64
	}{
		{Stencil1D3, index.NewGrid(6), 16},
		{Stencil2D5, index.NewGrid(3, 3), 33},
		{Stencil3D7, index.NewGrid(2, 2, 2), 8 * 4},
		{Stencil3D27, index.NewGrid(2, 2, 2), 64},
	}
	for _, c := range cases {
		a := Stencil(c.kind, c.grid)
		if a.NNZ() != c.nnz {
			t.Errorf("%v: nnz = %d, want %d", c.kind, a.NNZ(), c.nnz)
		}
		if r, _ := Dims(a); r != c.grid.Size() {
			t.Errorf("%v: rows = %d, want %d", c.kind, r, c.grid.Size())
		}
	}
}

func TestGridFor(t *testing.T) {
	for _, kind := range []StencilKind{Stencil1D3, Stencil2D5, Stencil3D7, Stencil3D27} {
		for _, n := range []int64{64, 256, 4096} {
			g := kind.GridFor(n)
			if g.Rank() != kind.Rank() {
				t.Errorf("%v GridFor(%d) rank = %d", kind, n, g.Rank())
			}
			if g.Size() != n {
				t.Errorf("%v GridFor(%d) size = %d", kind, n, g.Size())
			}
		}
	}
}

func TestStencilKindStrings(t *testing.T) {
	names := map[StencilKind]string{
		Stencil1D3:  "3pt-1D",
		Stencil2D5:  "5pt-2D",
		Stencil3D7:  "7pt-3D",
		Stencil3D27: "27pt-3D",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if got := StencilKind(5).String(); got != "StencilKind(5)" {
		t.Errorf("StencilKind(5).String() = %q", got)
	}
}

// The generator builds, on every grid of extents 1–6 (1D, 2D) and 1–5
// (both 3D kinds) and on 512 × 512, the same rowptr, column indices and
// value bits as the hand-written per-kind reference builders below.
func TestStencilMatchesReference(t *testing.T) {
	type shape struct {
		kind StencilKind
		dims []int64
	}
	shapes := []shape{{Stencil2D5, []int64{512, 512}}}
	for i := int64(1); i <= 6; i++ {
		shapes = append(shapes, shape{Stencil1D3, []int64{i}})
		for j := int64(1); j <= 6; j++ {
			shapes = append(shapes, shape{Stencil2D5, []int64{i, j}})
		}
	}
	for i := int64(1); i <= 5; i++ {
		for j := int64(1); j <= 5; j++ {
			for k := int64(1); k <= 5; k++ {
				shapes = append(shapes, shape{Stencil3D7, []int64{i, j, k}}, shape{Stencil3D27, []int64{i, j, k}})
			}
		}
	}
	ref := map[StencilKind]func(d []int64) *CSR{
		Stencil1D3:  func(d []int64) *CSR { return refLaplacian1D(d[0]) },
		Stencil2D5:  func(d []int64) *CSR { return refLaplacian2D(d[0], d[1]) },
		Stencil3D7:  func(d []int64) *CSR { return refLaplacian3D(d[0], d[1], d[2]) },
		Stencil3D27: func(d []int64) *CSR { return refLaplacian3D27(d[0], d[1], d[2]) },
	}
	for _, sh := range shapes {
		got, want := Stencil(sh.kind, index.NewGrid(sh.dims...)), ref[sh.kind](sh.dims)
		if !slices.Equal(got.RowPtr(), want.RowPtr()) || !slices.Equal(got.ColIdx(), want.ColIdx()) ||
			!slices.EqualFunc(got.Vals(), want.Vals(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%v on %v differs from the reference builder", sh.kind, sh.dims)
		}
	}
}

// The table states each kind's rank, and the generator refuses a grid
// of another rank.
func TestStencilRankMismatchPanics(t *testing.T) {
	for k, want := range map[StencilKind]int{Stencil1D3: 1, Stencil2D5: 2, Stencil3D7: 3, Stencil3D27: 3} {
		if k.Rank() != want {
			t.Errorf("%v.Rank() = %d, want %d", k, k.Rank(), want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected a panic for a 2D grid under a 3D stencil")
		}
	}()
	Stencil(Stencil3D7, index.NewGrid(4, 4))
}

// refLaplacian1D is the reference 3-point Laplacian: diagonal 2,
// off-diagonals −1.
func refLaplacian1D(nx int64) *CSR {
	rowptr := make([]int64, nx+1)
	colIdx := make([]int64, 0, 3*nx)
	vals := make([]float64, 0, 3*nx)
	for i := int64(0); i < nx; i++ {
		rowptr[i] = int64(len(vals))
		if i > 0 {
			colIdx = append(colIdx, i-1)
			vals = append(vals, -1)
		}
		colIdx = append(colIdx, i)
		vals = append(vals, 2)
		if i < nx-1 {
			colIdx = append(colIdx, i+1)
			vals = append(vals, -1)
		}
	}
	rowptr[nx] = int64(len(vals))
	return NewCSR(nx, nx, rowptr, colIdx, vals)
}

// refLaplacian2D is the reference 5-point Laplacian on an nx × ny grid
// (diagonal 4, neighbors −1).
func refLaplacian2D(nx, ny int64) *CSR {
	g := index.NewGrid(nx, ny)
	n := g.Size()
	rowptr := make([]int64, n+1)
	colIdx := make([]int64, 0, 5*n)
	vals := make([]float64, 0, 5*n)
	add := func(c int64, v float64) {
		colIdx = append(colIdx, c)
		vals = append(vals, v)
	}
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < ny; j++ {
			row := g.Linearize(i, j)
			rowptr[row] = int64(len(vals))
			if i > 0 {
				add(g.Linearize(i-1, j), -1)
			}
			if j > 0 {
				add(g.Linearize(i, j-1), -1)
			}
			add(row, 4)
			if j < ny-1 {
				add(g.Linearize(i, j+1), -1)
			}
			if i < nx-1 {
				add(g.Linearize(i+1, j), -1)
			}
		}
	}
	rowptr[n] = int64(len(vals))
	return NewCSR(n, n, rowptr, colIdx, vals)
}

// refLaplacian3D is the reference 7-point Laplacian on an nx × ny × nz
// grid (diagonal 6, neighbors −1).
func refLaplacian3D(nx, ny, nz int64) *CSR {
	g := index.NewGrid(nx, ny, nz)
	n := g.Size()
	rowptr := make([]int64, n+1)
	colIdx := make([]int64, 0, 7*n)
	vals := make([]float64, 0, 7*n)
	add := func(c int64, v float64) {
		colIdx = append(colIdx, c)
		vals = append(vals, v)
	}
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < ny; j++ {
			for k := int64(0); k < nz; k++ {
				row := g.Linearize(i, j, k)
				rowptr[row] = int64(len(vals))
				if i > 0 {
					add(g.Linearize(i-1, j, k), -1)
				}
				if j > 0 {
					add(g.Linearize(i, j-1, k), -1)
				}
				if k > 0 {
					add(g.Linearize(i, j, k-1), -1)
				}
				add(row, 6)
				if k < nz-1 {
					add(g.Linearize(i, j, k+1), -1)
				}
				if j < ny-1 {
					add(g.Linearize(i, j+1, k), -1)
				}
				if i < nx-1 {
					add(g.Linearize(i+1, j, k), -1)
				}
			}
		}
	}
	rowptr[n] = int64(len(vals))
	return NewCSR(n, n, rowptr, colIdx, vals)
}

// refLaplacian3D27 is the reference 27-point Laplacian on an
// nx × ny × nz grid (diagonal 26, every other point of the 3 × 3 × 3
// cube −1).
func refLaplacian3D27(nx, ny, nz int64) *CSR {
	g := index.NewGrid(nx, ny, nz)
	n := g.Size()
	rowptr := make([]int64, n+1)
	colIdx := make([]int64, 0, 27*n)
	vals := make([]float64, 0, 27*n)
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < ny; j++ {
			for k := int64(0); k < nz; k++ {
				row := g.Linearize(i, j, k)
				rowptr[row] = int64(len(vals))
				for di := int64(-1); di <= 1; di++ {
					for dj := int64(-1); dj <= 1; dj++ {
						for dk := int64(-1); dk <= 1; dk++ {
							ii, jj, kk := i+di, j+dj, k+dk
							if !g.Contains(ii, jj, kk) {
								continue
							}
							if di == 0 && dj == 0 && dk == 0 {
								colIdx = append(colIdx, row)
								vals = append(vals, 26)
							} else {
								colIdx = append(colIdx, g.Linearize(ii, jj, kk))
								vals = append(vals, -1)
							}
						}
					}
				}
			}
		}
	}
	rowptr[n] = int64(len(vals))
	return NewCSR(n, n, rowptr, colIdx, vals)
}

func TestConvertDispatch(t *testing.T) {
	a := Laplacian2D(4, 4)
	want := ToDense(a)
	for _, f := range Formats {
		m := Convert(a, f)
		if m.Format() != f {
			t.Errorf("Convert(%q).Format() = %q", f, m.Format())
		}
		if !densesEqual(ToDense(m), want, 1e-12) {
			t.Errorf("Convert(%q) changed the matrix", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown format")
		}
	}()
	Convert(a, "XYZ")
}

func TestCSRAccessors(t *testing.T) {
	a := Laplacian1D(4)
	if len(a.RowPtr()) != 5 || len(a.ColIdx()) != int(a.NNZ()) || len(a.Vals()) != int(a.NNZ()) {
		t.Fatal("accessor lengths wrong")
	}
	if a.Kernel().Size() != a.NNZ() {
		t.Fatal("kernel size != nnz")
	}
	if a.Domain().Name != "D" || a.Range().Name != "R" {
		t.Fatal("space names wrong")
	}
}

func TestCoordsSumDuplicates(t *testing.T) {
	coords := []Coord{{1, 1, 2}, {1, 1, 3}, {0, 0, 1}}
	a := CSRFromCoords(2, 2, coords)
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 (duplicates summed)", a.NNZ())
	}
	d := ToDense(a)
	if d[1*2+1] != 5 || d[0] != 1 {
		t.Fatalf("dense = %v", d)
	}
	// A CSR wrapped around a repeated entry coalesces on its way to CSC.
	c := Convert(NewCSR(2, 2, []int64{0, 1, 3}, []int64{0, 1, 1}, []float64{1, 2, 3}), "CSC")
	if c.NNZ() != 2 || ToDense(c)[3] != 5 {
		t.Fatal("CSC duplicate merge failed")
	}
}
