package sparse

import (
	"math"
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
		{Laplacian3D(3, 3, 3), 7*27 - 2*9*3},
		{Laplacian3D27(2, 2, 2), 8 * 8}, // every pair of cells in a 2x2x2 cube is adjacent
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
		Laplacian3D(2, 4, 2),
		Laplacian3D27(2, 2, 4),
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
	ppr := map[StencilKind]int64{Stencil1D3: 3, Stencil2D5: 5, Stencil3D7: 7, Stencil3D27: 27}
	for k, want := range ppr {
		if k.PointsPerRow() != want {
			t.Errorf("%v.PointsPerRow() = %d", k, k.PointsPerRow())
		}
	}
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
