package sparse

import (
	"math/rand"
	"testing"

	"kdrsolvers/internal/index"
)

func TestConstBandMatchesTridiagonal(t *testing.T) {
	// A tridiagonal matrix as a constant band must equal its CSR twin.
	n := int64(9)
	band := ConstBand(n, n, []int64{-1, 0, 1}, []float64{-1, 2, -1})
	ref := Laplacian1D(n)
	if !densesEqual(ToDense(band), ToDense(ref), 0) {
		t.Fatal("ConstBand tridiagonal != Laplacian1D")
	}
	if band.Format() != "Band" || band.NNZ() != 3*n {
		t.Fatalf("metadata: %s %d", band.Format(), band.NNZ())
	}
	if band.Kernel().Size() != 3*n || band.Domain().Size() != n || band.Range().Size() != n {
		t.Fatal("spaces wrong")
	}
}

func TestBandCoefficientFunction(t *testing.T) {
	// coeff can vary along the diagonal.
	n := int64(6)
	band := NewBand(n, n, []int64{0}, func(_ int, j int64) float64 { return float64(j + 1) })
	d := ToDense(band)
	for i := int64(0); i < n; i++ {
		if d[i*n+i] != float64(i+1) {
			t.Fatalf("diag[%d] = %g", i, d[i*n+i])
		}
	}
}

func TestBandNilCoeffIsZero(t *testing.T) {
	band := NewBand(4, 4, []int64{0, 1}, nil)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	MultiplyAdd(band, y, x)
	for _, v := range y {
		if v != 0 {
			t.Fatal("nil coeff must contribute nothing")
		}
	}
	// The relations are still live (structure-only use).
	if band.RowRelation().Preimage(index.Span(0, 3)).Empty() {
		t.Fatal("relations must reflect the band structure")
	}
}

func TestBandAdjointAndParts(t *testing.T) {
	n := int64(8)
	band := ConstBand(n, n, []int64{-2, 1}, []float64{3, -0.5})
	ref := DenseFromMatrix(band)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) - 3.5
	}
	want := make([]float64, n)
	MultiplyAddT(ref, want, x)
	got := make([]float64, n)
	MultiplyAddT(band, got, x)
	if !densesEqual(got, want, 1e-15) {
		t.Fatal("Band adjoint wrong")
	}
	// Range kernels over random splits sum to the products, forward and
	// adjoint.
	wantF := make([]float64, n)
	MultiplyAdd(ref, wantF, x)
	r := rand.New(rand.NewSource(8))
	for round := 0; round < 8; round++ {
		checkRangeKernels(t, band, r, x, x, wantF, want)
	}
}

func TestConstBandValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	ConstBand(4, 4, []int64{0, 1}, []float64{1})
}

func TestVirtualTileStructure(t *testing.T) {
	in := index.Interval{Lo: 10, Hi: 19}
	out := index.Interval{Lo: 30, Hi: 39}
	v := NewVirtualTile(100, 100, 50, in, out)
	if v.NNZ() != 50 || v.Format() != "VirtualTile" {
		t.Fatal("metadata wrong")
	}
	if v.Domain().Size() != 100 || v.Range().Size() != 100 || v.Kernel().Size() != 50 {
		t.Fatal("spaces wrong")
	}
	// The kernel reads exactly the input block and writes exactly the
	// output block.
	full := v.Kernel().Set
	if !v.ColRelation().Image(full).Equal(index.NewIntervalSet(in)) {
		t.Fatal("input block wrong")
	}
	if !v.RowRelation().Image(full).Equal(index.NewIntervalSet(out)) {
		t.Fatal("output block wrong")
	}
	// Preimages: touching the block involves the whole kernel; missing it
	// involves nothing.
	if !v.RowRelation().Preimage(index.Span(35, 35)).Equal(full) {
		t.Fatal("block preimage wrong")
	}
	if !v.ColRelation().Preimage(index.Span(0, 9)).Empty() {
		t.Fatal("outside preimage should be empty")
	}
}

func TestVirtualTileKernelsPanic(t *testing.T) {
	v := NewVirtualTile(4, 4, 2, index.Interval{Lo: 0, Hi: 1}, index.Interval{Lo: 2, Hi: 3})
	y := make([]float64, 4)
	x := make([]float64, 4)
	for _, fn := range []func(){
		func() { MultiplyAdd(v, y, x) },
		func() { MultiplyAddT(v, y, x) },
		func() { v.MultiplyAddPart(y, x, index.Span(0, 1)) },
		func() { v.MultiplyAddTPart(y, x, index.Span(0, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("structure-only kernels must panic")
				}
			}()
			fn()
		}()
	}
}
