package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomCSRMatrix builds a seeded random sparse matrix with roughly
// density·rows·cols nonzeros plus a guaranteed entry per row (so no
// format degenerates to an empty row structure). Values avoid exact
// cancellation to keep round trips informative.
func randomCSRMatrix(r *rand.Rand, rows, cols int64, density float64) *CSR {
	seen := map[[2]int64]bool{}
	var coords []Coord
	add := func(i, j int64) {
		if seen[[2]int64{i, j}] {
			return
		}
		seen[[2]int64{i, j}] = true
		coords = append(coords, Coord{Row: i, Col: j, Val: r.Float64()*4 - 2 + 0.01})
	}
	for i := int64(0); i < rows; i++ {
		add(i, r.Int63n(cols))
	}
	for k := 0; k < int(density*float64(rows*cols)); k++ {
		add(r.Int63n(rows), r.Int63n(cols))
	}
	return CSRFromCoords(rows, cols, coords)
}

// refProducts computes dense-reference y = Ax and z = Aᵀw.
func refProducts(d []float64, rows, cols int64, x, w []float64) (y, z []float64) {
	y = make([]float64, rows)
	z = make([]float64, cols)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			y[i] += d[i*cols+j] * x[j]
			z[j] += d[i*cols+j] * w[i]
		}
	}
	return y, z
}

func maxAbs(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestFormatPairConformance converts seeded random matrices through
// every ordered pair of storage formats — CSR → f1 → CSR → f2 — and
// checks that the f2 encoding's SpMV and SpMVᵀ match the dense
// reference to 1e-12. This is the property the solver stack depends on:
// any format can stand in for any other without changing the operator.
func TestFormatPairConformance(t *testing.T) {
	shapes := []struct{ rows, cols int64 }{
		{16, 16}, // square
		{12, 18}, // wide (even dims for the 2×2 block formats)
		{18, 12}, // tall
	}
	for _, sh := range shapes {
		r := rand.New(rand.NewSource(7*sh.rows + sh.cols))
		a := randomCSRMatrix(r, sh.rows, sh.cols, 0.15)
		dense := ToDense(a)
		x := make([]float64, sh.cols)
		w := make([]float64, sh.rows)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		for i := range w {
			w[i] = r.Float64()*2 - 1
		}
		wantY, wantZ := refProducts(dense, sh.rows, sh.cols, x, w)

		for _, f1 := range allFormats() {
			for _, f2 := range allFormats() {
				t.Run(fmt.Sprintf("%dx%d/%s_to_%s", sh.rows, sh.cols, f1, f2), func(t *testing.T) {
					m1 := convertAll(a, f1)
					// Recover CSR from the first format, then encode in the
					// second: exercises both f1's read-out (via its products)
					// and f2's kernels.
					m2 := convertAll(CSRFromMatrix(m1), f2)
					if rows, cols := Dims(m2); rows != sh.rows || cols != sh.cols {
						t.Fatalf("dims changed: %dx%d", rows, cols)
					}
					y := make([]float64, sh.rows)
					z := make([]float64, sh.cols)
					SpMV(m2, y, x)
					if d := maxAbs(y, wantY); d > 1e-12 {
						t.Errorf("SpMV off dense reference by %g", d)
					}
					SpMVT(m2, z, w)
					if d := maxAbs(z, wantZ); d > 1e-12 {
						t.Errorf("SpMVT off dense reference by %g", d)
					}
				})
			}
		}
	}
}

// TestCSRFromMatrixDropsPadding checks that recovering CSR from a
// padded format (ELL fill, block fill) keeps only true nonzeros.
func TestCSRFromMatrixDropsPadding(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomCSRMatrix(r, 16, 16, 0.1)
	for _, f := range []string{"ELL", "BCSR", "BCSC", "Dense"} {
		m := Convert(a, f)
		back := CSRFromMatrix(m)
		if back.NNZ() != a.NNZ() {
			t.Errorf("%s round trip: %d nonzeros, want %d", f, back.NNZ(), a.NNZ())
		}
		if d := maxAbs(ToDense(back), ToDense(a)); d != 0 {
			t.Errorf("%s round trip changed values by %g", f, d)
		}
	}
}
