package sparse

import (
	"math/rand"
	"testing"

	"kdrsolvers/internal/index"
)

// TestTransposedIsTheTwin holds the column-major views to what they
// claim: CSC, ELL′ and BCSC of A are the CSR, ELL and BCSR encodings of
// Aᵀ with the relation pair, the spaces and the kernel directions
// exchanged. On seeded nonsymmetric matrices of odd and even shape, every
// kernel point's value lands — forward and adjoint — at the coordinate
// its row and column relations name, those coordinates rebuild the dense
// matrix, range kernels over a random split of K match the dense
// reference, and the name, entry count and shape are the twin's.
func TestTransposedIsTheTwin(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, sh := range []struct{ rows, cols int64 }{{9, 14}, {14, 9}, {12, 10}, {7, 7}} {
		a := randomCSRMatrix(r, sh.rows, sh.cols, 0.2)
		dense := ToDense(a)
		x, w := make([]float64, sh.cols), make([]float64, sh.rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range w {
			w[i] = r.NormFloat64()
		}
		wantY, wantZ := refProducts(dense, sh.rows, sh.cols, x, w)
		for _, f := range formats {
			if f.twin == "" {
				continue
			}
			m := Convert(a, f.name)
			twin := Convert(transposeCSR(a), f.twin)
			if m.Format() != f.name || m.NNZ() != twin.NNZ() || m.Kernel().Size() != twin.Kernel().Size() {
				t.Errorf("%s %dx%d: Format %q, NNZ %d, |K| %d; twin %s of the transpose has NNZ %d, |K| %d",
					f.name, sh.rows, sh.cols, m.Format(), m.NNZ(), m.Kernel().Size(), f.twin, twin.NNZ(), twin.Kernel().Size())
			}
			if rows, cols := Dims(m); rows != sh.rows || cols != sh.cols {
				t.Fatalf("%s: dims %dx%d, want %dx%d", f.name, rows, cols, sh.rows, sh.cols)
			}
			if m.RowRelation().Right().Size() != sh.rows || m.ColRelation().Right().Size() != sh.cols {
				t.Errorf("%s: relations land in spaces of %d rows and %d columns, want %d and %d", f.name,
					m.RowRelation().Right().Size(), m.ColRelation().Right().Size(), sh.rows, sh.cols)
			}

			// Kernel point by kernel point: where the kernels put a stored
			// value is where the relations say it sits.
			rebuilt := make([]float64, len(dense))
			ones := make([]float64, max(sh.rows, sh.cols))
			for i := range ones {
				ones[i] = 1
			}
			for k := int64(0); k < m.Kernel().Size(); k++ {
				kset := index.FromPoints([]int64{k})
				y, z := make([]float64, sh.rows), make([]float64, sh.cols)
				m.MultiplyAddPart(y, ones[:sh.cols], kset)
				m.MultiplyAddTPart(z, ones[:sh.rows], kset)
				i, j := soleNonzero(y), soleNonzero(z)
				if i < 0 || j < 0 {
					if i != j {
						t.Fatalf("%s: kernel point %d is stored forward but not adjoint (or the reverse)", f.name, k)
					}
					continue // padding slot
				}
				if !m.RowRelation().Image(kset).Equal(index.FromPoints([]int64{i})) {
					t.Fatalf("%s: kernel point %d writes row %d, row relation says %v", f.name, k, i, m.RowRelation().Image(kset))
				}
				if !m.ColRelation().Image(kset).Equal(index.FromPoints([]int64{j})) {
					t.Fatalf("%s: kernel point %d reads column %d, column relation says %v", f.name, k, j, m.ColRelation().Image(kset))
				}
				if y[i] != z[j] {
					t.Fatalf("%s: kernel point %d holds %g forward and %g adjoint", f.name, k, y[i], z[j])
				}
				rebuilt[i*sh.cols+j] += y[i]
			}
			if d := maxAbs(rebuilt, dense); d != 0 {
				t.Errorf("%s: entries placed by the relations differ from the dense matrix by %g", f.name, d)
			}
			checkRangeKernels(t, m, r, x, w, wantY, wantZ)
		}
	}
}

// soleNonzero returns the index of the one nonzero of v, −1 when v is
// all zero; more than one is a test bug.
func soleNonzero(v []float64) int64 {
	at := int64(-1)
	for i, e := range v {
		if e != 0 {
			if at >= 0 {
				panic("more than one nonzero")
			}
			at = int64(i)
		}
	}
	return at
}
