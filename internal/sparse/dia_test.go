package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// diaOracle is the DIA product as a plain sweep over kset: every
// in-matrix kernel slot adds its term to its output, in ascending kernel
// order forward and in descending kernel order adjoint. Each output
// therefore receives its terms in ascending row order, one rounding per
// term — the order the blocked, grouped kernel promises to reproduce bit
// for bit, and the order csr adds them in.
func diaOracle(a *DIA, y, x []float64, kset index.IntervalSet, adjoint bool) {
	ivs := kset.Intervals()
	for n := range ivs {
		iv, k, step := ivs[n], ivs[n].Lo, int64(1)
		if adjoint {
			iv = ivs[len(ivs)-1-n]
			k, step = iv.Hi, -1
		}
		for ; k >= iv.Lo && k <= iv.Hi; k += step {
			j := k % a.cols
			i := j - a.offsets[k/a.cols]
			if i < 0 || i >= a.rows {
				continue // padding
			}
			if adjoint {
				y[j] += a.vals[k] * x[i]
			} else {
				y[i] += a.vals[k] * x[j]
			}
		}
	}
}

// checkDIAOrder requires MultiplyAddPart and MultiplyAddTPart over kset to
// equal diaOracle Float64bits for Float64bits. The outputs start as
// outVec, so a kernel that touches an output outside kset's image — which
// the oracle never does — flips a −0 canary.
func checkDIAOrder(t *testing.T, label string, a *DIA, r *rand.Rand, kset index.IntervalSet) {
	t.Helper()
	x, w := randVec(r, a.cols), randVec(r, a.rows)
	y, z := outVec(r, a.rows), outVec(r, a.cols)
	wantY, wantZ := slices.Clone(y), slices.Clone(z)
	a.MultiplyAddPart(y, x, kset)
	a.MultiplyAddTPart(z, w, kset)
	diaOracle(a, wantY, x, kset, false)
	diaOracle(a, wantZ, w, kset, true)
	for _, c := range []struct {
		dir       string
		got, want []float64
	}{{"A·x", y, wantY}, {"Aᵀ·x", z, wantZ}} {
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s %s over %d intervals: [%d] = %v, kernel-order sweep %v",
					label, c.dir, kset.NumIntervals(), i, c.got[i], c.want[i])
			}
		}
	}
}

// randomDIA returns a rows × cols DIA matrix on nDiag distinct ascending
// diagonals drawn from [−spread, spread] (clipped to the matrix), with
// normal entries and zero padding.
func randomDIA(r *rand.Rand, rows, cols int64, nDiag int, spread int64) *DIA {
	lo, hi := max(-spread, -(rows-1)), min(spread, cols-1)
	var offsets []int64
	for _, d := range r.Perm(int(hi - lo + 1))[:min(nDiag, int(hi-lo+1))] {
		offsets = append(offsets, lo+int64(d))
	}
	slices.Sort(offsets)
	vals := make([]float64, int64(len(offsets))*cols)
	for b, off := range offsets {
		for j := int64(0); j < cols; j++ {
			if i := j - off; i >= 0 && i < rows {
				vals[int64(b)*cols+j] = r.NormFloat64()
			}
		}
	}
	return NewDIA(rows, cols, offsets, vals)
}

func TestDIAKernelOrder(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	whole := func(a *DIA) index.IntervalSet { return index.Span(0, a.Kernel().Size()-1) }

	// Random kernel splits over several output blocks: segments start and
	// stop inside blocks, so groups of three cover a block only partly
	// and leave per-diagonal edges on either side.
	for range 12 {
		rows, cols := 1000+r.Int63n(2500), 1000+r.Int63n(2500)
		a := randomDIA(r, rows, cols, 3+r.Intn(6), 2+r.Int63n(1200))
		checkDIAOrder(t, "random whole", a, r, whole(a))
		for _, kset := range randomKernelSplit(r, a.Kernel().Size()) {
			checkDIAOrder(t, "random split", a, r, kset)
		}
	}

	// More diagonals than a segment batch holds: a batch ends inside what
	// would otherwise be a group of three.
	for _, nDiag := range []int{33, 40, 70} {
		a := randomDIA(r, 3000, 3000, nDiag, int64(nDiag))
		checkDIAOrder(t, "wide band whole", a, r, whole(a))
		for _, kset := range randomKernelSplit(r, a.Kernel().Size()) {
			checkDIAOrder(t, "wide band split", a, r, kset)
		}
	}

	// The kernel sets a planner runs: lap2d at 8 pieces, forward pieces
	// (preimages of the row pieces) and adjoint ones (of the column
	// pieces), two output blocks per piece.
	a := DIAFromCSR(Laplacian2D(128, 128))
	kpart := dpart.PreimagePartition(a.RowRelation(), index.EqualPartition(a.Range(), 8))
	kpartT := dpart.PreimagePartition(a.ColRelation(), index.EqualPartition(a.Domain(), 8))
	for c := range 8 {
		checkDIAOrder(t, "lap2d:128x128 kpart", a, r, kpart.Piece(c))
		checkDIAOrder(t, "lap2d:128x128 kpartT", a, r, kpartT.Piece(c))
	}
}
