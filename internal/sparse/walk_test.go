package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// randVec returns n seeded normal entries.
func randVec(r *rand.Rand, n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// outVec is randVec with every other entry −0: −0 + 0 is +0, so a kernel
// that adds even a zero to an output its kernel set does not reach — a
// write outside the task's declared region — flips a sign bit.
func outVec(r *rand.Rand, n int64) []float64 {
	v := randVec(r, n)
	for i := 0; i < len(v); i += 2 {
		v[i] = math.Copysign(0, -1)
	}
	return v
}

// checkWalkIsPerIntervalCall requires MultiplyAddPart / MultiplyAddTPart
// over the whole of kset to equal, Float64bits for Float64bits, the same
// kernel called once per interval of kset, in the order its walk takes
// them (adjointPerInterval) — where a row-major kernel
// searches its owning row afresh each time instead of carrying a cursor —
// and to leave every output outside kset's image along the output
// relation bit for bit as it was: a planner task declares only that image,
// and a neighbouring task may be writing the rest — an empty row inside
// an interval included, which a zero sum must not touch.
func checkWalkIsPerIntervalCall(t *testing.T, label string, m Matrix, r *rand.Rand, kset index.IntervalSet) {
	t.Helper()
	rows, cols := m.Range().Size(), m.Domain().Size()
	x, w := randVec(r, cols), randVec(r, rows)
	y, z := outVec(r, rows), outVec(r, cols)
	y0, z0 := slices.Clone(y), slices.Clone(z)
	yEach, zEach := slices.Clone(y), slices.Clone(z)
	m.MultiplyAddPart(y, x, kset)
	m.MultiplyAddTPart(z, w, kset)
	for _, iv := range kset.Intervals() {
		m.MultiplyAddPart(yEach, x, index.Span(iv.Lo, iv.Hi))
	}
	adjointPerInterval(m, zEach, w, kset)
	for _, c := range []struct {
		dir              string
		walk, each, orig []float64
		img              index.IntervalSet
	}{{"A·x", y, yEach, y0, m.RowRelation().Image(kset)}, {"Aᵀ·x", z, zEach, z0, m.ColRelation().Image(kset)}} {
		for i := range c.walk {
			if math.Float64bits(c.walk[i]) != math.Float64bits(c.each[i]) {
				t.Fatalf("%s %s %s over %d intervals: [%d] = %v walking the set, %v per interval",
					label, m.Format(), c.dir, len(kset.Intervals()), i, c.walk[i], c.each[i])
			}
			if !c.img.Contains(int64(i)) && math.Float64bits(c.walk[i]) != math.Float64bits(c.orig[i]) {
				t.Fatalf("%s %s %s over %d intervals: [%d], outside the image, went from %v to %v",
					label, m.Format(), c.dir, len(kset.Intervals()), i, c.orig[i], c.walk[i])
			}
		}
	}
}

// adjointPerInterval calls m's adjoint kernel once per interval of kset,
// in the order its own walk takes them: a DIA-layout kernel (see
// walkDiagBlocks) from the last interval, an Auto tile by tile.
func adjointPerInterval(m Matrix, z, w []float64, kset index.IntervalSet) {
	ivs := kset.Intervals()
	switch m := m.(type) {
	case *Auto:
		for i := range m.tiles {
			t := &m.tiles[i]
			adjointPerInterval(t.mat, z[t.c0:t.c1], w[t.r0:t.r1], t.localKset(kset))
		}
		return
	case *DIA, *Band, *StencilOperator:
		ivs = slices.Clone(ivs)
		slices.Reverse(ivs)
	}
	for _, iv := range ivs {
		m.MultiplyAddTPart(z, w, index.Span(iv.Lo, iv.Hi))
	}
}

func TestKernelSetWalkIsPerIntervalCall(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	random := func(label string, ms []Matrix) {
		for _, m := range ms {
			for range 4 {
				for _, kset := range randomKernelSplit(r, m.Kernel().Size()) {
					checkWalkIsPerIntervalCall(t, label, m, r, kset)
				}
			}
		}
	}
	for range 20 {
		rows, cols := 2*(r.Int63n(6)+1), 2*(r.Int63n(6)+1)
		random("random", buildAll(rows, cols, randomCoords(r, rows, cols)))
	}

	// Empty rows at the start, in the middle and at the end (a whole empty
	// block row each, for BCSR), and empty columns for the column-major
	// views: the cursor must step over them between intervals.
	var coords []Coord
	for _, i := range []int64{2, 3, 6, 7} {
		for _, j := range []int64{1, 2, 4, 5, 6} {
			if r.Intn(4) != 0 {
				coords = append(coords, Coord{Row: i, Col: j, Val: r.NormFloat64()})
			}
		}
	}
	random("empty rows", buildAll(10, 8, coords))

	// The kernel sets a planner actually runs: the forward and adjoint
	// kernel pieces of lap2d:64x64 at 8 pieces — the adjoint ones are
	// preimages along the column relation, one interval per row they meet.
	// Dense is left out: 128 MB, and no cursor to carry.
	lap := Laplacian2D(64, 64)
	for _, name := range slices.Concat(Formats[1:], []string{"Auto"}) {
		m := Convert(lap, name)
		kpart := dpart.PreimagePartition(m.RowRelation(), index.EqualPartition(m.Range(), 8))
		kpartT := dpart.PreimagePartition(m.ColRelation(), index.EqualPartition(m.Domain(), 8))
		for c := range 8 {
			checkWalkIsPerIntervalCall(t, "lap2d:64x64 kpart", m, r, kpart.Piece(c))
			checkWalkIsPerIntervalCall(t, "lap2d:64x64 kpartT", m, r, kpartT.Piece(c))
		}
	}
}
