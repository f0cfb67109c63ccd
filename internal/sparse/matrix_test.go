package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// randomCoords generates a random sparse matrix as coordinates with no
// duplicate positions.
func randomCoords(r *rand.Rand, rows, cols int64) []Coord {
	n := r.Intn(int(rows*cols)/2 + 1)
	seen := make(map[[2]int64]bool)
	var out []Coord
	for i := 0; i < n; i++ {
		pos := [2]int64{r.Int63n(rows), r.Int63n(cols)}
		if seen[pos] {
			continue
		}
		seen[pos] = true
		out = append(out, Coord{Row: pos[0], Col: pos[1], Val: r.NormFloat64()})
	}
	return out
}

// denseFromCoords builds the reference dense array.
func denseFromCoords(rows, cols int64, coords []Coord) []float64 {
	out := make([]float64, rows*cols)
	for _, c := range coords {
		out[c.Row*cols+c.Col] += c.Val
	}
	return out
}

func densesEqual(a, b []float64, tol float64) bool {
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

// buildAll constructs the same matrix in every storage format.
func buildAll(rows, cols int64, coords []Coord) []Matrix {
	csr := CSRFromCoords(rows, cols, coords)
	ms := []Matrix{
		csr,
		COOFromCoords(rows, cols, coords),
		Convert(csr, "CSC"),
		ELLFromCSR(csr),
		Convert(csr, "ELL'"),
		DIAFromCSR(csr),
		DenseFromMatrix(csr),
	}
	if rows%2 == 0 && cols%2 == 0 {
		ms = append(ms, BCSRFromCSR(csr, 2, 2), Convert(csr, "BCSC"))
	}
	return ms
}

// blockDiagViews returns BlockDiag(m, 3) for every format of the matrix
// and for an AutoSelectBands composite of it, with the 3-fold tiled
// coordinates the views must equal.
func blockDiagViews(rows, cols int64, coords []Coord) (views []Matrix, tiled []Coord) {
	ms := append(buildAll(rows, cols, coords), AutoSelectBands(CSRFromCoords(rows, cols, coords), rowBands(rows, 0, rows/3, rows/2)))
	for _, m := range ms {
		views = append(views, BlockDiag(m, 3))
	}
	for b := int64(0); b < 3; b++ {
		for _, c := range coords {
			tiled = append(tiled, Coord{Row: b*rows + c.Row, Col: b*cols + c.Col, Val: c.Val})
		}
	}
	return views, tiled
}

// randomKernelSplit cuts [0, klen) at seeded random points and deals the
// runs to a few kernel sets, so each set holds several non-adjacent
// intervals. A third of the runs are single points and the rest have
// lengths from a few slots to half the kernel space, so cuts land inside
// rows, diagonals and blocks, and padding slots end up alone in a run.
func randomKernelSplit(r *rand.Rand, klen int64) []index.IntervalSet {
	sets := make([]index.IntervalSet, r.Intn(4)+1)
	for lo := int64(0); lo < klen; {
		n := int64(1)
		if r.Intn(3) != 0 {
			n += r.Int63n([]int64{4, 16, klen/2 + 1}[r.Intn(3)])
		}
		hi := min(lo+n, klen) - 1
		sets[r.Intn(len(sets))].AddInterval(index.Interval{Lo: lo, Hi: hi})
		lo = hi + 1
	}
	return sets
}

// checkRangeKernels is the range-kernel contract of one matrix, forward
// and transposed: range-kernel calls over a random split of K sum to the
// dense reference products wantY = A·x and wantZ = Aᵀ·w.
func checkRangeKernels(t *testing.T, m Matrix, r *rand.Rand, x, w, wantY, wantZ []float64) {
	t.Helper()
	klen := m.Kernel().Size()
	y := make([]float64, len(wantY))
	z := make([]float64, len(wantZ))
	for _, kset := range randomKernelSplit(r, klen) {
		m.MultiplyAddPart(y, x, kset)
		m.MultiplyAddTPart(z, w, kset)
	}
	// 1e-12 relative to the products' size (entries here reach 4096).
	zero := make([]float64, max(len(y), len(z)))
	if d := maxAbs(y, wantY); d > 1e-12*max(1, maxAbs(wantY, zero)) {
		t.Errorf("%s: range kernels over a random split off dense reference by %g", m.Format(), d)
	}
	if d := maxAbs(z, wantZ); d > 1e-12*max(1, maxAbs(wantZ, zero)) {
		t.Errorf("%s: adjoint range kernels over a random split off dense reference by %g", m.Format(), d)
	}
}

func TestQuickFormatEquivalence(t *testing.T) {
	// Property (Figure 3): every storage format defines the same linear
	// transformation, for both A·x and Aᵀ·x.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(6) + 1)
		cols := 2 * (r.Int63n(6) + 1)
		coords := randomCoords(r, rows, cols)
		want := denseFromCoords(rows, cols, coords)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xt := make([]float64, rows)
		for i := range xt {
			xt[i] = r.NormFloat64()
		}
		// Reference products.
		wy := make([]float64, rows)
		wyt := make([]float64, cols)
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < cols; j++ {
				wy[i] += want[i*cols+j] * x[j]
				wyt[j] += want[i*cols+j] * xt[i]
			}
		}
		for _, m := range buildAll(rows, cols, coords) {
			if !densesEqual(ToDense(m), want, 1e-12) {
				t.Logf("%s dense mismatch (seed %d)", m.Format(), seed)
				return false
			}
			y := make([]float64, rows)
			MultiplyAdd(m, y, x)
			if !densesEqual(y, wy, 1e-12) {
				t.Logf("%s MultiplyAdd mismatch (seed %d)", m.Format(), seed)
				return false
			}
			yt := make([]float64, cols)
			MultiplyAddT(m, yt, xt)
			if !densesEqual(yt, wyt, 1e-12) {
				t.Logf("%s MultiplyAddT mismatch (seed %d)", m.Format(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartitionedMultiplyAdd(t *testing.T) {
	// Property (Section 3.1): splitting the kernel space into any
	// partition and summing the per-piece restricted multiply-adds equals
	// the whole product, for every format.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(5) + 1)
		cols := 2 * (r.Int63n(5) + 1)
		coords := randomCoords(r, rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		w := make([]float64, rows)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		wantY, wantZ := refProducts(denseFromCoords(rows, cols, coords), rows, cols, x, w)
		for _, m := range buildAll(rows, cols, coords) {
			checkRangeKernels(t, m, r, x, w, wantY, wantZ)
		}
		// The block-diagonal views against the CSR of the tiled entries.
		views, tiled := blockDiagViews(rows, cols, coords)
		ref := CSRFromCoords(3*rows, 3*cols, tiled)
		bx, bw := randVec(r, 3*cols), randVec(r, 3*rows)
		bY, bZ := make([]float64, 3*rows), make([]float64, 3*cols)
		MultiplyAdd(ref, bY, bx)
		MultiplyAddT(ref, bZ, bw)
		for _, m := range views {
			checkRangeKernels(t, m, r, bx, bw, bY, bZ)
		}
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRelationsMatchEntries(t *testing.T) {
	// Property: for every format, the row/col relations agree with where
	// MultiplyAdd actually reads and writes — Image of the full kernel
	// covers exactly the rows/cols with stored entries (padding formats
	// may cover more rows/cols, but never fewer).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(5) + 1)
		cols := 2 * (r.Int63n(5) + 1)
		coords := randomCoords(r, rows, cols)
		if len(coords) == 0 {
			return true
		}
		covers := func(ms []Matrix, coords []Coord) bool {
			var wantRows, wantCols []int64
			for _, c := range coords {
				wantRows = append(wantRows, c.Row)
				wantCols = append(wantCols, c.Col)
			}
			rset := index.FromPoints(wantRows)
			cset := index.FromPoints(wantCols)
			for _, m := range ms {
				full := m.Kernel().Set
				if !m.RowRelation().Image(full).ContainsSet(rset) {
					t.Logf("%s row relation misses rows (seed %d)", m.Format(), seed)
					return false
				}
				if !m.ColRelation().Image(full).ContainsSet(cset) {
					t.Logf("%s col relation misses cols (seed %d)", m.Format(), seed)
					return false
				}
			}
			return true
		}
		views, tiled := blockDiagViews(rows, cols, coords)
		return covers(buildAll(rows, cols, coords), coords) && covers(views, tiled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoPartitioningSoundness(t *testing.T) {
	// The paper's central soundness claim: given a disjoint partition P of
	// R, each piece y_c of y = Ax is computable from only the kernel piece
	// row[R→K][P](c) and the domain piece col[K→D][row[R→K][P]](c).
	// We verify by masking: zero out x outside the derived domain piece,
	// run the restricted multiply-add, and compare y on P(c).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(5) + 1)
		cols := 2 * (r.Int63n(5) + 1)
		coords := randomCoords(r, rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for _, m := range buildAll(rows, cols, coords) {
			want := make([]float64, rows)
			MultiplyAdd(m, want, x)
			pieces := r.Intn(3) + 1
			rp := index.EqualPartition(m.Range(), pieces)
			kp := dpart.RowRToK(m.RowRelation(), rp)
			dp := dpart.ColKToD(m.ColRelation(), kp)
			for c := 0; c < pieces; c++ {
				masked := make([]float64, cols)
				dp.Piece(c).Each(func(j int64) {
					if j >= 0 && j < cols {
						masked[j] = x[j]
					}
				})
				got := make([]float64, rows)
				m.MultiplyAddPart(got, masked, kp.Piece(c))
				ok := true
				rp.Piece(c).Each(func(i int64) {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						ok = false
					}
				})
				if !ok {
					t.Logf("%s co-partitioning unsound (seed %d, color %d)", m.Format(), seed, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockDiagStoresNothingPerNonzero pins BlockDiag as a view: building
// diag(m, m, m) allocates no more for a 20 000-entry m than for a
// 64-entry one, in every format. (BCSR builds its own relations on first
// use, once per operand; the warm-up call leaves that to m.)
func TestBlockDiagStoresNothingPerNonzero(t *testing.T) {
	// Bytes per call, the least of five rounds: a stray runtime
	// allocation can land in one round, not in all of them.
	alloc := func(m Matrix) uint64 {
		BlockDiag(m, 3)
		least := uint64(math.MaxUint64)
		for round := 0; round < 5; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 100; i++ {
				BlockDiag(m, 3)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/100)
		}
		return least
	}
	small := Laplacian2D(4, 4)
	large := Laplacian2D(64, 64)
	for _, f := range []string{"Dense", "COO", "CSR", "CSC", "ELL", "ELL'", "DIA", "BCSR", "BCSC"} {
		bs := alloc(Convert(small, f))
		if f == "Dense" {
			continue // a 4 096-row dense matrix is 128 MB; the small one suffices
		}
		if bl := alloc(Convert(large, f)); bl > bs {
			t.Errorf("%s: BlockDiag allocates %d B at nnz %d, %d B at nnz %d", f, bl, large.NNZ(), bs, small.NNZ())
		}
	}
	bs, bl := alloc(convertAll(small, "Auto")), alloc(convertAll(large, "Auto"))
	if bl > bs {
		t.Errorf("Auto: BlockDiag allocates %d B at nnz %d, %d B at nnz %d", bl, large.NNZ(), bs, small.NNZ())
	}
}

func TestShapePanics(t *testing.T) {
	a := Laplacian1D(4)
	for _, fn := range []func(){
		func() { MultiplyAdd(a, make([]float64, 3), make([]float64, 4)) },
		func() { MultiplyAddT(a, make([]float64, 4), make([]float64, 5)) },
		func() { SpMV(a, make([]float64, 5), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			fn()
		}()
	}
}
