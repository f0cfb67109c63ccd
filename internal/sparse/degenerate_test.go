package sparse

import (
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/index"
)

// allFormats is every Convert target, the adaptive composite included.
func allFormats() []string {
	return append(append([]string(nil), Formats...), "Auto")
}

// convertAll is Convert over allFormats: "Auto" tunes the four bands a
// four-piece planner cuts the range into.
func convertAll(a *CSR, f string) Matrix {
	if f == "Auto" {
		return AutoSelectBands(a, index.EqualPartition(index.NewSpace("R", a.rows), 4))
	}
	return Convert(a, f)
}

// rowBands is the partition of rows into the bands that begin at starts
// (ascending, the first 0): [starts[i], starts[i+1]), the last running
// to rows. Equal starts make empty pieces.
func rowBands(rows int64, starts ...int64) index.Partition {
	pieces := make([]index.IntervalSet, len(starts))
	for i, lo := range starts {
		hi := rows
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		pieces[i] = index.Span(lo, hi-1)
	}
	return index.NewPartition(index.NewSpace("R", rows), pieces)
}

// TestDegenerateShapes pushes the shapes that historically break sparse
// conversion code — single rows and columns, odd dimensions (the 2×2
// block formats used to panic here), fully empty matrices, and matrices
// with empty rows — through every storage format, checking SpMV and
// SpMVᵀ against the dense reference and checking that partial kernel
// products over a random split of K sum to the full product.
func TestDegenerateShapes(t *testing.T) {
	seeded := rand.New(rand.NewSource(29))
	cases := []struct {
		name       string
		rows, cols int64
		coords     []Coord
	}{
		{"1x1", 1, 1, []Coord{{Row: 0, Col: 0, Val: 2.5}}},
		{"1x1_zero", 1, 1, nil},
		{"1x7_row_vector", 1, 7, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 3, Val: -2}, {Row: 0, Col: 6, Val: 3}}},
		{"7x1_col_vector", 7, 1, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: -2}, {Row: 6, Col: 0, Val: 3}}},
		{"7x7_odd_square", 7, 7, []Coord{
			{Row: 0, Col: 0, Val: 4}, {Row: 1, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 2},
			{Row: 4, Col: 6, Val: 1.5}, {Row: 6, Col: 0, Val: -3}, {Row: 6, Col: 6, Val: 7}}},
		{"5x8_odd_by_even", 5, 8, []Coord{
			{Row: 0, Col: 7, Val: 1}, {Row: 2, Col: 0, Val: 2}, {Row: 2, Col: 4, Val: -1},
			{Row: 4, Col: 3, Val: 0.5}}},
		{"8x5_even_by_odd", 8, 5, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 3, Col: 4, Val: 2}, {Row: 7, Col: 2, Val: -2}}},
		{"6x6_zero_matrix", 6, 6, nil},
		{"8x8_empty_rows", 8, 8, []Coord{
			{Row: 2, Col: 1, Val: 1}, {Row: 2, Col: 5, Val: -1}, {Row: 5, Col: 5, Val: 2}}},
		{"3x9_one_dense_row", 3, 9, []Coord{
			{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: 3},
			{Row: 1, Col: 3, Val: 4}, {Row: 1, Col: 4, Val: 5}, {Row: 1, Col: 5, Val: 6},
			{Row: 1, Col: 6, Val: 7}, {Row: 1, Col: 7, Val: 8}, {Row: 1, Col: 8, Val: 9}}},
		// Nonsymmetric and not square: a view that exchanged the wrong
		// pair of anything is off here in both directions.
		{"9x14_random", 9, 14, CoordsFromCSR(randomCSRMatrix(seeded, 9, 14, 0.2))},
		{"14x9_random", 14, 9, CoordsFromCSR(randomCSRMatrix(seeded, 14, 9, 0.2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := CSRFromCoords(tc.rows, tc.cols, tc.coords)
			dense := ToDense(a)
			r := rand.New(rand.NewSource(11 * (tc.rows + tc.cols)))
			x := make([]float64, tc.cols)
			w := make([]float64, tc.rows)
			for i := range x {
				x[i] = r.Float64()*2 - 1
			}
			for i := range w {
				w[i] = r.Float64()*2 - 1
			}
			wantY, wantZ := refProducts(dense, tc.rows, tc.cols, x, w)

			for _, f := range allFormats() {
				t.Run(f, func(t *testing.T) {
					m := convertAll(a, f)
					if rows, cols := Dims(m); rows != tc.rows || cols != tc.cols {
						t.Fatalf("dims changed: %dx%d, want %dx%d", rows, cols, tc.rows, tc.cols)
					}
					y := make([]float64, tc.rows)
					z := make([]float64, tc.cols)
					SpMV(m, y, x)
					if d := maxAbs(y, wantY); d > 1e-12 {
						t.Errorf("SpMV off dense reference by %g", d)
					}
					SpMVT(m, z, w)
					if d := maxAbs(z, wantZ); d > 1e-12 {
						t.Errorf("SpMVT off dense reference by %g", d)
					}

					// Partial products must tile.
					checkRangeKernels(t, m, r, x, w, wantY, wantZ)
				})
			}
		})
	}
}

// TestBlockFormatsOddDims is the direct regression for the conversion
// panic: BCSR/BCSC conversion of odd-dimension matrices used to die on
// "block shape must divide the matrix dimensions".
func TestBlockFormatsOddDims(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, sh := range []struct{ rows, cols int64 }{{7, 7}, {7, 4}, {4, 7}, {1, 1}, {1, 6}, {9, 1}} {
		a := randomCSRMatrix(r, sh.rows, sh.cols, 0.3)
		for _, f := range []string{"BCSR", "BCSC"} {
			m := Convert(a, f) // must not panic
			if d := maxAbs(ToDense(m), ToDense(a)); d != 0 {
				t.Errorf("%s %dx%d changed values by %g", f, sh.rows, sh.cols, d)
			}
		}
	}
}

// TestDuplicateCOOEntries checks the assembly paths against repeated
// coordinates: a COO holding duplicates applies them additively, and
// every coalescing conversion sums them into one stored entry.
func TestDuplicateCOOEntries(t *testing.T) {
	coo := NewCOO(3, 3,
		[]int64{0, 0, 1, 2, 2, 2},
		[]int64{0, 0, 1, 2, 2, 0},
		[]float64{1, 2, 3, 4, -1, 5})
	want := []float64{
		3, 0, 0,
		0, 3, 0,
		5, 0, 3,
	}
	if d := maxAbs(ToDense(coo), want); d != 0 {
		t.Fatalf("duplicate COO product off by %g", d)
	}
	back := CSRFromMatrix(coo)
	if back.NNZ() != 4 {
		t.Errorf("CSRFromMatrix kept %d entries, want 4 coalesced", back.NNZ())
	}
	if d := maxAbs(ToDense(back), want); d != 0 {
		t.Errorf("coalesced round trip changed values by %g", d)
	}

	dup := []Coord{{Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 4}}
	if a := CSRFromCoords(3, 3, dup); a.NNZ() != 2 {
		t.Errorf("CSRFromCoords kept %d entries, want 2", a.NNZ())
	}

	// Every format built from the coalesced matrix agrees with the COO.
	x := []float64{0.5, -1, 2}
	wantY := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			wantY[i] += want[i*3+j] * x[j]
		}
	}
	for _, f := range allFormats() {
		y := make([]float64, 3)
		SpMV(convertAll(back, f), y, x)
		if d := maxAbs(y, wantY); d > 1e-12 {
			t.Errorf("%s from duplicate-built CSR off by %g", f, d)
		}
	}
}

// TestProfileFeatures pins the structural profile on a hand-built band
// matrix so the tuner's inputs stay trustworthy.
func TestProfileFeatures(t *testing.T) {
	// 4×4 tridiagonal with one empty row (row 2).
	a := CSRFromCoords(4, 4, []Coord{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 3, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 2},
	})
	p := ProfileRows(a, 0, 4)
	if p.Rows != 4 || p.Cols != 4 || p.NNZ != 7 {
		t.Fatalf("shape features: %+v", p)
	}
	if p.Diags != 3 {
		t.Errorf("Diags = %d, want 3", p.Diags)
	}
	if p.MaxRowLen != 3 {
		t.Errorf("MaxRowLen = %d, want 3", p.MaxRowLen)
	}
	// Rows 2 and 3 alone touch columns 2 and 3 only.
	if pb := ProfileRows(a, 2, 4); pb.MinCol != 2 || pb.MaxCol != 3 || pb.NNZ != 2 {
		t.Errorf("column span of rows [2,4): %+v, want columns [2,3] over 2 entries", pb)
	}

	// Empty band: every feature must stay finite and zero-valued.
	if pe := ProfileRows(a, 2, 2); pe.Rows != 0 || pe.NNZ != 0 {
		t.Errorf("empty band profile: %+v", pe)
	}
}

// profileRowsMaps is the map-per-entry ProfileRows this package used to
// run, kept as the reference the flat-array version must reproduce field
// for field.
func profileRowsMaps(a *CSR, r0, r1 int64) Profile {
	p := Profile{Rows: r1 - r0, Cols: a.cols}
	if p.Rows <= 0 {
		return p
	}
	diags := make(map[int64]struct{})
	p.MinCol = a.cols
	for i := r0; i < r1; i++ {
		rl := a.rowptr[i+1] - a.rowptr[i]
		if rl > p.MaxRowLen {
			p.MaxRowLen = rl
		}
		p.NNZ += rl
		li := i - r0
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			c := a.colIdx[k]
			if c < p.MinCol {
				p.MinCol = c
			}
			if c > p.MaxCol {
				p.MaxCol = c
			}
			diags[c-li] = struct{}{}
		}
	}
	if p.NNZ == 0 {
		p.MinCol = 0
	}
	p.Diags = int64(len(diags))
	return p
}

// TestProfileMatchesMapReference holds the flat-array profile to the map
// reference on banded, scattered and mixed structures, over the whole
// matrix and over every band of an odd band count (so band-local row
// offsets differ from the whole matrix's).
func TestProfileMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var banded, mixed []Coord
	for i := int64(0); i < 90; i++ {
		for _, off := range []int64{-7, -1, 0, 1, 2, 30} {
			if j := i + off; j >= 0 && j < 70 && (i+off)%5 != 0 {
				banded = append(banded, Coord{Row: i, Col: j, Val: 1})
			}
		}
	}
	for i := int64(0); i < 75; i++ {
		switch {
		case i < 20: // dense head
			for j := int64(0); j < 20; j++ {
				mixed = append(mixed, Coord{Row: i, Col: j, Val: 1})
			}
		case i%9 != 0: // tridiagonal tail with empty rows
			for _, j := range []int64{i - 1, i, i + 1} {
				if j < 75 {
					mixed = append(mixed, Coord{Row: i, Col: j, Val: 1})
				}
			}
		}
	}
	mats := map[string]*CSR{
		"lap2d":            Laplacian2D(9, 13),
		"banded_tall":      CSRFromCoords(90, 70, banded),
		"scattered_random": randomCSRMatrix(r, 61, 83, 0.05),
		"mixed_structure":  CSRFromCoords(75, 75, mixed),
		"empty":            CSRFromCoords(6, 4, nil),
	}
	for name, a := range mats {
		check := func(r0, r1 int64) {
			if got, want := ProfileRows(a, r0, r1), profileRowsMaps(a, r0, r1); got != want {
				t.Errorf("%s rows [%d,%d):\n got %+v\nwant %+v", name, r0, r1, got, want)
			}
		}
		check(0, a.rows)
		for b := int64(0); b < 7; b++ {
			check(a.rows*b/7, a.rows*(b+1)/7)
		}
	}
}

// TestSelectFormatSane checks the tuner returns a convertible format and
// picks the obviously right one on an extreme structure: a large banded
// matrix with fully occupied diagonals is DIA's best case.
func TestSelectFormatSane(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, sh := range []struct{ rows, cols int64 }{{1, 1}, {16, 16}, {7, 31}, {40, 3}} {
		a := randomCSRMatrix(r, sh.rows, sh.cols, 0.2)
		f, _ := selectFormatCost(ProfileRows(a, 0, a.rows))
		if f.build == nil || f.rate == 0 {
			t.Errorf("selectFormatCost returned %q, which the tuner does not rate", f.name)
		}
	}

	tri := Laplacian2D(64, 1) // pure tridiagonal, all three diagonals dense
	if f, _ := selectFormatCost(ProfileRows(tri, 0, tri.rows)); f.name != "DIA" {
		t.Errorf("tridiagonal selectFormatCost = %s, want DIA", f.name)
	}
}

// TestAutoSelectBands checks the composite against its source on a
// structurally mixed matrix: a dense block atop a diagonal tail, with
// band boundaries that do not align with the structure change.
func TestAutoSelectBands(t *testing.T) {
	var coords []Coord
	for i := int64(0); i < 64; i++ { // dense 64×64 head
		for j := int64(0); j < 64; j++ {
			coords = append(coords, Coord{Row: i, Col: j, Val: float64(i*64+j) + 0.5})
		}
	}
	for i := int64(64); i < 512; i++ { // tridiagonal tail
		coords = append(coords, Coord{Row: i, Col: i, Val: 4})
		coords = append(coords, Coord{Row: i, Col: i - 1, Val: -1})
		if i+1 < 512 {
			coords = append(coords, Coord{Row: i, Col: i + 1, Val: -1})
		}
	}
	a := CSRFromCoords(512, 512, coords)
	// Band boundaries deliberately misaligned with the structure change
	// at row 64: the head band must still get a dense-friendly format and
	// the tail bands a banded one, and the tiles' kernel offsets,
	// clipped relations, and split kernels must all line up.
	au := AutoSelectBands(a, rowBands(512, 0, 100, 300, 480))
	if got := len(au.SelectedFormats()); got < 2 {
		t.Fatalf("got %d band(s) %v, want a multi-format tiling", got, au.SelectedFormats())
	}
	// A band per nonempty piece, whatever the pieces' order: the same
	// partition with its pieces reversed and an empty one added tiles alike.
	fwd := rowBands(512, 0, 100, 300, 300, 480).Pieces()
	rev := make([]index.IntervalSet, len(fwd))
	for i, pc := range fwd {
		rev[len(fwd)-1-i] = pc
	}
	shuffled := AutoSelectBands(a, index.NewPartition(index.NewSpace("R", 512), rev))
	if got, want := shuffled.SelectedFormats(), au.SelectedFormats(); !slices.Equal(got, want) {
		t.Errorf("reversed partition with an empty piece tiles %v, want %v", got, want)
	}
	if au.NNZ() < a.NNZ() {
		t.Errorf("composite NNZ %d < source %d", au.NNZ(), a.NNZ())
	}
	if d := maxAbs(ToDense(au), ToDense(a)); d != 0 {
		t.Errorf("composite differs from source by %g", d)
	}
	// Range kernels over splits that straddle tile boundaries.
	r := rand.New(rand.NewSource(17))
	x, w := make([]float64, 512), make([]float64, 512)
	for i := range x {
		x[i], w[i] = r.NormFloat64(), r.NormFloat64()
	}
	wantY, wantZ := refProducts(ToDense(a), 512, 512, x, w)
	for round := 0; round < 4; round++ {
		checkRangeKernels(t, au, r, x, w, wantY, wantZ)
	}
	// The relations must cover the full kernel space.
	if au.RowRelation().Left().Size() != au.Kernel().Size() {
		t.Errorf("row relation covers %d of %d kernel points",
			au.RowRelation().Left().Size(), au.Kernel().Size())
	}
}
