package dpart

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kdrsolvers/internal/index"
)

// pair is an explicit (left, right) member of a relation, used as the
// naive ground truth for projection tests.
type pair struct{ i, j int64 }

func naiveImage(pairs []pair, s index.IntervalSet) index.IntervalSet {
	var pts []int64
	for _, p := range pairs {
		if s.Contains(p.i) {
			pts = append(pts, p.j)
		}
	}
	return index.FromPoints(pts)
}

func naivePreimage(pairs []pair, s index.IntervalSet) index.IntervalSet {
	var pts []int64
	for _, p := range pairs {
		if s.Contains(p.j) {
			pts = append(pts, p.i)
		}
	}
	return index.FromPoints(pts)
}

func randomQuery(r *rand.Rand, bound int64) index.IntervalSet {
	var s index.IntervalSet
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		lo := r.Int63n(bound)
		s.AddInterval(index.Interval{Lo: lo, Hi: lo + r.Int63n(bound/4+1)})
	}
	return s
}

// checkAgainstNaive cross-checks rel's Image and Preimage against the
// explicit pair list on several random query sets.
func checkAgainstNaive(t *testing.T, rel Relation, pairs []pair, r *rand.Rand) {
	t.Helper()
	lBound := rel.Left().Set.Bounds().Hi + 1
	rBound := rel.Right().Set.Bounds().Hi + 1
	if lBound <= 0 || rBound <= 0 {
		return
	}
	for trial := 0; trial < 8; trial++ {
		qs := randomQuery(r, lBound)
		got, want := rel.Image(qs), naiveImage(pairs, qs)
		if !got.Equal(want) {
			t.Fatalf("Image(%v) = %v, want %v", qs, got, want)
		}
		qt := randomQuery(r, rBound)
		got, want = rel.Preimage(qt), naivePreimage(pairs, qt)
		if !got.Equal(want) {
			t.Fatalf("Preimage(%v) = %v, want %v", qt, got, want)
		}
	}
}

func TestFnRelationExplicit(t *testing.T) {
	// f maps kernel points to columns of a tiny COO matrix.
	f := []int64{2, 0, 1, 2, 2, 4}
	rel := NewFnRelation("K", f, index.NewSpace("D", 5))
	if rel.Left().Size() != 6 || rel.Right().Size() != 5 {
		t.Fatal("space sizes wrong")
	}
	if got := rel.Image(index.Span(0, 2)); !got.Equal(index.Span(0, 2)) {
		t.Errorf("Image = %v", got)
	}
	if got := rel.Preimage(index.Span(2, 2)); !got.Equal(index.FromPoints([]int64{0, 3, 4})) {
		t.Errorf("Preimage = %v", got)
	}
	// Column 3 has no entries.
	if got := rel.Preimage(index.Span(3, 3)); !got.Empty() {
		t.Errorf("Preimage of empty column = %v", got)
	}
	if rel.At(5) != 4 {
		t.Errorf("At(5) = %d", rel.At(5))
	}
}

func TestQuickFnRelation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Int63n(50) + 1
		m := r.Int63n(30) + 1
		fn := make([]int64, n)
		pairs := make([]pair, n)
		for i := range fn {
			fn[i] = r.Int63n(m)
			pairs[i] = pair{int64(i), fn[i]}
		}
		rel := NewFnRelation("K", fn, index.NewSpace("D", m))
		checkAgainstNaive(t, rel, pairs, r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRelationExplicit(t *testing.T) {
	// CSR rowptr with an empty row in the middle: rows 0..3 own kernel
	// intervals [0,1], [], [2,4], [5,5].
	ptr := []int64{0, 2, 2, 5, 6}
	rel := NewSegmentRelation("K", ptr, "R")
	if rel.Left().Size() != 6 || rel.Right().Size() != 4 {
		t.Fatal("space sizes wrong")
	}
	if got := rel.Segment(2); got != (index.Interval{Lo: 2, Hi: 4}) {
		t.Errorf("Segment(2) = %v", got)
	}
	// Kernel [1,2] touches rows 0 and 2, skipping empty row 1.
	if got := rel.Image(index.Span(1, 2)); !got.Equal(index.FromPoints([]int64{0, 2})) {
		t.Errorf("Image = %v", got)
	}
	// Preimage of all rows is all of K.
	if got := rel.Preimage(index.Span(0, 3)); !got.Equal(index.Span(0, 5)) {
		t.Errorf("Preimage = %v", got)
	}
	// Preimage of the empty row is empty.
	if got := rel.Preimage(index.Span(1, 1)); !got.Empty() {
		t.Errorf("Preimage(empty row) = %v", got)
	}
}

func TestQuickSegmentRelation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := r.Int63n(20) + 1
		ptr := make([]int64, rows+1)
		for j := int64(1); j <= rows; j++ {
			ptr[j] = ptr[j-1] + r.Int63n(4) // rows of 0-3 entries
		}
		var pairs []pair
		for j := int64(0); j < rows; j++ {
			for k := ptr[j]; k < ptr[j+1]; k++ {
				pairs = append(pairs, pair{k, j})
			}
		}
		rel := NewSegmentRelation("K", ptr, "R")
		if rel.Left().Size() == 0 {
			return true
		}
		checkAgainstNaive(t, rel, pairs, r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDivRelation(t *testing.T) {
	// Dense 3x4: row = k / 4.
	rel := NewDivRelation("K", 3, 4, "R")
	if got := rel.Image(index.Span(5, 9)); !got.Equal(index.Span(1, 2)) {
		t.Errorf("Image = %v", got)
	}
	if got := rel.Preimage(index.Span(1, 1)); !got.Equal(index.Span(4, 7)) {
		t.Errorf("Preimage = %v", got)
	}
}

func TestQuickDivModRelations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		blocks := r.Int63n(6) + 1
		q := r.Int63n(6) + 1
		var divPairs, modPairs []pair
		for i := int64(0); i < blocks*q; i++ {
			divPairs = append(divPairs, pair{i, i / q})
			modPairs = append(modPairs, pair{i, i % q})
		}
		div := NewDivRelation("K", blocks, q, "R")
		mod := NewModRelation("K", blocks, q, "D")
		checkAgainstNaive(t, div, divPairs, r)
		checkAgainstNaive(t, mod, modPairs, r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagRelation(t *testing.T) {
	// Tridiagonal 4x4: offsets -1, 0, +1; d = 4 columns.
	offsets := []int64{-1, 0, 1}
	rel := NewDiagRelation("K", offsets, 4, 4, "R")
	if rel.Left().Size() != 12 {
		t.Fatalf("left size = %d", rel.Left().Size())
	}
	// Block 0 (offset -1): kernel (0,i) -> row i+1; column 3 -> row 4 is
	// out of range, so kernel point 3 relates to nothing... rather kernel
	// point k=i with i=3 -> row 3-(-1)=4, clipped.
	if got := rel.Image(index.Span(0, 3)); !got.Equal(index.Span(1, 4-1)) {
		t.Errorf("Image block0 = %v", got)
	}
	// Row 0 is produced by: block1 (offset 0) kernel 4+0, block2
	// (offset 1) kernel 8+1.
	if got := rel.Preimage(index.Span(0, 0)); !got.Equal(index.FromPoints([]int64{4, 9})) {
		t.Errorf("Preimage row0 = %v", got)
	}
}

func TestQuickDiagRelation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := r.Int63n(10) + 1
		rows := r.Int63n(10) + 1
		nDiag := r.Intn(4) + 1
		offsets := make([]int64, nDiag)
		var pairs []pair
		for b := range offsets {
			offsets[b] = r.Int63n(2*d+1) - d
			for i := int64(0); i < d; i++ {
				j := i - offsets[b]
				if j >= 0 && j < rows {
					pairs = append(pairs, pair{int64(b)*d + i, j})
				}
			}
		}
		rel := NewDiagRelation("K", offsets, d, rows, "R")
		checkAgainstNaive(t, rel, pairs, r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConcat(t *testing.T) {
	// A Concat of random members — implicit and explicit, with left
	// spaces laid end to end and right points shifted — must project like
	// the explicit list of shifted pairs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rightSize := r.Int63n(20) + 8
		var parts []ConcatPart
		var pairs []pair
		var leftOff int64
		for m := r.Intn(4) + 1; m > 0; m-- {
			rows := r.Int63n(6) + 1
			rightOff := r.Int63n(rightSize - rows + 1)
			var rel Relation
			var local []pair
			switch r.Intn(3) {
			case 0: // DIA rows: padding slots relate to nothing
				d := r.Int63n(6) + 1
				offsets := []int64{r.Int63n(2*d+1) - d, r.Int63n(2*d+1) - d}
				for b, off := range offsets {
					for i := int64(0); i < d; i++ {
						if j := i - off; j >= 0 && j < rows {
							local = append(local, pair{int64(b)*d + i, j})
						}
					}
				}
				rel = NewDiagRelation("K", offsets, d, rows, "R")
			case 1: // ELL rows
				q := r.Int63n(3) + 1
				for i := int64(0); i < rows*q; i++ {
					local = append(local, pair{i, i / q})
				}
				rel = NewDivRelation("K", rows, q, "R")
			default: // explicit array, possibly empty
				fn := make([]int64, r.Intn(8))
				for i := range fn {
					fn[i] = r.Int63n(rows)
					local = append(local, pair{int64(i), fn[i]})
				}
				rel = NewFnRelation("K", fn, index.NewSpace("R", rows))
			}
			parts = append(parts, ConcatPart{Rel: rel, RightOff: rightOff})
			for _, p := range local {
				pairs = append(pairs, pair{leftOff + p.i, rightOff + p.j})
			}
			leftOff += rel.Left().Size()
		}
		rel := NewConcat("K", parts, index.NewSpace("R", rightSize))
		if rel.Left().Size() != leftOff {
			t.Fatalf("left size = %d, want %d", rel.Left().Size(), leftOff)
		}
		checkAgainstNaive(t, rel, pairs, r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGaloisProperties(t *testing.T) {
	// For functional left-to-right relations (every concrete relation in
	// this package maps each left point to at most one right point):
	//   Image(Preimage(t)) ⊆ t
	//   s ⊆ Preimage(Image(s)) for s within the related left points.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Int63n(40) + 1
		m := r.Int63n(20) + 1
		fn := make([]int64, n)
		for i := range fn {
			fn[i] = r.Int63n(m)
		}
		rel := NewFnRelation("K", fn, index.NewSpace("D", m))
		tset := randomQuery(r, m).Intersect(rel.Right().Set)
		if !tset.ContainsSet(rel.Image(rel.Preimage(tset))) {
			return false
		}
		sset := randomQuery(r, n).Intersect(rel.Left().Set)
		return rel.Preimage(rel.Image(sset)).ContainsSet(sset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRelation(t *testing.T) {
	block := index.Interval{Lo: 5, Hi: 9}
	rel := NewBlockRelation("K", 10, block, "R", 20)
	if rel.Left().Size() != 10 || rel.Right().Size() != 20 {
		t.Fatal("spaces wrong")
	}
	// Image of anything nonempty is the block.
	if !rel.Image(index.Span(3, 3)).Equal(index.NewIntervalSet(block)) {
		t.Fatal("Image wrong")
	}
	if !rel.Image(index.IntervalSet{}).Empty() {
		t.Fatal("Image of empty set should be empty")
	}
	if !rel.Image(index.Span(50, 60)).Empty() {
		t.Fatal("Image of out-of-space set should be empty")
	}
	// Preimage of anything meeting the block is all of K.
	if !rel.Preimage(index.Span(9, 12)).Equal(index.Span(0, 9)) {
		t.Fatal("Preimage wrong")
	}
	if !rel.Preimage(index.Span(10, 12)).Empty() {
		t.Fatal("Preimage missing the block should be empty")
	}
}

func TestNamedOperatorAliases(t *testing.T) {
	// RowKToR/ColDToK are the remaining two named operators of §3.1.
	row, col := tridiagCSR(6)
	kp := index.EqualPartition(row.Left(), 2)
	rp := RowKToR(row, kp)
	if rp.NumColors() != 2 || rp.Space.Name != "R" {
		t.Fatalf("RowKToR = %v", rp)
	}
	dp := index.EqualPartition(col.Right(), 2)
	kp2 := ColDToK(col, dp)
	if kp2.Space.Name != "K" || !kp2.Complete() {
		t.Fatalf("ColDToK = %v", kp2)
	}
}
