package index

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEqualPartition(t *testing.T) {
	sp := NewSpace("I", 10)
	p := EqualPartition(sp, 3)
	if p.NumColors() != 3 {
		t.Fatalf("NumColors = %d", p.NumColors())
	}
	sizes := []int64{4, 3, 3}
	for c, want := range sizes {
		if got := p.Piece(c).Size(); got != want {
			t.Errorf("piece %d size = %d, want %d", c, got, want)
		}
	}
	if !p.Complete() || !p.Disjoint() {
		t.Error("EqualPartition must be complete and disjoint")
	}
	// Pieces must be contiguous and ordered.
	if !p.Piece(0).Equal(Span(0, 3)) || !p.Piece(1).Equal(Span(4, 6)) || !p.Piece(2).Equal(Span(7, 9)) {
		t.Errorf("pieces = %v %v %v", p.Piece(0), p.Piece(1), p.Piece(2))
	}
}

func TestEqualPartitionMoreColorsThanPoints(t *testing.T) {
	sp := NewSpace("I", 2)
	p := EqualPartition(sp, 5)
	if !p.Complete() || !p.Disjoint() {
		t.Fatal("partition must remain complete and disjoint")
	}
	nonEmpty := 0
	for c := 0; c < p.NumColors(); c++ {
		if !p.Piece(c).Empty() {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("nonEmpty pieces = %d, want 2", nonEmpty)
	}
}

func TestEqualPartitionSparseSpace(t *testing.T) {
	set := NewIntervalSet(Interval{0, 3}, Interval{10, 13}, Interval{20, 21})
	sp := Space{Name: "S", Set: set}
	p := EqualPartition(sp, 4)
	if !p.Complete() || !p.Disjoint() {
		t.Fatal("sparse equal partition must be complete and disjoint")
	}
	var total int64
	for c := 0; c < 4; c++ {
		total += p.Piece(c).Size()
	}
	if total != set.Size() {
		t.Fatalf("total = %d, want %d", total, set.Size())
	}
}

func TestPartitionPredicates(t *testing.T) {
	sp := NewSpace("I", 10)
	// Aliased, incomplete partition.
	p := NewPartition(sp, []IntervalSet{Span(0, 5), Span(4, 8)})
	if p.Complete() {
		t.Error("partition missing point 9 should not be complete")
	}
	if p.Disjoint() {
		t.Error("partition with overlap [4,5] should not be disjoint")
	}
}

func TestQuickEqualPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Int63n(100) + 1
		colors := r.Intn(10) + 1
		p := EqualPartition(NewSpace("I", n), colors)
		if !p.Complete() || !p.Disjoint() {
			return false
		}
		// Piece sizes differ by at most one.
		minSz, maxSz := int64(1<<62), int64(0)
		for c := 0; c < colors; c++ {
			sz := p.Piece(c).Size()
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGridLinearize(t *testing.T) {
	g := NewGrid(3, 4, 5)
	if g.Size() != 60 {
		t.Fatalf("Size = %d", g.Size())
	}
	if got := g.Linearize(0, 0, 0); got != 0 {
		t.Errorf("Linearize(0,0,0) = %d", got)
	}
	if got := g.Linearize(2, 3, 4); got != 59 {
		t.Errorf("Linearize(2,3,4) = %d", got)
	}
	if got := g.Linearize(1, 2, 3); got != 1*20+2*5+3 {
		t.Errorf("Linearize(1,2,3) = %d", got)
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := NewGrid(7, 11)
	// Row-major coordinates enumerate the linear indices in order.
	next := int64(0)
	for i := int64(0); i < 7; i++ {
		for j := int64(0); j < 11; j++ {
			if got := g.Linearize(i, j); got != next {
				t.Fatalf("Linearize(%d,%d) = %d, want %d", i, j, got, next)
			}
			next++
		}
	}
	if next != g.Size() {
		t.Fatalf("enumerated %d points of %d", next, g.Size())
	}
}

func TestGridContains(t *testing.T) {
	g := NewGrid(4, 4)
	if !g.Contains(0, 0) || !g.Contains(3, 3) {
		t.Error("corners should be contained")
	}
	if g.Contains(4, 0) || g.Contains(0, -1) || g.Contains(1) {
		t.Error("out-of-range coords contained")
	}
}

func TestTilePartition1D(t *testing.T) {
	g := NewGrid(10)
	p := g.TilePartition("D", 3)
	if !p.Complete() || !p.Disjoint() {
		t.Fatal("1D tiles must be complete and disjoint")
	}
	if !p.Piece(0).Equal(Span(0, 3)) {
		t.Errorf("piece 0 = %v", p.Piece(0))
	}
}

func TestTilePartition2D(t *testing.T) {
	g := NewGrid(4, 6)
	p := g.TilePartition("D", 2, 3)
	if p.NumColors() != 6 {
		t.Fatalf("NumColors = %d", p.NumColors())
	}
	if !p.Complete() || !p.Disjoint() {
		t.Fatal("2D tiles must be complete and disjoint")
	}
	// Tile (0,0) covers rows 0-1, cols 0-1: points {0,1,6,7}.
	want := NewIntervalSet(Interval{0, 1}, Interval{6, 7})
	if !p.Piece(0).Equal(want) {
		t.Errorf("piece 0 = %v, want %v", p.Piece(0), want)
	}
	// Tile (1,2) covers rows 2-3, cols 4-5: points {16,17,22,23}.
	want = NewIntervalSet(Interval{16, 17}, Interval{22, 23})
	if !p.Piece(5).Equal(want) {
		t.Errorf("piece 5 = %v, want %v", p.Piece(5), want)
	}
}

func TestTilePartitionColumnStrips(t *testing.T) {
	// Column strips of a 2D grid are maximally strided.
	g := NewGrid(3, 4)
	p := g.TilePartition("D", 1, 4)
	if !p.Complete() || !p.Disjoint() {
		t.Fatal("column strips must be complete and disjoint")
	}
	want := FromPoints([]int64{1, 5, 9})
	if !p.Piece(1).Equal(want) {
		t.Errorf("piece 1 = %v, want %v", p.Piece(1), want)
	}
}

func TestQuickTilePartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nx := r.Int63n(8) + 1
		ny := r.Int63n(8) + 1
		tx := r.Intn(int(nx)) + 1
		ty := r.Intn(int(ny)) + 1
		p := NewGrid(nx, ny).TilePartition("D", tx, ty)
		return p.Complete() && p.Disjoint() && p.NumColors() == tx*ty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceBasics(t *testing.T) {
	sp := NewSpace("D", 5)
	if sp.Size() != 5 || !sp.Set.Contains(0) || !sp.Set.Contains(4) || sp.Set.Contains(5) {
		t.Fatalf("space = %v", sp)
	}
	sparse := Space{Name: "S", Set: FromPoints([]int64{1, 3})}
	if sparse.Size() != 2 || sparse.Set.Contains(2) {
		t.Fatalf("sparse space = %v", sparse)
	}
}
