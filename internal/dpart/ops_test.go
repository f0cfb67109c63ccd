package dpart

import (
	"testing"

	"kdrsolvers/internal/index"
)

// tridiagCSR builds the row and column relations of an n×n tridiagonal
// matrix stored in CSR, returning (row, col).
func tridiagCSR(n int64) (*SegmentRelation, *FnRelation) {
	ptr := make([]int64, n+1)
	var cols []int64
	for i := int64(0); i < n; i++ {
		ptr[i] = int64(len(cols))
		if i > 0 {
			cols = append(cols, i-1)
		}
		cols = append(cols, i)
		if i < n-1 {
			cols = append(cols, i+1)
		}
	}
	ptr[n] = int64(len(cols))
	row := NewSegmentRelation("K", ptr, "R")
	col := NewFnRelation("K", cols, index.NewSpace("D", n))
	return row, col
}

func TestProjectionOperators(t *testing.T) {
	row, col := tridiagCSR(8)
	rangePart := index.EqualPartition(index.NewSpace("R", 8), 2)

	// row[R→K]: kernel entries writing each half of the rows.
	kPart := RowRToK(row, rangePart)
	if kPart.NumColors() != 2 {
		t.Fatalf("colors = %d", kPart.NumColors())
	}
	if !kPart.Complete() || !kPart.Disjoint() {
		t.Error("kernel partition from disjoint rows must be complete and disjoint")
	}

	// col[K→D]: domain points each kernel piece reads. The halves share
	// the boundary columns 3 and 4, so the partition aliases.
	dPart := ColKToD(col, kPart)
	if dPart.Disjoint() {
		t.Error("input partition must alias at the stencil boundary")
	}
	if !dPart.Complete() {
		t.Error("input partition must cover the domain")
	}
	if !dPart.Piece(0).Equal(index.Span(0, 4)) {
		t.Errorf("piece 0 = %v, want [0,4]", dPart.Piece(0))
	}
	if !dPart.Piece(1).Equal(index.Span(3, 7)) {
		t.Errorf("piece 1 = %v, want [3,7]", dPart.Piece(1))
	}
}

func TestMatVecInputPartition(t *testing.T) {
	row, col := tridiagCSR(16)
	rangePart := index.EqualPartition(index.NewSpace("R", 16), 4)
	in := MatVecInputPartition(row, col, rangePart)
	// Each row block [4c, 4c+3] needs domain [4c-1, 4c+4] clipped.
	wants := []index.IntervalSet{
		index.Span(0, 4), index.Span(3, 8), index.Span(7, 12), index.Span(11, 15),
	}
	for c, want := range wants {
		if !in.Piece(c).Equal(want) {
			t.Errorf("piece %d = %v, want %v", c, in.Piece(c), want)
		}
	}
}

func TestImagePreimagePartitionShapes(t *testing.T) {
	row, _ := tridiagCSR(8)
	kPart := index.EqualPartition(row.Left(), 3)
	rPart := ImagePartition(row, kPart)
	if rPart.NumColors() != 3 || rPart.Space.Name != "R" {
		t.Fatalf("rPart = %v", rPart)
	}
	back := PreimagePartition(row, rPart)
	if back.Space.Name != "K" {
		t.Fatalf("back = %v", back)
	}
	// Round trip can only grow pieces (Galois property per color).
	for c := 0; c < 3; c++ {
		if !back.Piece(c).ContainsSet(kPart.Piece(c)) {
			t.Errorf("round trip lost points in color %d", c)
		}
	}
}

func TestPartitionByField(t *testing.T) {
	sp := index.NewSpace("D", 8)
	colors := []int64{0, 1, 0, 2, 2, 1, 0, -1}
	p := PartitionByField(sp, colors, 3)
	if p.NumColors() != 3 {
		t.Fatalf("colors = %d", p.NumColors())
	}
	if !p.Piece(0).Equal(index.FromPoints([]int64{0, 2, 6})) {
		t.Errorf("piece 0 = %v", p.Piece(0))
	}
	if !p.Piece(2).Equal(index.Span(3, 4)) {
		t.Errorf("piece 2 = %v", p.Piece(2))
	}
	if !p.Disjoint() {
		t.Error("by-field partitions are disjoint by construction")
	}
	if p.Complete() {
		t.Error("point 7 is uncolored; partition must be incomplete")
	}
	// A fully colored space is complete.
	full := PartitionByField(sp, []int64{0, 0, 1, 1, 2, 2, 0, 1}, 3)
	if !full.Complete() {
		t.Error("fully colored partition must be complete")
	}
}

func TestPartitionByFieldValidation(t *testing.T) {
	sp := index.NewSpace("D", 2)
	for _, fn := range []func(){
		func() { PartitionByField(sp, []int64{0}, 1) },
		func() { PartitionByField(sp, []int64{0, 5}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPartitionByFieldDrivesCoPartitioning(t *testing.T) {
	// An irregular user coloring propagates through the projections just
	// like a block partition: co-partitioning soundness is coloring-
	// independent.
	row, col := tridiagCSR(12)
	colors := make([]int64, 12)
	for i := range colors {
		colors[i] = int64((i * 7) % 3) // scrambled assignment
	}
	rp := PartitionByField(index.NewSpace("R", 12), colors, 3)
	kp := RowRToK(row, rp)
	if !kp.Complete() || !kp.Disjoint() {
		t.Fatal("kernel partition from a disjoint complete coloring must stay complete and disjoint")
	}
	dp := ColKToD(col, kp)
	if !dp.Complete() {
		t.Fatal("derived domain partition must cover the domain")
	}
}
