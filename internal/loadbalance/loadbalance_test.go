package loadbalance

import (
	"math"
	"testing"
)

func twoNodeTiles() []Tile {
	return []Tile{
		{InNode: 0, OutNode: 1, Owner: 0},
		{InNode: 0, OutNode: 1, Owner: 0},
		{InNode: 1, OutNode: 0, Owner: 1},
	}
}

func TestGiveawayProbability(t *testing.T) {
	b := New(1.0, 0.5, twoNodeTiles(), 1)
	if p := b.GiveawayProbability(0.4); p != 0 {
		t.Errorf("faster than reference: p = %g, want 0", p)
	}
	if p := b.GiveawayProbability(0.5); p != 0 {
		t.Errorf("at reference: p = %g, want 0", p)
	}
	p1 := b.GiveawayProbability(1.0)
	p2 := b.GiveawayProbability(5.0)
	if p1 <= 0 || p1 >= 1 {
		t.Errorf("moderate overload: p = %g, want in (0,1)", p1)
	}
	if p2 <= p1 {
		t.Error("probability must grow with overload")
	}
	want := 1 - math.Exp(-0.5)
	if math.Abs(p1-want) > 1e-12 {
		t.Errorf("p(1.0) = %g, want %g", p1, want)
	}
}

func TestRebalanceMovesToOtherCandidate(t *testing.T) {
	tiles := twoNodeTiles()
	b := New(1000, 0.1, tiles, 7) // high beta: overloaded nodes always shed
	// Node 0 hugely overloaded, node 1 fine.
	moved := b.Rebalance([]float64{10, 0.05})
	if moved != 2 {
		t.Fatalf("moved = %d, want the 2 tiles owned by node 0", moved)
	}
	for i, tile := range b.tiles {
		if tile.Owner != 1 {
			t.Errorf("tile %d owner = %d, want 1", i, tile.Owner)
		}
	}
	if b.Moves() != 2 {
		t.Errorf("cumulative moves = %d", b.Moves())
	}
	// Ownership always stays within the candidate pair.
	b.Rebalance([]float64{0.05, 10})
	for i, tile := range b.tiles {
		if tile.Owner != tile.InNode && tile.Owner != tile.OutNode {
			t.Fatalf("tile %d escaped its candidate pair", i)
		}
	}
}

func TestRebalanceNoMovesWhenFast(t *testing.T) {
	b := New(1, 1.0, twoNodeTiles(), 3)
	if moved := b.Rebalance([]float64{0.5, 0.5}); moved != 0 {
		t.Fatalf("moved = %d under no overload", moved)
	}
}

func TestRebalanceDeterministicBySeed(t *testing.T) {
	times := []float64{2, 0.1}
	a := New(1, 0.5, twoNodeTiles(), 42)
	b := New(1, 0.5, twoNodeTiles(), 42)
	for round := 0; round < 10; round++ {
		if a.Rebalance(times) != b.Rebalance(times) {
			t.Fatal("same seed must give same migration sequence")
		}
	}
}

func TestNewPanicsOnBadOwner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1, []Tile{{InNode: 0, OutNode: 1, Owner: 5}}, 1)
}

func TestNodeLoad(t *testing.T) {
	l := NewNodeLoad(4, 40, 9)
	for _, k := range l.Occupied {
		if k != 20 {
			t.Fatalf("initial load = %d, want 20", k)
		}
	}
	if s := l.AverageSlowdown(); s != 2 {
		t.Fatalf("average slowdown = %g, want 2", s)
	}
	l.Randomize()
	for _, k := range l.Occupied {
		if k < 0 || k >= 40 {
			t.Fatalf("occupied = %d out of [0,39]", k)
		}
	}
	for i, s := range l.Slowdowns() {
		want := 40.0 / float64(40-l.Occupied[i])
		if s != want {
			t.Fatalf("slowdown[%d] = %g, want %g", i, s, want)
		}
	}
}

func TestNodeLoadVariesAcrossRounds(t *testing.T) {
	l := NewNodeLoad(8, 40, 11)
	l.Randomize()
	first := append([]int{}, l.Occupied...)
	different := false
	for round := 0; round < 5 && !different; round++ {
		l.Randomize()
		for i := range first {
			if l.Occupied[i] != first[i] {
				different = true
			}
		}
	}
	if !different {
		t.Fatal("randomization never changed the load")
	}
}
