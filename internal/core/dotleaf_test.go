package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// randomAligned returns a partition of [0, n) into pieces cut at random
// distinct leaf boundaries.
func randomAligned(r *rand.Rand, name string, n int64, pieces int) index.Partition {
	leaves := int((n + DotLeaf - 1) / DotLeaf)
	cuts := r.Perm(leaves - 1)[:pieces-1]
	for i := range cuts {
		cuts[i]++ // a cut after leaf 0 at the earliest
	}
	slices.Sort(cuts)
	var sets []index.IntervalSet
	lo := int64(0)
	for _, c := range append(cuts, leaves) {
		hi := min(int64(c)*DotLeaf, n)
		sets = append(sets, index.Span(lo, hi-1))
		lo = hi
	}
	return index.NewPartition(index.NewSpace(name, n), sets)
}

// A dot is a function of its vectors: over random vectors, random
// partitions cut at leaf boundaries (the solution's and the right-hand
// side's drawn apart) and random launch groupings, Dot, both scalars of
// a DotBatch and the dots a product carries all return the bits of the
// canonical host sum (hostDot over one piece). The product's dots ride
// its tasks, which launch no dot task of their own.
func TestDotIsPieceInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := range 60 {
		n := 1 + r.Int63n(6000)
		leaves := int((n + DotLeaf - 1) / DotLeaf)
		v, w := make([]float64, n), make([]float64, n)
		for i := range v {
			v[i], w[i] = r.NormFloat64(), r.NormFloat64()
		}
		a := sparse.Laplacian2D(n, 1)
		whole := index.EqualPartition(index.NewSpace("D", n), 1)
		y := make([]float64, n)
		sparse.SpMV(a, y, v)
		want := map[string]float64{
			"v·w": hostDot(v, w, whole), "w·w": hostDot(w, w, whole),
			"v·Av": hostDot(v, y, whole), "Av·w": hostDot(y, w, whole),
		}

		p := NewPlanner(Config{Machine: machine.Lassen(2)})
		si := p.AddSolVector(slices.Clone(v), randomAligned(r, "D", n, 1+r.Intn(min(leaves, 16))))
		ri := p.AddRHSVector(slices.Clone(w), randomAligned(r, "R", n, 1+r.Intn(min(leaves, 16))))
		p.AddOperator(a, si, ri)
		p.Finalize()
		p.grain = []int64{0, 1 + r.Int63n(2*launchGrain), launchGrain}[r.Intn(3)]
		q := p.AllocateWorkspace(RhsShape)

		got := map[string]*Scalar{"v·w": p.Dot(SOL, RHS)}
		batch := p.DotBatch(DotPair{V: SOL, W: RHS}, DotPair{V: RHS, W: RHS})
		dotTasks := func() (k int) {
			for _, nd := range p.Runtime().Graph().Nodes {
				if nd.Name == "matmul.dots" {
					k++
				}
			}
			return k
		}
		before := dotTasks()
		rode := p.Matmul(q, SOL, DotPair{V: SOL, W: q}, DotPair{V: q, W: RHS})
		p.Drain()
		if k := dotTasks() - before; k != 0 {
			t.Errorf("trial %d: the product launched %d dot tasks; its dots should ride it", trial, k)
		}
		got["v·Av"], got["Av·w"] = rode[0], rode[1]
		for name, s := range got {
			if g := s.Value(); math.Float64bits(g) != math.Float64bits(want[name]) {
				t.Errorf("trial %d (n %d, grain %d): %s = %v, canonical host sum %v", trial, n, p.grain, name, g, want[name])
			}
		}
		if g := batch[0].Value(); math.Float64bits(g) != math.Float64bits(want["v·w"]) {
			t.Errorf("trial %d: batched v·w = %v, canonical host sum %v", trial, g, want["v·w"])
		}
		if g := batch[1].Value(); math.Float64bits(g) != math.Float64bits(want["w·w"]) {
			t.Errorf("trial %d: batched w·w = %v, canonical host sum %v", trial, g, want["w·w"])
		}
	}
}

// The readers of a dot start together, and the first folds while the
// others wait for its sum: every concurrent reader, whichever dot of a
// batch it reads first, gets the canonical bits, round after round of
// batches that reuse one another's partial memory.
func TestConcurrentReadersShareOneFold(t *testing.T) {
	const n, pieces, readers = 20000, 5, 8
	r := rand.New(rand.NewSource(2))
	v, w := make([]float64, n), make([]float64, n)
	for i := range v {
		v[i], w[i] = r.NormFloat64(), r.NormFloat64()
	}
	whole := index.EqualPartition(index.NewSpace("D", n), 1)
	want := [2]float64{hostDot(v, w, whole), hostDot(w, w, whole)}
	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	p.AddSolVector(slices.Clone(v), randomAligned(r, "D", n, pieces))
	p.AddRHSVector(slices.Clone(w), randomAligned(r, "R", n, pieces))
	p.Finalize()
	for round := range 20 {
		dots := p.DotBatch(DotPair{V: SOL, W: RHS}, DotPair{V: RHS, W: RHS})
		p.Drain()
		got := make([][2]float64, readers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				first := g % 2 // half the readers start with each dot
				got[g][first] = dots[first].Value()
				got[g][1-first] = dots[1-first].Value()
			}()
		}
		close(start)
		wg.Wait()
		for g, pair := range got {
			for j, x := range pair {
				if math.Float64bits(x) != math.Float64bits(want[j]) {
					t.Fatalf("round %d, reader %d: dot %d = %v, canonical host sum %v", round, g, j, x, want[j])
				}
			}
		}
	}
}
