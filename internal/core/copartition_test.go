package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// Projections along an explicit function array mark their points in a
// bitset instead of sorting them, and the adjoint partitions wait for the
// first MatmulT. Neither may change a single partition: every format of
// the formats table, at several piece counts, must derive exactly what
// the sort-based projections below, kept as the reference, derive.

// sortedPoints is the sort-based FromPoints: sort a copy, merge runs.
func sortedPoints(points []int64) index.IntervalSet {
	if len(points) == 0 {
		return index.IntervalSet{}
	}
	ps := slices.Clone(points)
	slices.Sort(ps)
	var s index.IntervalSet
	lo, hi := ps[0], ps[0]
	for _, p := range ps[1:] {
		if p == hi || p == hi+1 {
			hi = p
			continue
		}
		s.AddInterval(index.Interval{Lo: lo, Hi: hi})
		lo, hi = p, p
	}
	s.AddInterval(index.Interval{Lo: lo, Hi: hi})
	return s
}

// sortedFn projects a dpart.FnRelation the sort-based way: Image collects
// f over the set, Preimage the inverted index's buckets of its values,
// and sortedPoints turns either into a set.
type sortedFn struct {
	*dpart.FnRelation
	f, inv, invStart []int64
}

func newSortedFn(r *dpart.FnRelation) *sortedFn {
	f := make([]int64, r.Left().Size())
	for i := range f {
		f[i] = r.At(int64(i))
	}
	bound := max(r.Right().Set.Bounds().Hi+1, 0)
	counts := make([]int64, bound+1)
	for _, v := range f {
		counts[v]++
	}
	start := make([]int64, bound+2)
	for v := int64(0); v <= bound; v++ {
		start[v+1] = start[v] + counts[v]
	}
	inv := make([]int64, len(f))
	next := slices.Clone(start[:bound+1])
	for i, v := range f {
		inv[next[v]] = int64(i)
		next[v]++
	}
	return &sortedFn{FnRelation: r, f: f, inv: inv, invStart: start}
}

func (r *sortedFn) Image(s index.IntervalSet) index.IntervalSet {
	n := int64(len(r.f))
	vals := make([]int64, 0, s.Size())
	s.EachInterval(func(iv index.Interval) {
		if iv = iv.Intersect(index.Interval{Lo: 0, Hi: n - 1}); !iv.Empty() {
			vals = append(vals, r.f[iv.Lo:iv.Hi+1]...)
		}
	})
	return sortedPoints(vals)
}

func (r *sortedFn) Preimage(s index.IntervalSet) index.IntervalSet {
	var pts []int64
	s.EachInterval(func(iv index.Interval) {
		lo, hi := max(iv.Lo, 0), min(iv.Hi, int64(len(r.invStart))-2)
		if lo <= hi {
			pts = append(pts, r.inv[r.invStart[lo]:r.invStart[hi+1]]...)
		}
	})
	return sortedPoints(pts)
}

// reference swaps an explicit function relation for its sort-based twin;
// the implicit relations (segments, divisions, diagonals) project as they
// always did.
func reference(r dpart.Relation) dpart.Relation {
	if fn, ok := r.(*dpart.FnRelation); ok {
		return newSortedFn(fn)
	}
	return r
}

// refTriple derives one product direction's kernel, input-halo and
// output-image partitions over out (kernel → output) and in (kernel →
// input), spelled out as Finalize has always derived them.
func refTriple(out, in dpart.Relation, outPart index.Partition) [3]index.Partition {
	kpart := dpart.PreimagePartition(out, outPart)
	img := dpart.ImagePartition(out, kpart)
	clipped := make([]index.IntervalSet, img.NumColors())
	for c := range clipped {
		clipped[c] = img.Piece(c).Intersect(outPart.Piece(c))
	}
	return [3]index.Partition{kpart, dpart.ImagePartition(in, kpart), index.NewPartition(img.Space, clipped)}
}

// coPartitionMatrices are the identity sweep's operators.
func coPartitionMatrices() []struct {
	name string
	a    *sparse.CSR
} {
	// Seeded random entries, none in rows [20, 40) or columns [100, 120)
	// but two each placed far apart: row 30 at columns 0 and n-1, column
	// 110 at rows 0 and n-1. The preimage of a piece inside either band
	// is then two kernel points spread over the whole kernel space —
	// along the column array of a row-major format (adjoint) or the row
	// array of a column-major one (forward) — which takes FromPoints'
	// sort fallback. Other rows draw 0–6 entries, so a few more are empty.
	const n = 160
	r := rand.New(rand.NewSource(29))
	var random []sparse.Coord
	for i := int64(0); i < n; i++ {
		if i >= 20 && i < 40 {
			continue
		}
		for k := r.Intn(7); k > 0; k-- {
			j := r.Int63n(n - 20)
			if j >= 100 {
				j += 20
			}
			random = append(random, sparse.Coord{Row: i, Col: j, Val: r.Float64() + 0.5})
		}
	}
	random = append(random,
		sparse.Coord{Row: 30, Col: 0, Val: 1}, sparse.Coord{Row: 30, Col: n - 1, Val: 1},
		sparse.Coord{Row: 0, Col: 110, Val: 1}, sparse.Coord{Row: n - 1, Col: 110, Val: 1})

	// One dense row of 200 columns: every kernel point in one output piece.
	var row []sparse.Coord
	for j := int64(0); j < 200; j++ {
		row = append(row, sparse.Coord{Row: 0, Col: j, Val: float64(1 + j%3)})
	}
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"lap2d:12x9", sparse.Laplacian2D(12, 9)},
		{"random_empty_bands", sparse.CSRFromCoords(n, n, random)},
		{"dense_row_1x200", sparse.CSRFromCoords(1, 200, row)},
	}
}

func TestCoPartitionsMatchSortedReference(t *testing.T) {
	fallbacks := 0 // Fn-relation preimage pieces sparse enough to be sorted
	for _, m := range coPartitionMatrices() {
		for _, format := range sparse.Formats {
			a := sparse.Convert(m.a, format)
			rowRef, colRef := reference(a.RowRelation()), reference(a.ColRelation())
			for _, pieces := range []int{1, 7, 8, 13} {
				name := fmt.Sprintf("%s/%s/pieces=%d", m.name, format, pieces)
				rows, cols := a.Range().Size(), a.Domain().Size()
				inPart := index.EqualPartition(index.NewSpace("D", cols), pieces)
				outPart := index.EqualPartition(index.NewSpace("R", rows), pieces)
				p := NewPlanner(Config{Machine: machine.Lassen(1)})
				si := p.AddSolVector(make([]float64, cols), inPart)
				ri := p.AddRHSVector(make([]float64, rows), outPart)
				p.AddOperator(a, si, ri)
				p.Finalize()
				op := &p.ops[0]
				samePartitions(t, name+" forward", [3]index.Partition{op.kpart, op.inHalo, op.outImage},
					refTriple(rowRef, colRef, outPart))
				if p.adjoint || op.kpartT.NumColors() != 0 {
					t.Fatalf("%s: Finalize derived the adjoint partitions", name)
				}
				p.MatmulT(p.AllocateWorkspace(SolShape), RHS)
				p.Drain()
				samePartitions(t, name+" adjoint", [3]index.Partition{op.kpartT, op.inHaloT, op.outImageT},
					refTriple(colRef, rowRef, inPart))

				for _, k := range []struct {
					rel  dpart.Relation
					part index.Partition
				}{{a.RowRelation(), op.kpart}, {a.ColRelation(), op.kpartT}} {
					if _, fn := k.rel.(*dpart.FnRelation); !fn {
						continue
					}
					for _, pc := range k.part.Pieces() {
						if !pc.Empty() && pc.Bounds().Size() > 64*pc.Size() {
							fallbacks++
						}
					}
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no kernel piece was sparse enough to take FromPoints' sort fallback")
	}
}

// samePartitions fails unless the kernel, input-halo and output-image
// partitions equal the reference ones piece by piece.
func samePartitions(t *testing.T, name string, got, want [3]index.Partition) {
	t.Helper()
	for i, what := range []string{"kernel", "input halo", "output image"} {
		if got[i].NumColors() != want[i].NumColors() {
			t.Fatalf("%s: %s partition has %d pieces, reference %d", name, what,
				got[i].NumColors(), want[i].NumColors())
		}
		for c := 0; c < got[i].NumColors(); c++ {
			if !got[i].Piece(c).Equal(want[i].Piece(c)) {
				t.Fatalf("%s: %s piece %d = %v, reference %v", name, what, c,
					got[i].Piece(c), want[i].Piece(c))
			}
		}
	}
}
