package dpart

import (
	"sort"
	"sync"

	"kdrsolvers/internal/index"
)

// A Relation is a binary relation between two index spaces, Left ⊆ I and
// Right ⊆ J. Image projects subsets of I to subsets of J; Preimage projects
// subsets of J back to subsets of I (equations 3 and 4 of the paper).
//
// Implementations must treat their arguments as read-only and must return
// sets they own.
type Relation interface {
	// Left returns the left-hand index space I.
	Left() index.Space
	// Right returns the right-hand index space J.
	Right() index.Space
	// Image returns { j ∈ J | ∃ i ∈ s : (i, j) ∈ R }.
	Image(s index.IntervalSet) index.IntervalSet
	// Preimage returns { i ∈ I | ∃ j ∈ s : (i, j) ∈ R }.
	Preimage(s index.IntervalSet) index.IntervalSet
}

// FnRelation is a relation given by an explicit function f: I → [0, ...),
// stored as a dense array indexed by the points of a dense left space
// [0, len(f)). It models the col: K → D and row: K → R arrays of the COO
// format and the col array of CSR.
//
// Preimage queries are accelerated by a lazily built inverted index, so a
// FnRelation is safe for concurrent use after construction.
type FnRelation struct {
	left, right index.Space
	f           []int64

	invOnce sync.Once
	// inv holds kernel points sorted by f-value; invStart[v] is the first
	// position in inv whose f-value is >= v.
	inv      []int64
	invStart []int64
}

// NewFnRelation builds a relation from the function array f over the dense
// left space [0, len(f)). Values of f must lie inside right.
// The array is retained, not copied.
func NewFnRelation(leftName string, f []int64, right index.Space) *FnRelation {
	return &FnRelation{
		left:  index.NewSpace(leftName, int64(len(f))),
		right: right,
		f:     f,
	}
}

// Left implements Relation.
func (r *FnRelation) Left() index.Space { return r.left }

// Right implements Relation.
func (r *FnRelation) Right() index.Space { return r.right }

// At returns f(i).
func (r *FnRelation) At(i int64) int64 { return r.f[i] }

// Image implements Relation: the values of f over s, marked straight from
// the function array.
func (r *FnRelation) Image(s index.IntervalSet) index.IntervalSet {
	n := int64(len(r.f))
	var runs [][]int64
	s.EachInterval(func(iv index.Interval) {
		iv = clip(iv, n)
		if !iv.Empty() {
			runs = append(runs, r.f[iv.Lo:iv.Hi+1])
		}
	})
	return index.FromPoints(runs...)
}

// clip restricts iv to the dense space [0, n).
func clip(iv index.Interval, n int64) index.Interval {
	if iv.Lo < 0 {
		iv.Lo = 0
	}
	if iv.Hi > n-1 {
		iv.Hi = n - 1
	}
	return iv
}

// Preimage implements Relation: the inverted index's buckets of the values
// in s, marked where they lie.
func (r *FnRelation) Preimage(s index.IntervalSet) index.IntervalSet {
	r.buildInverse()
	var runs [][]int64
	s.EachInterval(func(iv index.Interval) {
		lo, hi := iv.Lo, iv.Hi
		if lo < 0 {
			lo = 0
		}
		if hi > int64(len(r.invStart))-2 {
			hi = int64(len(r.invStart)) - 2
		}
		if lo > hi {
			return
		}
		runs = append(runs, r.inv[r.invStart[lo]:r.invStart[hi+1]])
	})
	return index.FromPoints(runs...)
}

func (r *FnRelation) buildInverse() {
	r.invOnce.Do(func() {
		bound := r.right.Set.Bounds().Hi + 1
		if bound < 0 {
			bound = 0
		}
		counts := make([]int64, bound+1)
		for _, v := range r.f {
			counts[v]++
		}
		start := make([]int64, bound+2)
		for v := int64(0); v <= bound; v++ {
			start[v+1] = start[v] + counts[v]
		}
		inv := make([]int64, len(r.f))
		next := make([]int64, bound+1)
		copy(next, start[:bound+1])
		for i, v := range r.f {
			inv[next[v]] = int64(i)
			next[v]++
		}
		// A counting sort: each bucket holds its kernel points in
		// increasing order, as the pass above visits them.
		r.inv, r.invStart = inv, start
	})
}

// SegmentRelation relates each point j of a dense right space [0, n) to a
// contiguous interval of the left space, as in the rowptr: R → [K, K] map
// of CSR (and colptr of CSC). Segments must be sorted: seg ptr must be
// non-decreasing, which holds for CSR/CSC by construction.
type SegmentRelation struct {
	left, right index.Space
	// ptr has len n+1; point j relates to left interval [ptr[j], ptr[j+1]).
	ptr []int64
}

// NewSegmentRelation builds a segment relation from a CSR-style pointer
// array of length n+1 over the left space [0, ptr[n]). The array is
// retained, not copied.
func NewSegmentRelation(leftName string, ptr []int64, rightName string) *SegmentRelation {
	n := int64(len(ptr) - 1)
	return &SegmentRelation{
		left:  index.NewSpace(leftName, ptr[n]),
		right: index.NewSpace(rightName, n),
		ptr:   ptr,
	}
}

// Left implements Relation.
func (r *SegmentRelation) Left() index.Space { return r.left }

// Right implements Relation.
func (r *SegmentRelation) Right() index.Space { return r.right }

// Segment returns the left interval related to right point j.
func (r *SegmentRelation) Segment(j int64) index.Interval {
	return index.Interval{Lo: r.ptr[j], Hi: r.ptr[j+1] - 1}
}

// Image implements Relation: the set of right points whose segment
// intersects s.
func (r *SegmentRelation) Image(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	n := int64(len(r.ptr) - 1)
	s.EachInterval(func(iv index.Interval) {
		// First j with ptr[j+1] > iv.Lo, i.e. segment end beyond iv.Lo.
		jLo := int64(sort.Search(int(n), func(j int) bool { return r.ptr[j+1] > iv.Lo }))
		// Last j with ptr[j] <= iv.Hi.
		jHi := int64(sort.Search(int(n), func(j int) bool { return r.ptr[j] > iv.Hi })) - 1
		// Trim empty segments at the boundaries: a j in [jLo, jHi] with an
		// empty segment does not actually relate to any point.
		for jLo <= jHi && r.ptr[jLo] >= r.ptr[jLo+1] {
			jLo++
		}
		for jHi >= jLo && r.ptr[jHi] >= r.ptr[jHi+1] {
			jHi--
		}
		if jLo <= jHi {
			// Interior empty segments are a corner case (empty rows): they
			// must be excluded point by point.
			run := index.Interval{Lo: jLo, Hi: jLo - 1}
			for j := jLo; j <= jHi; j++ {
				if r.ptr[j] < r.ptr[j+1] && r.Segment(j).Overlaps(iv) {
					if run.Empty() {
						run = index.Interval{Lo: j, Hi: j}
					} else if run.Hi == j-1 {
						run.Hi = j
					} else {
						out.AddInterval(run)
						run = index.Interval{Lo: j, Hi: j}
					}
				}
			}
			if !run.Empty() {
				out.AddInterval(run)
			}
		}
	})
	return out
}

// Preimage implements Relation: the union of segments of right points in s.
func (r *SegmentRelation) Preimage(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	n := int64(len(r.ptr) - 1)
	s.EachInterval(func(iv index.Interval) {
		lo, hi := iv.Lo, iv.Hi
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		if lo > hi {
			return
		}
		// Segments of a contiguous right run are themselves contiguous.
		out.AddInterval(index.Interval{Lo: r.ptr[lo], Hi: r.ptr[hi+1] - 1})
	})
	return out
}

// DivRelation is the implicit projection j = i / q of a linearized product
// space I = J × [0, q). It models π1: R × K0 → R for the ELL format and
// the row relation of Dense (with q = |D|).
type DivRelation struct {
	left, right index.Space
	q           int64
}

// NewDivRelation builds the relation j = i/q with I = [0, nRight*q) and
// J = [0, nRight).
func NewDivRelation(leftName string, nRight, q int64, rightName string) *DivRelation {
	return &DivRelation{
		left:  index.NewSpace(leftName, nRight*q),
		right: index.NewSpace(rightName, nRight),
		q:     q,
	}
}

// Left implements Relation.
func (r *DivRelation) Left() index.Space { return r.left }

// Right implements Relation.
func (r *DivRelation) Right() index.Space { return r.right }

// Image implements Relation.
func (r *DivRelation) Image(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	n := r.left.Size()
	s.EachInterval(func(iv index.Interval) {
		iv = clip(iv, n)
		if !iv.Empty() {
			out.AddInterval(index.Interval{Lo: iv.Lo / r.q, Hi: iv.Hi / r.q})
		}
	})
	return out
}

// Preimage implements Relation.
func (r *DivRelation) Preimage(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	n := r.right.Size()
	s.EachInterval(func(iv index.Interval) {
		iv = clip(iv, n)
		if !iv.Empty() {
			out.AddInterval(index.Interval{Lo: iv.Lo * r.q, Hi: (iv.Hi+1)*r.q - 1})
		}
	})
	return out
}

// ModRelation is the implicit projection j = i % q of a linearized product
// space I = [0, blocks) × [0, q). It models π2: R × D → D for the Dense
// format and the column identity of DIA.
type ModRelation struct {
	left, right index.Space
	q, blocks   int64
}

// NewModRelation builds the relation j = i%q with I = [0, blocks*q) and
// J = [0, q).
func NewModRelation(leftName string, blocks, q int64, rightName string) *ModRelation {
	return &ModRelation{
		left:   index.NewSpace(leftName, blocks*q),
		right:  index.NewSpace(rightName, q),
		q:      q,
		blocks: blocks,
	}
}

// Left implements Relation.
func (r *ModRelation) Left() index.Space { return r.left }

// Right implements Relation.
func (r *ModRelation) Right() index.Space { return r.right }

// Image implements Relation.
func (r *ModRelation) Image(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	n := r.left.Size()
	s.EachInterval(func(iv index.Interval) {
		iv = clip(iv, n)
		if iv.Empty() {
			return
		}
		if iv.Size() >= r.q {
			out.AddInterval(index.Interval{Lo: 0, Hi: r.q - 1})
			return
		}
		lo, hi := iv.Lo%r.q, iv.Hi%r.q
		if lo <= hi {
			out.AddInterval(index.Interval{Lo: lo, Hi: hi})
		} else { // run wraps around a block boundary
			out.AddInterval(index.Interval{Lo: 0, Hi: hi})
			out.AddInterval(index.Interval{Lo: lo, Hi: r.q - 1})
		}
	})
	return out
}

// Preimage implements Relation.
func (r *ModRelation) Preimage(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	for b := int64(0); b < r.blocks; b++ {
		base := b * r.q
		s.EachInterval(func(iv index.Interval) {
			lo, hi := iv.Lo, iv.Hi
			if lo < 0 {
				lo = 0
			}
			if hi >= r.q {
				hi = r.q - 1
			}
			if lo <= hi {
				out.AddInterval(index.Interval{Lo: base + lo, Hi: base + hi})
			}
		})
	}
	return out
}

// DiagRelation is the implicit row relation of the DIA format: the kernel
// space is K = K0 × [0, d) (one block of d entries per stored diagonal),
// and kernel point (k0, i) relates to row i - offset(k0) when that row lies
// in [0, rows). Entries whose shifted row falls outside the matrix relate
// to nothing (they are padding).
type DiagRelation struct {
	left, right index.Space
	offsets     []int64
	d, rows     int64
}

// NewDiagRelation builds a DIA row relation for a matrix with the given
// diagonal offsets, domain size d, and row count rows. The offsets slice
// is retained, not copied.
func NewDiagRelation(leftName string, offsets []int64, d, rows int64, rightName string) *DiagRelation {
	return &DiagRelation{
		left:    index.NewSpace(leftName, int64(len(offsets))*d),
		right:   index.NewSpace(rightName, rows),
		offsets: offsets,
		d:       d,
		rows:    rows,
	}
}

// Left implements Relation.
func (r *DiagRelation) Left() index.Space { return r.left }

// Right implements Relation.
func (r *DiagRelation) Right() index.Space { return r.right }

// Image implements Relation.
func (r *DiagRelation) Image(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	n := r.left.Size()
	s.EachInterval(func(iv index.Interval) {
		iv = clip(iv, n)
		if iv.Empty() {
			return
		}
		// Split the run by diagonal block.
		for lo := iv.Lo; lo <= iv.Hi; {
			b := lo / r.d
			blockHi := (b+1)*r.d - 1
			hi := iv.Hi
			if hi > blockHi {
				hi = blockHi
			}
			off := r.offsets[b]
			jLo, jHi := lo%r.d-off, hi%r.d-off
			if jLo < 0 {
				jLo = 0
			}
			if jHi > r.rows-1 {
				jHi = r.rows - 1
			}
			if jLo <= jHi {
				out.AddInterval(index.Interval{Lo: jLo, Hi: jHi})
			}
			lo = hi + 1
		}
	})
	return out
}

// Preimage implements Relation.
func (r *DiagRelation) Preimage(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	for b, off := range r.offsets {
		base := int64(b) * r.d
		s.EachInterval(func(iv index.Interval) {
			// Row j is produced by kernel point base + (j + off) when
			// 0 <= j+off < d.
			iv = clip(iv, r.rows)
			if iv.Empty() {
				return
			}
			lo, hi := iv.Lo+off, iv.Hi+off
			if lo < 0 {
				lo = 0
			}
			if hi > r.d-1 {
				hi = r.d - 1
			}
			if lo <= hi {
				out.AddInterval(index.Interval{Lo: base + lo, Hi: base + hi})
			}
		})
	}
	return out
}

// BlockRelation is the dense rectangular relation I × T for an interval
// T of the right space: every left point relates to every point of the
// block. It models operators whose kernel touches one contiguous block of
// a vector — the virtual tile matrices of the Section 6.3 load-balancing
// experiment.
type BlockRelation struct {
	left, right index.Space
	block       index.Interval
}

// NewBlockRelation builds the relation I × block with I = [0, nLeft) and
// the right space [0, nRight).
func NewBlockRelation(leftName string, nLeft int64, block index.Interval, rightName string, nRight int64) *BlockRelation {
	return &BlockRelation{
		left:  index.NewSpace(leftName, nLeft),
		right: index.NewSpace(rightName, nRight),
		block: block,
	}
}

// Left implements Relation.
func (r *BlockRelation) Left() index.Space { return r.left }

// Right implements Relation.
func (r *BlockRelation) Right() index.Space { return r.right }

// Image implements Relation: any nonempty left subset maps to the whole
// block.
func (r *BlockRelation) Image(s index.IntervalSet) index.IntervalSet {
	if s.Intersect(r.left.Set).Empty() {
		return index.IntervalSet{}
	}
	return index.NewIntervalSet(r.block)
}

// Preimage implements Relation: any subset meeting the block maps back to
// all of I.
func (r *BlockRelation) Preimage(s index.IntervalSet) index.IntervalSet {
	if !s.Overlaps(index.NewIntervalSet(r.block)) {
		return index.IntervalSet{}
	}
	return r.left.Set.Clone()
}

// ConcatPart is one member of a Concat relation: Rel's left space takes
// the next stretch of the concatenated left space, and its right points
// are shifted by RightOff into the shared right space.
type ConcatPart struct {
	Rel      Relation
	RightOff int64

	leftOff int64 // start of Rel's left space, set by NewConcat
}

// Concat stacks member relations into one whose left space is the
// concatenation of the members' left spaces in order: left point
// leftOff_t + i relates to right point RightOff_t + j exactly when member
// t relates i to j. It is the relation of a row-banded composite matrix
// (each band's kernel space placed after the previous one, band rows
// shifted to their global position), and it stores nothing beyond its
// members — a projection costs the sum of the members' projections.
type Concat struct {
	left, right index.Space
	parts       []ConcatPart
}

// NewConcat builds the concatenation of parts, in the order given, over
// the given right space. The slice is retained.
func NewConcat(leftName string, parts []ConcatPart, right index.Space) *Concat {
	var n int64
	for i := range parts {
		parts[i].leftOff = n
		n += parts[i].Rel.Left().Size()
	}
	return &Concat{left: index.NewSpace(leftName, n), right: right, parts: parts}
}

// Left implements Relation.
func (r *Concat) Left() index.Space { return r.left }

// Right implements Relation.
func (r *Concat) Right() index.Space { return r.right }

// Image implements Relation: each member projects its own clip of s.
func (r *Concat) Image(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	for _, p := range r.parts {
		if local := s.Rebase(p.leftWindow(), -p.leftOff); !local.Empty() {
			out = out.Union(p.Rel.Image(local).Rebase(p.Rel.Right().Set.Bounds(), p.RightOff))
		}
	}
	return out
}

// Preimage implements Relation.
func (r *Concat) Preimage(s index.IntervalSet) index.IntervalSet {
	var out index.IntervalSet
	for _, p := range r.parts {
		if local := s.Rebase(p.rightWindow(), -p.RightOff); !local.Empty() {
			out = out.Union(p.Rel.Preimage(local).Rebase(p.Rel.Left().Set.Bounds(), p.leftOff))
		}
	}
	return out
}

// leftWindow is the stretch of the concatenated left space p occupies.
func (p ConcatPart) leftWindow() index.Interval {
	return index.Interval{Lo: p.leftOff, Hi: p.leftOff + p.Rel.Left().Size() - 1}
}

// rightWindow is the stretch of the shared right space p maps into.
func (p ConcatPart) rightWindow() index.Interval {
	return index.Interval{Lo: p.RightOff, Hi: p.RightOff + p.Rel.Right().Size() - 1}
}
