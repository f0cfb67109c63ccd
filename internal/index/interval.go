package index

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Interval is an inclusive range [Lo, Hi] of int64 coordinates.
// An Interval with Lo > Hi is empty.
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Size returns the number of points in the interval.
func (iv Interval) Size() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether p lies in the interval.
func (iv Interval) Contains(p int64) bool { return iv.Lo <= p && p <= iv.Hi }

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(o Interval) bool { return !iv.Intersect(o).Empty() }

func (iv Interval) String() string {
	if iv.Empty() {
		return "[]"
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// An IntervalSet is a set of int64 coordinates stored as sorted,
// disjoint, non-adjacent intervals. The zero value is the empty set.
//
// IntervalSet is the universal currency of the framework: index spaces,
// partition pieces, and projection results are all IntervalSets. All
// operations leave their operands unmodified unless documented otherwise.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a set from arbitrary (possibly overlapping,
// unordered) intervals.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	var s IntervalSet
	for _, iv := range ivs {
		s.AddInterval(iv)
	}
	return s
}

// Span returns the set containing exactly [lo, hi].
func Span(lo, hi int64) IntervalSet {
	if lo > hi {
		return IntervalSet{}
	}
	return IntervalSet{ivs: []Interval{{lo, hi}}}
}

// FromPoints builds a set from the points of one or more slices, in any
// order, duplicates allowed. The slices are not modified, so a projection
// can pass sub-slices of its relation's arrays as they are.
//
// The points are marked in a bitset over their span, whose runs are the
// intervals: linear in the points plus span/64, with no copy and no sort.
// Points spread over more than 64 times their count (a bitset larger than
// the points themselves) are sorted instead.
func FromPoints(points ...[]int64) IntervalSet {
	n := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, ps := range points {
		n += len(ps)
		for _, p := range ps {
			lo, hi = min(lo, p), max(hi, p)
		}
	}
	if n == 0 {
		return IntervalSet{}
	}
	d := uint64(hi) - uint64(lo) // unsigned: no overflow, whatever the span
	if d/64 >= uint64(n) {
		return fromSorted(points, n)
	}
	marks := make([]uint64, d/64+1)
	for _, ps := range points {
		for _, p := range ps {
			o := uint64(p - lo)
			marks[o/64] |= 1 << (o % 64)
		}
	}
	return fromMarks(marks, lo)
}

// fromMarks reads the set off a bitset whose bit o stands for point
// base + o: each maximal run of set bits is one interval.
func fromMarks(marks []uint64, base int64) IntervalSet {
	var s IntervalSet
	in := false // inside a run; start is its first point
	var start int64
	for w, word := range marks {
		for b := 0; b < 64; {
			// The next bit at or after b that ends (in) or starts a run.
			x := word >> b
			if in {
				x = ^word >> b
			}
			if x == 0 {
				break
			}
			b += bits.TrailingZeros64(x)
			p := base + int64(w)*64 + int64(b)
			if in {
				s.ivs = append(s.ivs, Interval{start, p - 1})
			} else {
				start = p
			}
			in = !in
		}
	}
	if in {
		s.ivs = append(s.ivs, Interval{start, base + int64(len(marks))*64 - 1})
	}
	return s
}

// fromSorted is FromPoints for sparse points: sort a copy, merge runs.
func fromSorted(points [][]int64, n int) IntervalSet {
	ps := make([]int64, 0, n)
	for _, c := range points {
		ps = append(ps, c...)
	}
	slices.Sort(ps)
	var s IntervalSet
	lo, hi := ps[0], ps[0]
	for _, p := range ps[1:] {
		if p == hi || p == hi+1 {
			hi = p
			continue
		}
		s.ivs = append(s.ivs, Interval{lo, hi})
		lo, hi = p, p
	}
	s.ivs = append(s.ivs, Interval{lo, hi})
	return s
}

// Empty reports whether the set contains no points.
func (s IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Size returns the number of points in the set.
func (s IntervalSet) Size() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Size()
	}
	return n
}

// NumIntervals returns the number of maximal runs in the set.
func (s IntervalSet) NumIntervals() int { return len(s.ivs) }

// Intervals returns the underlying sorted disjoint intervals.
// The returned slice must not be modified.
func (s IntervalSet) Intervals() []Interval { return s.ivs }

// Bounds returns the smallest interval covering the set.
// It returns an empty interval for the empty set.
func (s IntervalSet) Bounds() Interval {
	if s.Empty() {
		return Interval{Lo: 0, Hi: -1}
	}
	return Interval{Lo: s.ivs[0].Lo, Hi: s.ivs[len(s.ivs)-1].Hi}
}

// Contains reports whether p is in the set.
func (s IntervalSet) Contains(p int64) bool {
	// Binary search for the first interval with Hi >= p.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= p })
	return i < len(s.ivs) && s.ivs[i].Contains(p)
}

// AddInterval inserts [iv.Lo, iv.Hi] into the set in place, merging
// overlapping or adjacent intervals.
func (s *IntervalSet) AddInterval(iv Interval) {
	if iv.Empty() {
		return
	}
	// Fast path: appending past the end.
	if n := len(s.ivs); n == 0 || s.ivs[n-1].Hi+1 < iv.Lo {
		s.ivs = append(s.ivs, iv)
		return
	}
	// Fast path: extending the last interval.
	if n := len(s.ivs); s.ivs[n-1].Lo <= iv.Lo {
		if iv.Hi > s.ivs[n-1].Hi {
			s.ivs[n-1].Hi = iv.Hi
		}
		if iv.Lo >= s.ivs[n-1].Lo {
			return
		}
	}
	// General path: find the run of intervals that merge with iv.
	lo := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi+1 >= iv.Lo })
	hi := lo
	merged := iv
	for hi < len(s.ivs) && s.ivs[hi].Lo <= merged.Hi+1 {
		if s.ivs[hi].Lo < merged.Lo {
			merged.Lo = s.ivs[hi].Lo
		}
		if s.ivs[hi].Hi > merged.Hi {
			merged.Hi = s.ivs[hi].Hi
		}
		hi++
	}
	out := make([]Interval, 0, len(s.ivs)-(hi-lo)+1)
	out = append(out, s.ivs[:lo]...)
	out = append(out, merged)
	out = append(out, s.ivs[hi:]...)
	s.ivs = out
}

// Union returns the union of s and o.
func (s IntervalSet) Union(o IntervalSet) IntervalSet {
	if s.Empty() {
		return o.Clone()
	}
	if o.Empty() {
		return s.Clone()
	}
	out := IntervalSet{ivs: make([]Interval, 0, len(s.ivs)+len(o.ivs))}
	i, j := 0, 0
	for i < len(s.ivs) || j < len(o.ivs) {
		var next Interval
		switch {
		case i == len(s.ivs):
			next, j = o.ivs[j], j+1
		case j == len(o.ivs):
			next, i = s.ivs[i], i+1
		case s.ivs[i].Lo <= o.ivs[j].Lo:
			next, i = s.ivs[i], i+1
		default:
			next, j = o.ivs[j], j+1
		}
		if n := len(out.ivs); n > 0 && out.ivs[n-1].Hi+1 >= next.Lo {
			if next.Hi > out.ivs[n-1].Hi {
				out.ivs[n-1].Hi = next.Hi
			}
		} else {
			out.ivs = append(out.ivs, next)
		}
	}
	return out
}

// Intersect returns the intersection of s and o.
func (s IntervalSet) Intersect(o IntervalSet) IntervalSet {
	var out IntervalSet
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		iv := s.ivs[i].Intersect(o.ivs[j])
		if !iv.Empty() {
			out.ivs = append(out.ivs, iv)
		}
		if s.ivs[i].Hi < o.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns the set difference s \ o.
func (s IntervalSet) Subtract(o IntervalSet) IntervalSet {
	var out IntervalSet
	j := 0
	for _, iv := range s.ivs {
		lo := iv.Lo
		for j < len(o.ivs) && o.ivs[j].Hi < lo {
			j++
		}
		k := j
		for k < len(o.ivs) && o.ivs[k].Lo <= iv.Hi {
			if o.ivs[k].Lo > lo {
				out.ivs = append(out.ivs, Interval{lo, o.ivs[k].Lo - 1})
			}
			if o.ivs[k].Hi+1 > lo {
				lo = o.ivs[k].Hi + 1
			}
			k++
		}
		if lo <= iv.Hi {
			out.ivs = append(out.ivs, Interval{lo, iv.Hi})
		}
	}
	return out
}

// SubtractInto computes the set difference s \ o like Subtract, but
// appends the result intervals to buf (reset to length zero first)
// instead of allocating, growing buf only when its capacity is too
// small. It returns the result set, whose storage aliases the returned
// buffer; callers own both and must copy the intervals out (or stop
// using the buffer) before the next SubtractInto call with the same
// buffer. s and o are never modified, so s may itself be backed by a
// previous result. This is the hot-path form used by the task runtime's
// writer-shadow updates, which run once per launch reference.
func (s IntervalSet) SubtractInto(o IntervalSet, buf []Interval) (IntervalSet, []Interval) {
	out := buf[:0]
	j := 0
	for _, iv := range s.ivs {
		lo := iv.Lo
		for j < len(o.ivs) && o.ivs[j].Hi < lo {
			j++
		}
		k := j
		for k < len(o.ivs) && o.ivs[k].Lo <= iv.Hi {
			if o.ivs[k].Lo > lo {
				out = append(out, Interval{lo, o.ivs[k].Lo - 1})
			}
			if o.ivs[k].Hi+1 > lo {
				lo = o.ivs[k].Hi + 1
			}
			k++
		}
		if lo <= iv.Hi {
			out = append(out, Interval{lo, iv.Hi})
		}
	}
	if len(out) == 0 {
		return IntervalSet{}, out
	}
	return IntervalSet{ivs: out}, out
}

// WrapIntervals adopts ivs (retained, not copied) as an IntervalSet.
// The intervals must already be sorted, disjoint, non-adjacent, and
// non-empty — the canonical form every IntervalSet operation produces.
// It exists so allocation-conscious callers can re-wrap interval
// storage they manage themselves; general assembly should use
// NewIntervalSet.
func WrapIntervals(ivs []Interval) IntervalSet {
	if len(ivs) == 0 {
		return IntervalSet{}
	}
	return IntervalSet{ivs: ivs}
}

// Rebase returns the points of s that lie inside window, each moved by
// delta: the step between a concatenated index space and one member's
// own coordinates.
func (s IntervalSet) Rebase(window Interval, delta int64) IntervalSet {
	var out IntervalSet
	for _, iv := range s.ivs {
		if iv = iv.Intersect(window); !iv.Empty() {
			out.ivs = append(out.ivs, Interval{iv.Lo + delta, iv.Hi + delta})
		}
	}
	return out
}

// Overlaps reports whether s and o share at least one point. It is
// equivalent to !s.Intersect(o).Empty() but does not allocate.
func (s IntervalSet) Overlaps(o IntervalSet) bool {
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		if s.ivs[i].Overlaps(o.ivs[j]) {
			return true
		}
		if s.ivs[i].Hi < o.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same points.
func (s IntervalSet) Equal(o IntervalSet) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i, iv := range s.ivs {
		if iv != o.ivs[i] {
			return false
		}
	}
	return true
}

// ContainsSet reports whether every point of o is in s.
func (s IntervalSet) ContainsSet(o IntervalSet) bool {
	return o.Subtract(s).Empty()
}

// Clone returns a deep copy of the set.
func (s IntervalSet) Clone() IntervalSet {
	if s.Empty() {
		return IntervalSet{}
	}
	ivs := make([]Interval, len(s.ivs))
	copy(ivs, s.ivs)
	return IntervalSet{ivs: ivs}
}

// Each calls fn for every point in the set in increasing order.
func (s IntervalSet) Each(fn func(p int64)) {
	for _, iv := range s.ivs {
		for p := iv.Lo; p <= iv.Hi; p++ {
			fn(p)
		}
	}
}

// EachInterval calls fn for every maximal interval in increasing order.
func (s IntervalSet) EachInterval(fn func(iv Interval)) {
	for _, iv := range s.ivs {
		fn(iv)
	}
}

func (s IntervalSet) String() string {
	if s.Empty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
