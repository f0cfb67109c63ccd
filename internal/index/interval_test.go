package index

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{3, 7}
	if iv.Empty() {
		t.Fatal("interval [3,7] should not be empty")
	}
	if got := iv.Size(); got != 5 {
		t.Fatalf("Size = %d, want 5", got)
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Fatal("Contains endpoints wrong")
	}
	empty := Interval{5, 4}
	if !empty.Empty() || empty.Size() != 0 {
		t.Fatal("reversed interval should be empty")
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{Interval{0, 10}, Interval{5, 15}, Interval{5, 10}},
		{Interval{0, 4}, Interval{5, 9}, Interval{5, 4}},
		{Interval{0, 9}, Interval{3, 5}, Interval{3, 5}},
		{Interval{3, 3}, Interval{3, 3}, Interval{3, 3}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got.Empty() != c.want.Empty() {
			t.Errorf("%v ∩ %v emptiness = %v", c.a, c.b, got)
			continue
		}
		if !got.Empty() && got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalSetAdd(t *testing.T) {
	var s IntervalSet
	s.AddInterval(Interval{10, 20})
	s.AddInterval(Interval{30, 40})
	if s.NumIntervals() != 2 || s.Size() != 22 {
		t.Fatalf("got %v", s)
	}
	// Adjacent merge.
	s.AddInterval(Interval{21, 29})
	if s.NumIntervals() != 1 || s.Size() != 31 {
		t.Fatalf("adjacent merge failed: %v", s)
	}
	// Overlapping extension on both sides.
	s.AddInterval(Interval{0, 50})
	if s.NumIntervals() != 1 || !s.Equal(Span(0, 50)) {
		t.Fatalf("covering add failed: %v", s)
	}
	// Disjoint insert before.
	s.AddInterval(Interval{-10, -5})
	if s.NumIntervals() != 2 {
		t.Fatalf("prepend failed: %v", s)
	}
	// Empty add is a no-op.
	s.AddInterval(Interval{5, 4})
	if s.Size() != 57 {
		t.Fatalf("empty add changed size: %v", s)
	}
}

func TestIntervalSetAddMergesMany(t *testing.T) {
	var s IntervalSet
	for i := int64(0); i < 10; i++ {
		s.AddInterval(Interval{i * 10, i*10 + 3})
	}
	if s.NumIntervals() != 10 {
		t.Fatalf("setup: %v", s)
	}
	s.AddInterval(Interval{2, 95})
	if s.NumIntervals() != 1 || !s.Equal(Span(0, 95)) {
		t.Fatalf("bridging add failed: %v", s)
	}
}

func TestFromPoints(t *testing.T) {
	s := FromPoints([]int64{5, 1, 2, 3, 9, 9, 0})
	want := NewIntervalSet(Interval{0, 3}, Interval{5, 5}, Interval{9, 9})
	if !s.Equal(want) {
		t.Fatalf("FromPoints = %v, want %v", s, want)
	}
	if !FromPoints(nil).Empty() {
		t.Fatal("FromPoints(nil) should be empty")
	}
}

func TestRebase(t *testing.T) {
	s := NewIntervalSet(Interval{0, 4}, Interval{8, 12}, Interval{20, 25})
	got := s.Rebase(Interval{3, 21}, -3)
	want := NewIntervalSet(Interval{0, 1}, Interval{5, 9}, Interval{17, 18})
	if !got.Equal(want) {
		t.Fatalf("Rebase = %v, want %v", got, want)
	}
	if !s.Rebase(Interval{5, 7}, 100).Empty() || !s.Rebase(Interval{5, 4}, 0).Empty() {
		t.Fatal("a window missing the set must give the empty set")
	}
}

func TestUnionIntersectSubtract(t *testing.T) {
	a := NewIntervalSet(Interval{0, 9}, Interval{20, 29})
	b := NewIntervalSet(Interval{5, 24})
	if got, want := a.Union(b), Span(0, 29); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	wantI := NewIntervalSet(Interval{5, 9}, Interval{20, 24})
	if got := a.Intersect(b); !got.Equal(wantI) {
		t.Errorf("Intersect = %v, want %v", got, wantI)
	}
	wantS := NewIntervalSet(Interval{0, 4}, Interval{25, 29})
	if got := a.Subtract(b); !got.Equal(wantS) {
		t.Errorf("Subtract = %v, want %v", got, wantS)
	}
	if got := b.Subtract(a); !got.Equal(Span(10, 19)) {
		t.Errorf("Subtract rev = %v, want [10,19]", got)
	}
}

func TestContainsBinarySearch(t *testing.T) {
	s := NewIntervalSet(Interval{0, 4}, Interval{10, 14}, Interval{100, 200})
	for _, p := range []int64{0, 4, 10, 14, 100, 200, 150} {
		if !s.Contains(p) {
			t.Errorf("Contains(%d) = false", p)
		}
	}
	for _, p := range []int64{-1, 5, 9, 15, 99, 201} {
		if s.Contains(p) {
			t.Errorf("Contains(%d) = true", p)
		}
	}
}

func TestOverlapsAndContainsSet(t *testing.T) {
	a := NewIntervalSet(Interval{0, 9})
	b := NewIntervalSet(Interval{9, 12})
	c := NewIntervalSet(Interval{10, 12})
	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("a should not overlap c")
	}
	if !a.ContainsSet(Span(2, 5)) {
		t.Error("a should contain [2,5]")
	}
	if a.ContainsSet(b) {
		t.Error("a should not contain b")
	}
	if !a.ContainsSet(IntervalSet{}) {
		t.Error("everything contains the empty set")
	}
}

func TestEachAndPoints(t *testing.T) {
	s := NewIntervalSet(Interval{1, 2}, Interval{5, 5})
	var got []int64
	s.Each(func(p int64) { got = append(got, p) })
	want := []int64{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
	n := 0
	s.EachInterval(func(Interval) { n++ })
	if n != 2 {
		t.Fatalf("EachInterval visited %d intervals", n)
	}
}

// randomSet builds a reproducible random interval set within [0, 200).
func randomSet(r *rand.Rand) IntervalSet {
	var s IntervalSet
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		lo := r.Int63n(200)
		s.AddInterval(Interval{lo, lo + r.Int63n(20)})
	}
	return s
}

// naiveMembership returns the membership bitmap of s over [0, 256).
func naiveMembership(s IntervalSet) [256]bool {
	var m [256]bool
	s.Each(func(p int64) {
		if p >= 0 && p < 256 {
			m[p] = true
		}
	})
	return m
}

func TestQuickSetAlgebra(t *testing.T) {
	// Property: Union/Intersect/Subtract agree with pointwise bitmaps.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		ma, mb := naiveMembership(a), naiveMembership(b)
		mu := naiveMembership(a.Union(b))
		mi := naiveMembership(a.Intersect(b))
		ms := naiveMembership(a.Subtract(b))
		for p := 0; p < 256; p++ {
			if mu[p] != (ma[p] || mb[p]) {
				return false
			}
			if mi[p] != (ma[p] && mb[p]) {
				return false
			}
			if ms[p] != (ma[p] && !mb[p]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetInvariants(t *testing.T) {
	// Property: every set is sorted, disjoint, non-adjacent; Size and
	// Contains are consistent with Points.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		ivs := s.Intervals()
		for i, iv := range ivs {
			if iv.Empty() {
				return false
			}
			if i > 0 && ivs[i-1].Hi+1 >= iv.Lo {
				return false
			}
		}
		var n int64
		ok := true
		s.Each(func(p int64) {
			n++
			ok = ok && s.Contains(p)
		})
		return ok && n == s.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// Property: a \ b == a ∩ (U \ b) over a shared universe.
	u := Span(0, 255)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r).Intersect(u)
		b := randomSet(r).Intersect(u)
		lhs := a.Subtract(b)
		rhs := a.Intersect(u.Subtract(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	if b := (IntervalSet{}).Bounds(); !b.Empty() {
		t.Fatalf("empty set bounds = %v", b)
	}
	s := NewIntervalSet(Interval{5, 6}, Interval{40, 42})
	if b := s.Bounds(); b != (Interval{5, 42}) {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestClone(t *testing.T) {
	a := NewIntervalSet(Interval{1, 5})
	b := a.Clone()
	b.AddInterval(Interval{10, 12})
	if a.Size() != 5 {
		t.Fatal("Clone aliased underlying storage")
	}
}
