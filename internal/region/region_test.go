package region

import (
	"testing"

	"kdrsolvers/internal/index"
)

// TestRegionFields pins New's storage: one zero-filled array over the
// space's bounding interval (a sparse space included), and Data returns
// the region's own storage. TestEmptyRegion, TestAdoptAliasesStorage and
// TestVirtualRegion pin the rest of the one-array contract.
func TestRegionFields(t *testing.T) {
	sparse := index.Space{Name: "S", Set: index.NewIntervalSet(index.Interval{Lo: 5, Hi: 6}, index.Interval{Lo: 9, Hi: 9})}
	for _, space := range []index.Space{index.NewSpace("D", 10), sparse} {
		r := New("x", space)
		if r.name != "x" || len(r.Data()) != 10 {
			t.Fatalf("New over %v: name %q, len %d, want 10", space.Set, r.name, len(r.Data()))
		}
		for i, v := range r.Data() {
			if v != 0 {
				t.Fatalf("New over %v: Data()[%d] = %g, want 0", space.Set, i, v)
			}
		}
	}

	r := New("x", index.NewSpace("D", 4))
	r.Data()[3] = 7
	if r.Data()[3] != 7 {
		t.Fatal("Data must return the region's own storage")
	}
}

func TestEmptyRegion(t *testing.T) {
	r := New("e", index.Space{Name: "E"})
	if len(r.Data()) != 0 {
		t.Fatal("empty region should have an empty array")
	}
}

func TestAdoptAliasesStorage(t *testing.T) {
	data := []float64{1, 2, 3}
	r := Adopt("y", index.NewSpace("D", 3), data)
	if r.virtual {
		t.Fatal("adopted region is physical")
	}
	r.Data()[1] = 42
	if data[1] != 42 || &r.Data()[0] != &data[0] {
		t.Fatal("Adopt must alias, not copy")
	}
}

func TestVirtualRegion(t *testing.T) {
	v := NewVirtual("v", index.NewSpace("D", 1<<40))
	if !v.virtual || v.Space().Size() != 1<<40 {
		t.Fatal("virtual regions carry full-size spaces without storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Data on a virtual region must panic")
		}
	}()
	v.Data()
}

func TestRegionUniqueIDs(t *testing.T) {
	a := New("a", index.NewSpace("D", 1))
	b := New("b", index.NewSpace("D", 1))
	if a.ID() == b.ID() {
		t.Fatal("region IDs must be unique")
	}
}

func TestPrivilegeConflicts(t *testing.T) {
	cases := []struct {
		a, b Privilege
		want bool
	}{
		{ReadOnly, ReadOnly, false},
		{ReadOnly, ReadWrite, true},
		{ReadWrite, ReadOnly, true},
		{ReadWrite, ReadWrite, true},
		{WriteDiscard, ReadOnly, true},
		{ReduceSum, ReduceSum, true}, // serialized for determinism
		{ReduceSum, ReadOnly, true},
	}
	for _, c := range cases {
		if got := Conflicts(c.a, c.b); got != c.want {
			t.Errorf("Conflicts(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if ReadOnly.Writes() || !ReadWrite.Writes() || !WriteDiscard.Writes() || !ReduceSum.Writes() {
		t.Error("Writes() wrong")
	}
	for _, p := range []Privilege{ReadOnly, ReadWrite, WriteDiscard, ReduceSum, Privilege(99)} {
		if p.String() == "" {
			t.Error("String empty")
		}
	}
}

func TestAdoptTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Adopt("x", index.NewSpace("D", 5), make([]float64, 3))
}

func TestVectorBytesOf(t *testing.T) {
	if VectorBytesOf(index.Span(0, 9)) != 80 {
		t.Fatal("VectorBytesOf wrong")
	}
	if VectorBytesOf(index.IntervalSet{}) != 0 {
		t.Fatal("empty set has no bytes")
	}
}
