package region

import (
	"testing"

	"kdrsolvers/internal/index"
)

func TestRegionFields(t *testing.T) {
	r := New("x", index.NewSpace("D", 10), "val")
	if r.name != "x" || r.Space().Size() != 10 {
		t.Fatal("metadata wrong")
	}
	f := r.Field("val")
	if len(f) != 10 {
		t.Fatalf("field len = %d", len(f))
	}
	f[3] = 7
	if r.Field("val")[3] != 7 {
		t.Fatal("field storage not shared")
	}
}

func TestRegionUniqueIDs(t *testing.T) {
	a := New("a", index.NewSpace("D", 1), "v")
	b := New("b", index.NewSpace("D", 1), "v")
	if a.ID() == b.ID() {
		t.Fatal("region IDs must be unique")
	}
}

func TestRegionPanics(t *testing.T) {
	r := New("x", index.NewSpace("D", 2), "v")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Field("missing")
}

func TestEmptyRegion(t *testing.T) {
	r := New("e", index.Space{Name: "E"}, "v")
	if len(r.Field("v")) != 0 {
		t.Fatal("empty region should have empty fields")
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

func TestVirtualRegion(t *testing.T) {
	r := NewVirtual("v", index.NewSpace("D", 1<<40))
	if !r.virtual {
		t.Fatal("Virtual() = false")
	}
	if r.Space().Size() != 1<<40 {
		t.Fatal("virtual regions carry full-size spaces without storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Field on a virtual region must panic")
		}
	}()
	r.Field("x")
}

func TestAdoptAliasesStorage(t *testing.T) {
	data := []float64{1, 2, 3}
	r := Adopt("x", index.NewSpace("D", 3), "v", data)
	if r.virtual {
		t.Fatal("adopted region is physical")
	}
	r.Field("v")[1] = 42
	if data[1] != 42 {
		t.Fatal("Adopt must alias, not copy")
	}
}

func TestAdoptTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Adopt("x", index.NewSpace("D", 5), "v", make([]float64, 3))
}

func TestVectorBytesOf(t *testing.T) {
	if VectorBytesOf(index.Span(0, 9)) != 80 {
		t.Fatal("VectorBytesOf wrong")
	}
	if VectorBytesOf(index.IntervalSet{}) != 0 {
		t.Fatal("empty set has no bytes")
	}
}
