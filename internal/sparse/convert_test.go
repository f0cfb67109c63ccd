package sparse

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestConvertNamedUnknownFormat is the regression for the -format crash:
// an unrecognized name must come back as a named error listing every
// valid spelling, not a panic, and the error must wrap ErrUnknownFormat.
func TestConvertNamedUnknownFormat(t *testing.T) {
	a := Laplacian2D(4, 4)
	m, err := ConvertNamed(a, "hypercube")
	if m != nil || err == nil {
		t.Fatalf("ConvertNamed = (%v, %v), want (nil, error)", m, err)
	}
	if !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("error %v does not wrap ErrUnknownFormat", err)
	}
	for _, f := range Formats {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("error %q does not list format %s", err, f)
		}
	}
	if !strings.Contains(err.Error(), "Auto") {
		t.Errorf("error %q does not list Auto", err)
	}
}

// TestCanonicalFormatResolvesCaseInsensitively checks the user-input
// spellings mmsolve feeds through, including the awkward ELL' quote and
// the Auto pseudo-format.
func TestCanonicalFormatResolvesCaseInsensitively(t *testing.T) {
	cases := map[string]string{
		"csr": "CSR", "CSR": "CSR", "ell'": "ELL'", "bcsr": "BCSR",
		"dense": "Dense", "auto": "Auto", "AUTO": "Auto",
	}
	for in, want := range cases {
		got, ok := CanonicalFormat(in)
		if !ok || got != want {
			t.Errorf("CanonicalFormat(%q) = (%q, %v), want (%q, true)", in, got, ok, want)
		}
	}
	if got, ok := CanonicalFormat("csrr"); ok {
		t.Errorf("CanonicalFormat(\"csrr\") = %q, want a miss", got)
	}
}

// TestConvertNamedMatchesConvert checks the delegation: for every
// canonical format the two entry points produce the same encoding.
func TestConvertNamedMatchesConvert(t *testing.T) {
	a := Laplacian2D(4, 4)
	for _, f := range Formats {
		m, err := ConvertNamed(a, f)
		if err != nil {
			t.Fatalf("ConvertNamed(%s): %v", f, err)
		}
		want := ToDense(Convert(a, f))
		got := ToDense(m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: ConvertNamed and Convert disagree at %d", f, i)
			}
		}
	}
}

// TestFormatFootprintUnknownIsInfinite: the cost model must rank an
// unknown candidate name last (infinite footprint), not panic — the
// profile path used to crash on one.
func TestFormatFootprintUnknownIsInfinite(t *testing.T) {
	p := ProfileRows(Laplacian2D(4, 4), 0, 16)
	if fp := formatFootprint(p, "hypercube"); !math.IsInf(fp, 1) {
		t.Errorf("unknown-format footprint = %g, want +Inf", fp)
	}
}
