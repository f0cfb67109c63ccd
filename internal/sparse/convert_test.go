package sparse

import (
	"errors"
	"runtime"
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

// TestConvertRefusesAuto: the tuner bands a matrix by the pieces of the
// partition that runs it, so Auto is not a conversion. ConvertNamed says
// where it is planned, and Convert panics with the same message.
func TestConvertRefusesAuto(t *testing.T) {
	a := Laplacian2D(4, 4)
	for _, name := range []string{"auto", "Auto", "AUTO"} {
		m, err := ConvertNamed(a, name)
		if m != nil || !errors.Is(err, errAutoNeedsPartition) {
			t.Fatalf("ConvertNamed(%q) = (%v, %v), want (nil, %v)", name, m, err, errAutoNeedsPartition)
		}
	}
	for _, where := range []string{"AddOperatorAuto", "solveSystem"} {
		if !strings.Contains(errAutoNeedsPartition.Error(), where) {
			t.Errorf("error %q does not name %s", errAutoNeedsPartition, where)
		}
	}
	defer func() {
		if r := recover(); r != errAutoNeedsPartition.Error() {
			t.Errorf("Convert(auto) panicked with %v, want %q", r, errAutoNeedsPartition)
		}
	}()
	Convert(a, "auto")
}

// TestConvertNamedRefusesBlowUp: a padded format multiplies a matrix's
// size by its shape (Dense), its longest row (ELL, or column for ELL′)
// or its diagonal count (DIA), so a small matrix can name a gigabyte and
// more. ConvertNamed must say so — naming the format asked for and the
// bound — before allocating, and must go on converting the same matrices
// to every format that stays linear in their entries.
func TestConvertNamedRefusesBlowUp(t *testing.T) {
	const n = 100000
	longRow := make([]Coord, 0, n+1500) // a diagonal plus one row of 1 500 entries
	manyDiags := make([]Coord, 0, 3*n)  // a diagonal plus 20 000 diagonals of one entry each
	for i := int64(0); i < n; i++ {
		longRow = append(longRow, Coord{Row: i, Col: i, Val: 2})
		manyDiags = append(manyDiags, Coord{Row: i, Col: i, Val: 2})
	}
	for j := int64(0); j < 1500; j++ {
		longRow = append(longRow, Coord{Row: 7, Col: 2 * j, Val: 1})
	}
	for d := int64(1); d <= 20000; d++ {
		manyDiags = append(manyDiags, Coord{Row: 0, Col: d, Val: 1})
	}
	wide := CSRFromCoords(n, n, longRow)
	tall := transposeCSR(wide)
	fan := CSRFromCoords(n, n, manyDiags)
	for _, tc := range []struct {
		a      *CSR
		format string
		refuse bool
	}{
		{wide, "dense", true}, {wide, "ell", true}, {tall, "ell'", true}, {fan, "dia", true},
		{wide, "ell'", false}, {tall, "ell", false},
		{wide, "csc", false}, {fan, "coo", false}, {fan, "bcsr", false}, {fan, "bcsc", false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ConvertNamed(tc.a, tc.format)
		runtime.ReadMemStats(&after)
		canon, _ := CanonicalFormat(tc.format)
		if !tc.refuse {
			if err != nil || m.Format() != canon {
				t.Errorf("%s: (%v, %v), want a %s matrix", tc.format, m, err, canon)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), canon+" storage") || !strings.Contains(err.Error(), "above the bound") {
			t.Errorf("%s: (%v, %v), want an error naming %s and the bound", tc.format, m, err, canon)
		}
		if errors.Is(err, ErrUnknownFormat) {
			t.Errorf("%s: a size refusal must not read as an unknown format: %v", tc.format, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("refusing %s allocated %d bytes", tc.format, grew)
		}
	}
}
