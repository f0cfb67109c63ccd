package sparse

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 4
1 1 2.5
2 3 -1
3 4 7
1 2 0.5
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r, c := Dims(a); r != 3 || c != 4 {
		t.Fatalf("dims %d x %d", r, c)
	}
	d := ToDense(a)
	if d[0] != 2.5 || d[1] != 0.5 || d[1*4+2] != -1 || d[2*4+3] != 7 {
		t.Fatalf("entries wrong: %v", d)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 4
2 1 -1
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := ToDense(a)
	if d[0] != 4 || d[1] != -1 || d[2] != -1 || d[3] != 0 {
		t.Fatalf("symmetric expansion wrong: %v", d)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket tensor coordinate real general\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n1 1\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n0 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",    // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",    // count short
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",      // malformed entry
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zero\n", // bad value
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n",
		// A size line is a claim, not a budget: these two used to reach
		// make and panic the process (cap, then len, out of range).
		"%%MatrixMarket matrix coordinate real general\n3 3 9000000000000000000\n",
		"%%MatrixMarket matrix coordinate real general\n4000000000000000000 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n1 2147483648 0\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 2000000000\n1 1 1\n", // under the limit, but a lie
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadMatrixMarketNegativeNNZ(t *testing.T) {
	// A corrupt header with a negative entry count used to reach
	// make([]Coord, 0, nnz) and panic; it must be a clean error.
	in := "%%MatrixMarket matrix coordinate real general\n2 2 -1\n"
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err == nil {
		t.Fatalf("expected error for negative nnz, got matrix %v", a)
	}
	if !strings.Contains(err.Error(), "entry count") {
		t.Fatalf("unhelpful error for negative nnz: %v", err)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := r.Int63n(10) + 1
		cols := r.Int63n(10) + 1
		a := CSRFromCoords(rows, cols, randomCoords(r, rows, cols))
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			return false
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Log(err)
			return false
		}
		return densesEqual(ToDense(a), ToDense(b), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMatrixMarketNonCSR(t *testing.T) {
	// Writing goes through the dense probe for non-CSR formats.
	a := COOFromCoords(2, 3, []Coord{{Row: 0, Col: 2, Val: 1.5}, {Row: 1, Col: 0, Val: -2}})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !densesEqual(ToDense(a), ToDense(b), 0) {
		t.Fatal("round trip through dense probe failed")
	}
}

// FuzzReadMatrixMarket: whatever the bytes, the reader never panics,
// allocates in proportion to its input rather than to what the header
// claims, and a matrix it accepts survives a write and a second read
// exactly.
func FuzzReadMatrixMarket(f *testing.F) {
	const general = "%%MatrixMarket matrix coordinate real general\n"
	for _, seed := range []string{
		general + "3 3 9000000000000000000\n",
		general + "4000000000000000000 1 0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 4\n2 1 -1\n3 2 -1\n3 3 4\n",
		general + "% comment\n\n3 4 4\n1 1 2.5\n2 3 -1\n3 4 7\n1 1 0.5\n",
		general + "2 2 3\n1 1 1\n2 2",
		general + "2 2 4\n1 1 NaN\n1 2 +Inf\n2 1 -inf\n2 2 -0\n",
		"%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A header may honestly declare many empty rows, and CSR spends a
		// pointer on each: keep what a mutated size line can ask of the
		// machine small.
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		if rows, cols, _, _, err := readMatrixMarketHeader(sc); err == nil && max(rows, cols) > 1<<16 {
			t.Skip("declares more rows or columns than the fuzzer may allocate")
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := ReadMatrixMarket(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The scanner buffer and the entry list's 1<<20-entry head start
		// are constants; everything else follows the bytes read.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(32<<20+512*len(data)); got > bound {
			t.Fatalf("%d input bytes allocated %d bytes, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}

		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("rejected its own output: %v\n%s", err, buf.String())
		}
		if ra, ca := Dims(a); b.rows != ra || b.cols != ca || len(b.vals) != len(a.vals) {
			t.Fatalf("round trip changed the shape: %dx%d/%d from %dx%d/%d", b.rows, b.cols, len(b.vals), ra, ca, len(a.vals))
		}
		for k, v := range a.vals {
			if b.colIdx[k] != a.colIdx[k] || (b.vals[k] != v && !(math.IsNaN(v) && math.IsNaN(b.vals[k]))) {
				t.Fatalf("round trip changed entry %d: (%d, %g) from (%d, %g)", k, b.colIdx[k], b.vals[k], a.colIdx[k], v)
			}
		}
		for i, p := range a.rowptr {
			if b.rowptr[i] != p {
				t.Fatalf("round trip moved row %d", i)
			}
		}
	})
}
