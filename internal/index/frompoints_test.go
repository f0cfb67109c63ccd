package index

import (
	"encoding/binary"
	"slices"
	"testing"
)

// sortedFromPoints is FromPoints the sort-based way, the reference the
// marking form must match: sort a copy, merge runs of equal or adjacent
// points.
func sortedFromPoints(points []int64) IntervalSet {
	if len(points) == 0 {
		return IntervalSet{}
	}
	ps := slices.Clone(points)
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

// decodePoints reads fuzz input as chunks of points. Byte 0 picks a shift
// (0–46) and byte 1 a chunk length (1–16); every following byte pair is a
// signed 16-bit value, every other one multiplied by 2^shift. One input so
// mixes runs of neighbours with points up to 2^62 apart, negatives and
// duplicates included.
func decodePoints(data []byte) [][]int64 {
	if len(data) < 2 {
		return nil
	}
	shift, chunk := data[0]%47, 1+int(data[1]%16)
	var all []int64
	for i, b := 0, data[2:]; len(b) >= 2; i, b = i+1, b[2:] {
		p := int64(int16(binary.LittleEndian.Uint16(b)))
		if i%2 == 1 {
			p <<= shift
		}
		all = append(all, p)
	}
	var chunks [][]int64
	for len(all) > 0 {
		k := min(chunk, len(all))
		chunks = append(chunks, all[:k])
		all = all[k:]
	}
	return chunks
}

// encodePoints is decodePoints' inverse for seeds: values at odd
// positions are given already divided by 2^shift.
func encodePoints(shift, chunk byte, vals ...int16) []byte {
	out := []byte{shift, chunk - 1}
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint16(out, uint16(v))
	}
	return out
}

// sortFallback reports whether FromPoints sorts these points rather than
// marking them: their span exceeds 64 times their count.
func sortFallback(points []int64) bool {
	lo, hi := slices.Min(points), slices.Max(points)
	return (uint64(hi)-uint64(lo))/64 >= uint64(len(points))
}

var fromPointsSeeds = [][]byte{
	encodePoints(0, 3, 5, 1, 2, 3, 9, 9, 0),            // duplicates, one adjacent run
	encodePoints(0, 2, -3, -1, -2, 0, 70, 64, 63, -64), // negatives, runs across a word boundary
	encodePoints(40, 1, 0, 1),                          // 0 and 2^40: the sort fallback
	encodePoints(46, 4, 0, -32768, 0, 32767, 1, 0, 2),  // span just under 2^62, sorted
	encodePoints(3, 16, 0, 1, 2, 1, 4, 2, 6, 3, 8, 4),  // scaled points 8 apart among dense ones
	encodePoints(0, 5, 63, 0, 127, 64, 1, 126, 62, 65), // runs ending at bit 63 of a word
	encodePoints(5, 7, 100, -1, 101, -1, 102, -1, 103), // duplicates of a scaled point
}

func FuzzFromPoints(f *testing.F) {
	for _, seed := range fromPointsSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := decodePoints(data)
		all := slices.Concat(chunks...)
		before := slices.Clone(all)
		got := FromPoints(chunks...)
		if !slices.Equal(slices.Concat(chunks...), before) {
			t.Fatal("FromPoints modified its input")
		}
		if want := sortedFromPoints(all); !got.Equal(want) {
			t.Fatalf("FromPoints(%v) = %v, sorted reference %v", chunks, got, want)
		}
		for i, iv := range got.ivs {
			if iv.Empty() {
				t.Fatalf("FromPoints(%v) = %v: empty interval %d", chunks, got, i)
			}
			// Values stay within ±2^61, so the difference cannot overflow.
			if i > 0 && iv.Lo-got.ivs[i-1].Hi < 2 {
				t.Fatalf("FromPoints(%v) = %v: intervals %d and %d overlap or touch", chunks, got, i-1, i)
			}
		}
	})
}

// The seed corpus reaches both of FromPoints' paths.
func TestFromPointsSeedsTakeBothPaths(t *testing.T) {
	marked, sorted := 0, 0
	for _, seed := range fromPointsSeeds {
		if sortFallback(slices.Concat(decodePoints(seed)...)) {
			sorted++
		} else {
			marked++
		}
	}
	if marked == 0 || sorted == 0 {
		t.Fatalf("%d seeds mark and %d sort; the corpus must reach both", marked, sorted)
	}
}
