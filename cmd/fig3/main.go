// Fig3 prints the paper's Figure 3 — the storage-format table — as
// realized by this implementation, and verifies each format live: it
// builds the same matrix in all nine formats, checks that every one
// defines the same linear operator, and runs the universal
// co-partitioning soundness check (the Section 3.1 masking argument) on
// each.
package main

import (
	"fmt"
	"math"
	"os"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/sparse"
)

// formatRows mirror the paper's table.
var formatRows = []struct{ format, structural, colRel, rowRel string }{
	{"Dense", "K = R x D", "j = k mod |D| (implicit)", "i = k div |D| (implicit)"},
	{"COO", "(none)", "col: K -> D", "row: K -> R"},
	{"CSR", "K totally ordered", "col: K -> D", "rowptr: R -> [K,K]"},
	{"CSC", "K totally ordered", "colptr: D -> [K,K]", "row: K -> R"},
	{"ELL", "K = R x K0", "col: K -> D", "pi1 (implicit)"},
	{"ELL'", "K = D x K0", "pi1 (implicit)", "row: K -> R"},
	{"DIA", "K = K0 x D, offset: K0 -> Z", "j = k mod |D| (implicit)", "i = j - offset (implicit)"},
	{"BCSR", "K = K0 x BR x BD, K0 ordered", "col: K0 -> D0", "rowptr: R0 -> [K0,K0]"},
	{"BCSC", "K = K0 x BR x BD, K0 ordered", "colptr: D0 -> [K0,K0]", "row: K0 -> R0"},
}

func main() {
	fmt.Printf("%-7s | %-30s | %-26s | %s\n", "Format", "Structural assumptions", "Column relation", "Row relation")
	fmt.Println(repeat('-', 110))
	for _, r := range formatRows {
		fmt.Printf("%-7s | %-30s | %-26s | %s\n", r.format, r.structural, r.colRel, r.rowRel)
	}

	// Live verification on a 2D Laplacian.
	ref := sparse.Laplacian2D(8, 8)
	want := sparse.ToDense(ref)
	n := ref.Domain().Size()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	fmt.Println("\nlive checks on an 8x8-grid Laplacian:")
	ok := true
	for _, f := range sparse.Formats {
		m := sparse.Convert(ref, f)
		same := equal(sparse.ToDense(m), want)
		sound := coPartitioningSound(m, x)
		fmt.Printf("  %-6s nnz=%4d  operator-equal=%-5v  co-partitioning-sound=%v\n",
			f, m.NNZ(), same, sound)
		ok = ok && same && sound
	}
	if !ok {
		fmt.Println("FAILED")
		os.Exit(1)
	}
	fmt.Println("all formats verified")
}

// coPartitioningSound checks the Section 3.1 property: each range piece
// of y = Ax is computable from the derived kernel piece and input halo
// alone.
func coPartitioningSound(m sparse.Matrix, x []float64) bool {
	rows, cols := sparse.Dims(m)
	want := make([]float64, rows)
	sparse.MultiplyAdd(m, want, x)
	rp := index.EqualPartition(m.Range(), 4)
	for c := 0; c < 4; c++ {
		kset := dpart.RowRToK(m.RowRelation(), rp).Piece(c)
		dset := dpart.ColKToD(m.ColRelation(), dpart.RowRToK(m.RowRelation(), rp)).Piece(c)
		masked := make([]float64, cols)
		dset.Each(func(j int64) {
			if j >= 0 && j < cols {
				masked[j] = x[j]
			}
		})
		got := make([]float64, rows)
		m.MultiplyAddPart(got, masked, kset)
		bad := false
		rp.Piece(c).Each(func(i int64) {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				bad = true
			}
		})
		if bad {
			return false
		}
	}
	return true
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func repeat(c byte, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = c
	}
	return string(s)
}
