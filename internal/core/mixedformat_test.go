package core

import (
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// The paper's Section 7 closes with "multi-operator systems allow
// KDRSolvers to process pieces of a matrix stored in multiple formats
// within a single linear system". These tests exercise exactly that: one
// logical operator assembled from components in different storage
// formats, including a matrix-free one.

// splitByBand splits a CSR matrix into its tridiagonal band and the
// remainder, as coordinates.
func splitByBand(a *sparse.CSR) (band, rest []sparse.Coord) {
	for _, c := range sparse.CoordsFromCSR(a) {
		d := c.Col - c.Row
		if d >= -1 && d <= 1 {
			band = append(band, c)
		} else {
			rest = append(rest, c)
		}
	}
	return band, rest
}

func TestMixedFormatOperatorSum(t *testing.T) {
	// A = DIA(tridiagonal part) + COO(remainder): two operators in two
	// formats on the same component pair must reproduce A·x.
	r := rand.New(rand.NewSource(11))
	full := sparse.Laplacian2D(6, 5)
	n := full.Domain().Size()
	band, rest := splitByBand(full)
	diaPart := sparse.DIAFromCSR(sparse.CSRFromCoords(n, n, band))
	cooPart := sparse.COOFromCoords(n, n, rest)

	x := randVec(r, n)
	want := make([]float64, n)
	sparse.SpMV(full, want, x)

	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	xc := append([]float64{}, x...)
	si := p.AddSolVector(xc, index.EqualPartition(index.NewSpace("D", n), 3))
	ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), 3))
	p.AddOperator(diaPart, si, ri)
	p.AddOperator(cooPart, si, ri)
	p.Finalize()
	y := p.AllocateWorkspace(RhsShape)
	p.Matmul(y, SOL)
	p.Drain()
	if !vecsClose(p.VecData(y, 0), want, 1e-12) {
		t.Fatal("mixed DIA+COO operator != assembled operator")
	}
}

func TestMixedFormatWithMatrixFree(t *testing.T) {
	// A logical operator = matrix-free stencil + a stored low-rank-ish
	// correction in CSR: the planner composes them transparently.
	r := rand.New(rand.NewSource(12))
	grid := index.NewGrid(4, 8)
	stencil := sparse.NewStencilOperator(sparse.Stencil2D5, grid)
	n := grid.Size()
	var corr []sparse.Coord
	for i := int64(0); i < n; i += 5 {
		corr = append(corr, sparse.Coord{Row: i, Col: (i + 3) % n, Val: 0.25})
	}
	correction := sparse.CSRFromCoords(n, n, corr)

	x := randVec(r, n)
	want := make([]float64, n)
	sparse.SpMV(stencil, want, x)
	tmp := make([]float64, n)
	sparse.SpMV(correction, tmp, x)
	for i := range want {
		want[i] += tmp[i]
	}

	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	xc := append([]float64{}, x...)
	si := p.AddSolVector(xc, index.EqualPartition(index.NewSpace("D", n), 4))
	ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), 4))
	p.AddOperator(stencil, si, ri)
	p.AddOperator(correction, si, ri)
	p.Finalize()
	y := p.AllocateWorkspace(RhsShape)
	p.Matmul(y, SOL)
	p.Drain()
	if !vecsClose(p.VecData(y, 0), want, 1e-12) {
		t.Fatal("matrix-free + stored correction != sum")
	}
}

func TestMixedFormatEveryPair(t *testing.T) {
	// Every pair of formats can share a component pair.
	full := sparse.Laplacian2D(4, 4)
	n := full.Domain().Size()
	band, rest := splitByBand(full)
	bandCSR := sparse.CSRFromCoords(n, n, band)
	restCSR := sparse.CSRFromCoords(n, n, rest)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want := make([]float64, n)
	sparse.SpMV(full, want, x)

	for _, f1 := range append(append([]string(nil), sparse.Formats...), "Auto") {
		for _, f2 := range []string{"COO", "ELL", "Dense", "Auto"} {
			p := NewPlanner(Config{Machine: machine.Lassen(1)})
			xc := append([]float64{}, x...)
			si := p.AddSolVector(xc, index.EqualPartition(index.NewSpace("D", n), 2))
			ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), 2))
			p.AddOperator(convertAll(bandCSR, f1), si, ri)
			p.AddOperator(convertAll(restCSR, f2), si, ri)
			p.Finalize()
			y := p.AllocateWorkspace(RhsShape)
			p.Matmul(y, SOL)
			p.Drain()
			if !vecsClose(p.VecData(y, 0), want, 1e-12) {
				t.Fatalf("%s + %s mixed product wrong", f1, f2)
			}
		}
	}
}

// materialize rebuilds a relation the way the tuned composite used to
// publish its own: one Image query per left point, stored as a function
// array. Points with an empty image (padding) get 0 and are reported, so
// callers can leave them out of every kernel set.
func materialize(rel dpart.Relation) (*dpart.FnRelation, index.IntervalSet) {
	f := make([]int64, rel.Left().Size())
	var empty index.IntervalSet
	for k := range f {
		if img := rel.Image(index.Span(int64(k), int64(k))); img.Empty() {
			empty.AddInterval(index.Interval{Lo: int64(k), Hi: int64(k)})
		} else {
			f[k] = img.Bounds().Lo
		}
	}
	return dpart.NewFnRelation("K", f, rel.Right()), empty
}

func TestAutoRelationsMatchMaterialized(t *testing.T) {
	// The tuned composite hands the planner its tiles' own relations,
	// shifted, instead of point-by-point arrays. Finalize must derive the
	// same co-partitions from them as from the materialized arrays once
	// padding points — which now belong to no piece — are left out.
	lap := sparse.Laplacian2D(6, 5)
	band, rest := splitByBand(sparse.Laplacian2D(4, 4))
	var mixed []sparse.Coord
	for i := int64(0); i < 16; i++ { // dense head
		for j := int64(0); j < 16; j++ {
			mixed = append(mixed, sparse.Coord{Row: i, Col: j, Val: float64(i+j) + 1})
		}
	}
	for i := int64(16); i < 128; i++ { // tridiagonal tail
		for _, j := range []int64{i - 1, i, i + 1} {
			if j < 128 {
				mixed = append(mixed, sparse.Coord{Row: i, Col: j, Val: 2})
			}
		}
	}
	cases := []struct {
		name   string
		a      *sparse.CSR
		pieces int
	}{
		{"lap2d_6x5", lap, 3},
		{"lap2d_4x4_band", sparse.CSRFromCoords(16, 16, band), 2},
		{"lap2d_4x4_rest", sparse.CSRFromCoords(16, 16, rest), 2},
		{"lap2d_64x64", sparse.Laplacian2D(64, 64), 8},
		{"dense_head_tridiagonal_tail", sparse.CSRFromCoords(128, 128, mixed), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.a.Domain().Size()
			p := NewPlanner(Config{Machine: machine.Lassen(1)})
			inPart := index.EqualPartition(index.NewSpace("D", n), tc.pieces)
			outPart := index.EqualPartition(index.NewSpace("R", n), tc.pieces)
			si := p.AddSolVector(make([]float64, n), inPart)
			ri := p.AddRHSVector(make([]float64, n), outPart)
			tuned := p.AddOperatorAuto(tc.a, si, ri)
			p.Finalize()
			// The adjoint partitions exist from the first MatmulT on.
			p.MatmulT(p.AllocateWorkspace(SolShape), RHS)
			p.Drain()
			op := p.ops[0]
			row, pad := materialize(tuned.RowRelation())
			col, _ := materialize(tuned.ColRelation())
			same := func(what string, c int, got, want index.IntervalSet) {
				t.Helper()
				if !got.Equal(want) {
					t.Errorf("%v piece %d: %s = %v, materialized relations give %v",
						tuned.SelectedFormats(), c, what, got, want)
				}
			}
			for c := 0; c < tc.pieces; c++ {
				k := op.kpart.Piece(c)
				same("kpart", c, k, row.Preimage(outPart.Piece(c)).Subtract(pad))
				same("inHalo", c, op.inHalo.Piece(c), col.Image(k))
				same("outImage", c, op.outImage.Piece(c), row.Image(k).Intersect(outPart.Piece(c)))

				// A column relation has no padding of its own (a DIA slot
				// reads its column whether or not its row exists), so
				// kpartT keeps the padding slots; they drop out of the row
				// image, and out of the comparison.
				kT := op.kpartT.Piece(c).Subtract(pad)
				same("kpartT", c, kT, col.Preimage(inPart.Piece(c)).Subtract(pad))
				same("inHaloT", c, op.inHaloT.Piece(c), row.Image(kT))
				same("col image of kpartT", c, tuned.ColRelation().Image(kT), col.Image(kT))
				if !op.outImageT.Piece(c).ContainsSet(col.Image(kT).Intersect(inPart.Piece(c))) {
					t.Errorf("piece %d: outImageT misses columns the materialized relation writes", c)
				}
			}
		})
	}
}

// AddOperatorAuto bands the operator by the range component's pieces:
// a tile per piece, each in the format its rows want — here CSR over a
// lower-triangular head, ELL over a tridiagonal tail.
func TestAddOperatorAutoTilesByPieces(t *testing.T) {
	const head, n = 48, 128
	var coords []sparse.Coord
	for i := int64(0); i < n; i++ {
		lo, hi := max(i-1, 0), min(i+1, n-1)
		if i < head {
			lo, hi = 0, i
		}
		for j := lo; j <= hi; j++ {
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: 1})
		}
	}
	a := sparse.CSRFromCoords(n, n, coords)
	for pieces, want := range map[int][]string{
		3: {"CSR[0:43)", "CSR[43:86)", "ELL[86:128)"},
		8: {"CSR[0:16)", "CSR[16:32)", "CSR[32:48)", "ELL[48:64)", "ELL[64:80)", "ELL[80:96)", "ELL[96:112)", "ELL[112:128)"},
	} {
		p := NewPlanner(Config{Machine: machine.Lassen(1)})
		si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
		ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), pieces))
		if got := p.AddOperatorAuto(a, si, ri).SelectedFormats(); !slices.Equal(got, want) {
			t.Errorf("pieces=%d: tiles %v, want %v", pieces, got, want)
		}
	}
}
