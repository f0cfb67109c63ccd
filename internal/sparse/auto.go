package sparse

import (
	"fmt"
	"strings"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// Auto is a composite matrix of tiles, each an ordinary Matrix placed
// at a row band and a column window of the whole. AutoSelectBands makes
// one tile per row band, stored in the format the profile model predicts
// fastest for that band's structure, and BlockDiag makes diag(m, …, m)
// out of k tiles that all alias one m ("Bring Your Own Formats": the
// composite satisfies the ordinary Matrix contract, so planners and
// solvers cannot tell it from a matrix stored whole). The composite's
// kernel space concatenates the tiles' kernel spaces in tile order, and
// its row and column relations are the tiles' own relations shifted into
// global coordinates (dpart.Concat) — nothing is materialized per kernel
// point, so a uniform pick costs the planner exactly what the plain
// format costs, and partition projection, dependence analysis, and the
// conformance matrix all work unchanged.
type Auto struct {
	tiles []autoTile
	nnz   int64 // total stored entries

	rowRel, colRel *dpart.Concat
}

// autoTile is one tile of an Auto matrix.
type autoTile struct {
	r0, r1 int64 // global row band [r0, r1)
	c0, c1 int64 // global column window [c0, c1)
	koff   int64 // global kernel offset of the tile's kernel space
	klen   int64 // tile kernel size
	mat    Matrix
	format string
}

// AutoSelectBands tunes each row band of a to its predicted-fastest
// storage format. starts lists the first row of every band in ascending
// order; a missing leading 0 is implied and degenerate (empty) bands are
// skipped. Matrices with no rows are returned as a single CSR-backed
// band so the result is always a usable Matrix.
func AutoSelectBands(a *CSR, starts []int64) *Auto {
	rows, cols := a.rows, a.cols
	bounds := make([]int64, 0, len(starts)+2)
	bounds = append(bounds, 0)
	for _, s := range starts {
		if s > bounds[len(bounds)-1] && s < rows {
			bounds = append(bounds, s)
		}
	}
	bounds = append(bounds, rows)

	// Pick a format per band. Adjacent bands that chose the same format
	// stay separate tiles: a merged ELL pads every row to the longest row
	// of the union and a merged DIA stores the union of the diagonals, so
	// merging can cost far more than the per-band predictions that
	// justified the pick — and a piece computes over one band either way.
	type bandPick struct {
		r0, r1 int64
		f      *format
	}
	var picks []bandPick
	var bandedCost float64
	for b := 0; b+1 < len(bounds); b++ {
		r0, r1 := bounds[b], bounds[b+1]
		if r0 >= r1 && rows > 0 {
			continue
		}
		f, cost := selectFormatCost(ProfileRows(a, r0, r1))
		bandedCost += cost
		picks = append(picks, bandPick{r0: r0, r1: r1, f: f})
	}

	// Banding is not free: a narrow band of a wide matrix pays format
	// overheads the whole matrix amortizes (DIA's per-diagonal arrays
	// span the full column width, ELL pads to the band's own max row
	// length). Compare the composite's total predicted cost against the
	// best single whole-matrix format and keep whichever is cheaper —
	// uniform structure then gets the undivided layout it wants, while
	// genuinely mixed structure keeps its per-band formats.
	if len(picks) > 1 {
		if f, cost := selectFormatCost(ProfileRows(a, 0, rows)); cost < bandedCost {
			picks = []bandPick{{r0: 0, r1: rows, f: f}}
		}
	}

	var tiles []autoTile
	for _, p := range picks {
		// The pick is within a rate ratio of the band's CSR size, so it
		// needs no size check.
		tiles = append(tiles, autoTile{r0: p.r0, r1: p.r1, c1: cols,
			mat: p.f.build(bandCSR(a, p.r0, p.r1)), format: p.f.name})
	}
	if len(tiles) == 0 {
		// Zero-row matrix: keep one empty CSR tile so the relations and
		// kernels are well defined.
		tiles = append(tiles, autoTile{c1: cols, mat: bandCSR(a, 0, rows), format: "CSR"})
	}
	return newAuto(tiles, rows, cols)
}

// BlockDiag returns diag(m, …, m) with k diagonal blocks as a view: k
// tiles that all alias m, so the result stores nothing per nonzero and
// its kernels run m's own kernels on each block's slice of the vectors.
// k = 1 returns m itself.
func BlockDiag(m Matrix, k int) Matrix {
	if k < 1 {
		panic("sparse: BlockDiag needs k >= 1")
	}
	if k == 1 {
		return m
	}
	rows, cols := Dims(m)
	tiles := make([]autoTile, k)
	for b := range tiles {
		o := int64(b)
		tiles[b] = autoTile{r0: o * rows, r1: (o + 1) * rows, c0: o * cols, c1: (o + 1) * cols,
			mat: m, format: m.Format()}
	}
	return newAuto(tiles, int64(k)*rows, int64(k)*cols)
}

// newAuto places tiles in a rows × cols composite: kernel offsets in
// tile order, and each tile's relations shifted to its row band and
// column window.
func newAuto(tiles []autoTile, rows, cols int64) *Auto {
	au := &Auto{tiles: tiles}
	rowParts := make([]dpart.ConcatPart, len(tiles))
	colParts := make([]dpart.ConcatPart, len(tiles))
	var koff int64
	for i := range tiles {
		t := &tiles[i]
		t.koff, t.klen = koff, t.mat.Kernel().Size()
		koff += t.klen
		au.nnz += t.mat.NNZ()
		rowParts[i] = dpart.ConcatPart{Rel: t.mat.RowRelation(), RightOff: t.r0}
		colParts[i] = dpart.ConcatPart{Rel: t.mat.ColRelation(), RightOff: t.c0}
	}
	au.rowRel = dpart.NewConcat("K", rowParts, index.NewSpace("R", rows))
	au.colRel = dpart.NewConcat("K", colParts, index.NewSpace("D", cols))
	return au
}

// AutoSelect tunes a with nbands equal row bands (clamped to the row
// count). nbands should match the piece count the planner partitions
// the operator's range into, so each piece gets the format its local
// structure wants; AddOperatorAuto derives that automatically.
func AutoSelect(a *CSR, nbands int) *Auto {
	if nbands < 1 {
		nbands = 1
	}
	if int64(nbands) > a.rows && a.rows > 0 {
		nbands = int(a.rows)
	}
	starts := make([]int64, 0, nbands)
	for b := 0; b < nbands; b++ {
		starts = append(starts, a.rows*int64(b)/int64(nbands))
	}
	return AutoSelectBands(a, starts)
}

// bandCSR extracts rows [r0, r1) of a as a standalone CSR matrix over
// the same column space. The column-index and value arrays are shared
// sub-slices (no copy); only the band's row pointers are rebased.
func bandCSR(a *CSR, r0, r1 int64) *CSR {
	lo, hi := a.rowptr[r0], a.rowptr[r1]
	rp := make([]int64, r1-r0+1)
	for i := range rp {
		rp[i] = a.rowptr[r0+int64(i)] - lo
	}
	return NewCSR(r1-r0, a.cols, rp, a.colIdx[lo:hi:hi], a.vals[lo:hi:hi])
}

// SelectedFormats reports the format of every tile, in tile order, as
// "format[r0:r1)" strings over the tile's row band — what mmsolve
// -format auto prints.
func (a *Auto) SelectedFormats() []string {
	out := make([]string, len(a.tiles))
	for i, t := range a.tiles {
		out[i] = fmt.Sprintf("%s[%d:%d)", t.format, t.r0, t.r1)
	}
	return out
}

// String summarizes the tiling.
func (a *Auto) String() string {
	return "Auto(" + strings.Join(a.SelectedFormats(), " ") + ")"
}

// Domain implements Matrix.
func (a *Auto) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *Auto) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *Auto) Kernel() index.Space { return a.rowRel.Left() }

// NNZ implements Matrix.
func (a *Auto) NNZ() int64 { return a.nnz }

// Format implements Matrix.
func (a *Auto) Format() string { return "Auto" }

// RowRelation implements Matrix. Padding kernel points (DIA and ELL
// fill whose tile-local image is empty) relate to no row, exactly as in
// the tile's own format.
func (a *Auto) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *Auto) ColRelation() dpart.Relation { return a.colRel }

// localKset clips a global kernel set to one tile and rebases it into
// the tile's kernel space. A set already inside an unshifted tile — every
// piece of a uniform pick — is handed through as is.
func (t *autoTile) localKset(kset index.IntervalSet) index.IntervalSet {
	if t.koff == 0 && kset.Bounds().Hi < t.klen {
		return kset
	}
	return kset.Rebase(index.Interval{Lo: t.koff, Hi: t.koff + t.klen - 1}, -t.koff)
}

// MultiplyAddPart implements Matrix.
func (a *Auto) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for i := range a.tiles {
		t := &a.tiles[i]
		if local := t.localKset(kset); !local.Empty() {
			t.mat.MultiplyAddPart(y[t.r0:t.r1], x[t.c0:t.c1], local)
		}
	}
}

// MultiplyAddTPart implements Matrix.
func (a *Auto) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for i := range a.tiles {
		t := &a.tiles[i]
		if local := t.localKset(kset); !local.Empty() {
			t.mat.MultiplyAddTPart(y[t.c0:t.c1], x[t.r0:t.r1], local)
		}
	}
}
