package sparse

import (
	"fmt"

	"kdrsolvers/internal/index"
)

// StencilKind selects one of the four Laplacian stencil families used in
// the paper's evaluation (Section 6.1). The numeric values match the -dim
// codes of the BenchmarkStencil program in the artifact description.
type StencilKind int

const (
	// Stencil1D3 is the 3-point stencil for the 1D Laplacian.
	Stencil1D3 StencilKind = 1
	// Stencil2D5 is the 5-point stencil for the 2D Laplacian.
	Stencil2D5 StencilKind = 2
	// Stencil3D7 is the 7-point stencil for the 3D Laplacian.
	Stencil3D7 StencilKind = 3
	// Stencil3D27 is the 27-point stencil for the 3D Laplacian.
	Stencil3D27 StencilKind = 4
)

// stencils is the one statement of every stencil, indexed by kind: the
// paper's name, the rank, the neighbour offsets in grid coordinates in
// ascending-column order (row-major, the last coordinate fastest), and
// the value on the diagonal. Every other entry is −1, so each matrix is
// symmetric and weakly diagonally dominant, and Dirichlet truncation at
// the boundary makes it positive definite. The CSR generator (Stencil)
// and the matrix-free operator (NewStencilOperator) both read it.
var stencils = [...]struct {
	name string
	rank int
	offs [][3]int64
	diag float64
}{
	Stencil1D3:  {"3pt-1D", 1, [][3]int64{{-1}, {0}, {1}}, 2},
	Stencil2D5:  {"5pt-2D", 2, [][3]int64{{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}}, 4},
	Stencil3D7:  {"7pt-3D", 3, [][3]int64{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}}, 6},
	Stencil3D27: {"27pt-3D", 3, cube(), 26},
}

// cube returns the 27 offsets of the 3 × 3 × 3 cube in lexicographic
// order.
func cube() [][3]int64 {
	offs := make([][3]int64, 27)
	for i := range offs {
		offs[i] = [3]int64{int64(i/9 - 1), int64(i/3%3 - 1), int64(i%3 - 1)}
	}
	return offs
}

// known reports whether s names a row of the stencil table.
func (s StencilKind) known() bool { return s >= Stencil1D3 && int(s) < len(stencils) }

// String returns the paper's name for the stencil.
func (s StencilKind) String() string {
	if s.known() {
		return stencils[s].name
	}
	return fmt.Sprintf("StencilKind(%d)", int(s))
}

// Rank returns the spatial dimension of the stencil.
func (s StencilKind) Rank() int {
	if !s.known() {
		panic("sparse: unknown stencil kind")
	}
	return stencils[s].rank
}

// GridFor builds a grid of roughly n unknowns with the stencil's rank,
// splitting the extent as evenly as possible across dimensions (each
// extent a power of two when n is).
func (s StencilKind) GridFor(n int64) index.Grid {
	switch s.Rank() {
	case 1:
		return index.NewGrid(n)
	case 2:
		nx := int64(1)
		for nx*nx < n {
			nx *= 2
		}
		return index.NewGrid(nx, n/nx)
	default:
		nx := int64(1)
		for nx*nx*nx < n {
			nx *= 2
		}
		ny := int64(1)
		for nx*ny*ny < n {
			ny *= 2
		}
		return index.NewGrid(nx, ny, n/(nx*ny))
	}
}

// Laplacian1D builds the 3-point Laplacian on a 1D grid of nx points.
func Laplacian1D(nx int64) *CSR { return Stencil(Stencil1D3, index.NewGrid(nx)) }

// Laplacian2D builds the 5-point Laplacian on an nx × ny grid.
func Laplacian2D(nx, ny int64) *CSR { return Stencil(Stencil2D5, index.NewGrid(nx, ny)) }

// Stencil builds the stencil matrix of kind on grid g, with Dirichlet
// boundaries, in CSR form. It walks the rows in order with a coordinate
// counter and emits every neighbour of the table that lies in the grid,
// in ascending column order. The grid's rank must match the stencil's.
func Stencil(kind StencilKind, g index.Grid) *CSR {
	if g.Rank() != kind.Rank() {
		panic("sparse: grid rank does not match stencil")
	}
	st, dims, n := &stencils[kind], g.Dims, g.Size()
	offs := linearOffsets(st.offs, dims)
	rowptr := make([]int64, n+1)
	colIdx := make([]int64, 0, int64(len(offs))*n)
	vals := make([]float64, 0, int64(len(offs))*n)
	var cd [3]int64 // the grid coordinates of row
	for row := int64(0); row < n; row++ {
		rowptr[row] = int64(len(vals))
		for b, c := range st.offs {
			if !inGrid(&cd, &c, dims, 1) {
				continue
			}
			v := -1.0
			if offs[b] == 0 {
				v = st.diag
			}
			colIdx = append(colIdx, row+offs[b])
			vals = append(vals, v)
		}
		nextPoint(&cd, dims)
	}
	rowptr[n] = int64(len(vals))
	return NewCSR(n, n, rowptr, colIdx, vals)
}

// linearOffsets returns each coordinate offset's column-minus-row offset
// on a grid of the given extents.
func linearOffsets(coords [][3]int64, dims []int64) []int64 {
	offs := make([]int64, len(coords))
	for b, c := range coords {
		for d := range dims {
			offs[b] = offs[b]*dims[d] + c[d]
		}
	}
	return offs
}

// inGrid reports whether the point cd + sign·c lies in a grid of the
// given extents.
func inGrid(cd, c *[3]int64, dims []int64, sign int64) bool {
	for d := range dims {
		if i := cd[d] + sign*c[d]; i < 0 || i >= dims[d] {
			return false
		}
	}
	return true
}

// nextPoint advances grid coordinates cd to the next point in row-major
// order.
func nextPoint(cd *[3]int64, dims []int64) {
	for d := len(dims) - 1; d >= 0; d-- {
		if cd[d]++; cd[d] < dims[d] {
			return
		}
		cd[d] = 0
	}
}
