package index

import "fmt"

// A Grid describes a dense multi-dimensional rectangular index space and
// its row-major linearization. Grids are how the stencil benchmarks state
// their 1D/2D/3D domain and range spaces; the rest of the framework works
// on the linearized coordinates.
type Grid struct {
	// Dims holds the extent of each dimension, slowest-varying first.
	Dims []int64
}

// NewGrid returns a grid with the given extents (slowest-varying first).
func NewGrid(dims ...int64) Grid {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("index: grid extent %d must be positive", d))
		}
	}
	ds := make([]int64, len(dims))
	copy(ds, dims)
	return Grid{Dims: ds}
}

// Rank returns the number of dimensions.
func (g Grid) Rank() int { return len(g.Dims) }

// Size returns the total number of grid points.
func (g Grid) Size() int64 {
	n := int64(1)
	for _, d := range g.Dims {
		n *= d
	}
	return n
}

// Linearize maps multi-dimensional coordinates to a row-major linear index.
func (g Grid) Linearize(coords ...int64) int64 {
	if len(coords) != len(g.Dims) {
		panic("index: coordinate rank mismatch")
	}
	var idx int64
	for i, c := range coords {
		if c < 0 || c >= g.Dims[i] {
			panic(fmt.Sprintf("index: coordinate %d out of range [0,%d)", c, g.Dims[i]))
		}
		idx = idx*g.Dims[i] + c
	}
	return idx
}

// Space returns the linearized index space of the grid.
func (g Grid) Space(name string) Space { return NewSpace(name, g.Size()) }

// Contains reports whether the coordinates lie inside the grid.
func (g Grid) Contains(coords ...int64) bool {
	if len(coords) != len(g.Dims) {
		return false
	}
	for i, c := range coords {
		if c < 0 || c >= g.Dims[i] {
			return false
		}
	}
	return true
}

// TilePartition tiles the grid into a cartesian product of per-dimension
// block counts and returns the resulting partition of the linearized space.
// tiles[i] is the number of tiles along dimension i; color order is
// row-major over tile coordinates. Tiling any dimension other than the
// slowest produces strided (multi-interval) pieces.
func (g Grid) TilePartition(name string, tiles ...int) Partition {
	if len(tiles) != len(g.Dims) {
		panic("index: tile rank mismatch")
	}
	nColors := 1
	for i, t := range tiles {
		if t <= 0 || int64(t) > g.Dims[i] {
			panic(fmt.Sprintf("index: tile count %d invalid for extent %d", t, g.Dims[i]))
		}
		nColors *= t
	}
	pieces := make([]IntervalSet, nColors)
	// Per-dimension block bounds.
	bounds := make([][]Interval, len(g.Dims))
	for i, t := range tiles {
		bounds[i] = blockBounds(g.Dims[i], t)
	}
	// Enumerate tile coordinates in row-major order.
	tc := make([]int, len(g.Dims))
	for c := 0; c < nColors; c++ {
		pieces[c] = g.tileSet(bounds, tc)
		// Increment tile coordinates.
		for i := len(tc) - 1; i >= 0; i-- {
			tc[i]++
			if tc[i] < tiles[i] {
				break
			}
			tc[i] = 0
		}
	}
	return NewPartition(g.Space(name), pieces)
}

// tileSet builds the interval set of one tile given per-dimension bounds
// and tile coordinates.
func (g Grid) tileSet(bounds [][]Interval, tc []int) IntervalSet {
	// The innermost dimension contributes contiguous runs; outer
	// dimensions replicate them at strides.
	rank := len(g.Dims)
	last := rank - 1
	inner := bounds[last][tc[last]]
	// Enumerate the outer coordinates of the tile.
	var set IntervalSet
	outer := make([]int64, rank-1)
	for i := range outer {
		outer[i] = bounds[i][tc[i]].Lo
	}
	for {
		base := int64(0)
		for i := 0; i < rank-1; i++ {
			base = base*g.Dims[i] + outer[i]
		}
		base = base*g.Dims[last] + inner.Lo
		set.AddInterval(Interval{base, base + inner.Size() - 1})
		// Advance outer coordinates within the tile.
		i := rank - 2
		for ; i >= 0; i-- {
			outer[i]++
			if outer[i] <= bounds[i][tc[i]].Hi {
				break
			}
			outer[i] = bounds[i][tc[i]].Lo
		}
		if i < 0 {
			break
		}
	}
	return set
}

// blockBounds splits [0, n) into t nearly equal contiguous blocks.
func blockBounds(n int64, t int) []Interval {
	out := make([]Interval, t)
	lo := int64(0)
	for b := 0; b < t; b++ {
		size := n / int64(t)
		if int64(b) < n%int64(t) {
			size++
		}
		out[b] = Interval{lo, lo + size - 1}
		lo += size
	}
	return out
}
