// Package assemble builds sparse matrices and vectors from concurrent
// coordinate contributions — the "assembling matrix and vector objects to
// define a linear system" challenge the exascale report (and the paper's
// P4) calls out. Finite-element applications generate entries
// element-by-element across threads or ranks; the Builder accepts those
// contributions concurrently, sums duplicates, and produces a CSR matrix
// ready for the planner.
package assemble

import (
	"sync"

	"kdrsolvers/internal/sparse"
)

// Builder accumulates matrix coordinates from many goroutines. Add and
// AddBatch are safe for concurrent use; Finish must be called once, after
// all contributors are done.
type Builder struct {
	rows, cols int64
	shards     []shard
}

type shard struct {
	mu     sync.Mutex
	coords []sparse.Coord
}

// NewBuilder returns a builder for a rows × cols matrix with the given
// contention sharding (one shard per expected concurrent contributor is
// a good default; minimum 1).
func NewBuilder(rows, cols int64, shards int) *Builder {
	if shards < 1 {
		shards = 1
	}
	return &Builder{rows: rows, cols: cols, shards: make([]shard, shards)}
}

// shardFor spreads contributions by row so concurrent writers rarely
// collide.
func (b *Builder) shardFor(row int64) *shard {
	return &b.shards[int(row)%len(b.shards)]
}

// Add contributes one entry; duplicates at the same position are summed
// at Finish, matching the add-insert semantics of FEM assembly.
func (b *Builder) Add(row, col int64, v float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic("assemble: coordinate out of bounds")
	}
	s := b.shardFor(row)
	s.mu.Lock()
	s.coords = append(s.coords, sparse.Coord{Row: row, Col: col, Val: v})
	s.mu.Unlock()
}

// AddBatch contributes a batch of entries (e.g. one element matrix) with
// a single lock acquisition.
func (b *Builder) AddBatch(coords []sparse.Coord) {
	if len(coords) == 0 {
		return
	}
	for _, c := range coords {
		if c.Row < 0 || c.Row >= b.rows || c.Col < 0 || c.Col >= b.cols {
			panic("assemble: coordinate out of bounds")
		}
	}
	s := b.shardFor(coords[0].Row)
	s.mu.Lock()
	s.coords = append(s.coords, coords...)
	s.mu.Unlock()
}

// Finish merges all shards into a CSR matrix, summing duplicate
// positions. The builder must not be used afterwards.
func (b *Builder) Finish() *sparse.CSR {
	var all []sparse.Coord
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		all = append(all, s.coords...)
		s.coords = nil
		s.mu.Unlock()
	}
	return sparse.CSRFromCoords(b.rows, b.cols, all)
}

// VectorBuilder accumulates right-hand-side contributions (b[i] += v)
// concurrently, the vector half of FEM assembly.
type VectorBuilder struct {
	mu   sync.Mutex
	data []float64
}

// NewVectorBuilder returns a zeroed n-entry vector builder.
func NewVectorBuilder(n int64) *VectorBuilder {
	return &VectorBuilder{data: make([]float64, n)}
}

// Add contributes v to entry i; contributions sum.
func (vb *VectorBuilder) Add(i int64, v float64) {
	vb.mu.Lock()
	vb.data[i] += v
	vb.mu.Unlock()
}

// Finish returns the assembled vector; the builder must not be used
// afterwards.
func (vb *VectorBuilder) Finish() []float64 {
	vb.mu.Lock()
	defer vb.mu.Unlock()
	d := vb.data
	vb.data = nil
	return d
}
