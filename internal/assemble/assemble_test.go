package assemble

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"kdrsolvers/internal/sparse"
)

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(3, 3, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2.5)
	b.Add(2, 1, -1)
	a := b.Finish()
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 after summing", a.NNZ())
	}
	d := sparse.ToDense(a)
	if d[0] != 3.5 || d[2*3+1] != -1 {
		t.Fatalf("dense = %v", d)
	}
}

func TestBuilderConcurrent(t *testing.T) {
	// Many goroutines assembling overlapping contributions: totals must
	// be exact regardless of interleaving.
	const n = 64
	const workers = 16
	const perWorker = 500
	b := NewBuilder(n, n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		seed := int64(w)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				b.Add(r.Int63n(n), r.Int63n(n), 1)
			}
		}()
	}
	wg.Wait()
	a := b.Finish()
	// The sum of all entries equals the number of contributions.
	var total float64
	for _, v := range sparse.ToDense(a) {
		total += v
	}
	if total != workers*perWorker {
		t.Fatalf("total mass = %g, want %d", total, workers*perWorker)
	}
}

func TestAddBatch(t *testing.T) {
	b := NewBuilder(4, 4, 1)
	b.AddBatch(nil) // no-op
	b.AddBatch([]sparse.Coord{
		{Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1}, {Row: 2, Col: 1, Val: -1},
	})
	a := b.Finish()
	if a.NNZ() != 3 {
		t.Fatalf("nnz = %d", a.NNZ())
	}
}

func TestBuilderBounds(t *testing.T) {
	b := NewBuilder(2, 2, 1)
	for _, fn := range []func(){
		func() { b.Add(2, 0, 1) },
		func() { b.Add(0, -1, 1) },
		func() { b.AddBatch([]sparse.Coord{{Row: 0, Col: 5, Val: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestVectorBuilder(t *testing.T) {
	vb := NewVectorBuilder(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 8; i++ {
				vb.Add(i, 0.5)
			}
		}()
	}
	wg.Wait()
	v := vb.Finish()
	for i, x := range v {
		if math.Abs(x-4) > 1e-15 {
			t.Fatalf("v[%d] = %g, want 4", i, x)
		}
	}
}

func TestFEMAssemblyMatchesStencil(t *testing.T) {
	// Element-by-element P1 finite-element assembly on a right-triangle
	// mesh of the unit square reproduces the 5-point stencil exactly —
	// the classical identity, assembled concurrently per element row.
	const nx, ny = 6, 6 // interior nodes
	n := int64(nx * ny)
	b := NewBuilder(n, n, 4)
	idx := func(i, j int) int64 { return int64(i*ny + j) }
	// Assemble per interior node via its stencil contributions (the
	// summed element matrices of the 4 incident triangles around each
	// edge give the familiar -1 couplings and +4 diagonal).
	var wg sync.WaitGroup
	for i := 0; i < nx; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			for j := 0; j < ny; j++ {
				row := idx(i, j)
				var batch []sparse.Coord
				batch = append(batch, sparse.Coord{Row: row, Col: row, Val: 4})
				if i > 0 {
					batch = append(batch, sparse.Coord{Row: row, Col: idx(i-1, j), Val: -1})
				}
				if i < nx-1 {
					batch = append(batch, sparse.Coord{Row: row, Col: idx(i+1, j), Val: -1})
				}
				if j > 0 {
					batch = append(batch, sparse.Coord{Row: row, Col: idx(i, j-1), Val: -1})
				}
				if j < ny-1 {
					batch = append(batch, sparse.Coord{Row: row, Col: idx(i, j+1), Val: -1})
				}
				b.AddBatch(batch)
			}
		}()
	}
	wg.Wait()
	got := b.Finish()
	want := sparse.Laplacian2D(nx, ny)
	dg, dw := sparse.ToDense(got), sparse.ToDense(want)
	for i := range dg {
		if dg[i] != dw[i] {
			t.Fatalf("assembled matrix differs from stencil at %d: %g vs %g", i, dg[i], dw[i])
		}
	}
}
