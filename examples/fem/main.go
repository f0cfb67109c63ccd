// Fem: the end-to-end workflow the paper's introduction motivates — a
// finite-element application assembles its stiffness matrix and load
// vector concurrently, element by element, then hands everything to the
// solver framework in place. P1 triangles on a structured triangulation
// of the unit square are assembled from per-element 3 × 3 stiffness
// matrices (whose sum is exactly the 5-point stencil), and the resulting
// Poisson problem is solved with Jacobi-preconditioned CG.
package main

import (
	"fmt"
	"math"
	"sync"

	"kdrsolvers/internal/assemble"
	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

func main() {
	// (nx+1) x (ny+1) cells; interior nodes carry unknowns.
	const nx, ny = 48, 48
	n := int64(nx * ny)
	h := 1.0 / float64(nx+1)

	idx := func(i, j int) int64 { return int64(i*ny + j) }
	inside := func(i, j int) bool { return i >= 0 && i < nx && j >= 0 && j < ny }

	// The P1 element stiffness matrix for a right triangle with legs h is
	// independent of h in 2D: ½·[[2,-1,-1],[-1,1,0],[-1,0,1]] with the
	// right angle at vertex 0.
	elem := [3][3]float64{{1, -0.5, -0.5}, {-0.5, 0.5, 0}, {-0.5, 0, 0.5}}

	// Assemble concurrently: one goroutine per mesh row, two triangles
	// per cell. Nodes on the boundary are eliminated (Dirichlet), so
	// contributions involving them are dropped.
	mat := assemble.NewBuilder(n, n, 8)
	load := assemble.NewVectorBuilder(n)
	// Manufactured solution u = x(1−x)·y(1−y) (not a discrete
	// eigenfunction, so the solver does real work): f = −Δu.
	f := func(x, y float64) float64 {
		return 2 * (y*(1-y) + x*(1-x))
	}
	var wg sync.WaitGroup
	for ci := -1; ci < nx; ci++ {
		wg.Add(1)
		ci := ci
		go func() {
			defer wg.Done()
			for cj := -1; cj < ny; cj++ {
				// Cell corners in node coordinates (boundary nodes are the
				// virtual indices outside [0,n)).
				corners := [4][2]int{{ci, cj}, {ci + 1, cj}, {ci, cj + 1}, {ci + 1, cj + 1}}
				// Two triangles: (0,1,2) right angle at corner 0, and
				// (3,2,1) right angle at corner 3.
				for _, tri := range [2][3]int{{0, 1, 2}, {3, 2, 1}} {
					var batch []sparse.Coord
					for a := 0; a < 3; a++ {
						va := corners[tri[a]]
						if !inside(va[0], va[1]) {
							continue
						}
						ra := idx(va[0], va[1])
						for b := 0; b < 3; b++ {
							vb := corners[tri[b]]
							if !inside(vb[0], vb[1]) {
								continue
							}
							if v := elem[a][b]; v != 0 {
								batch = append(batch, sparse.Coord{Row: ra, Col: idx(vb[0], vb[1]), Val: v})
							}
						}
						// Lumped load: ∫f·φ ≈ f(node)·(element area)/3.
						x, y := float64(va[0]+1)*h, float64(va[1]+1)*h
						load.Add(ra, f(x, y)*h*h/6)
					}
					if len(batch) > 0 {
						mat.AddBatch(batch)
					}
				}
			}
		}()
	}
	wg.Wait()
	a := mat.Finish()
	b := load.Finish()
	fmt.Printf("assembled %d x %d stiffness matrix: %d nonzeros from %d cells\n",
		n, n, a.NNZ(), (nx+1)*(ny+1))

	// The summed P1 element matrices on this mesh ARE the 5-point stencil.
	ref := sparse.Laplacian2D(nx, ny)
	da, dr := sparse.ToDense(a), sparse.ToDense(ref)
	for i := range da {
		if math.Abs(da[i]-dr[i]) > 1e-12 {
			panic("fem: assembled matrix does not match the 5-point stencil")
		}
	}

	// Solve with Jacobi-preconditioned CG.
	x := make([]float64, n)
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), 8))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), 8))
	p.AddOperator(a, si, ri)
	p.AddPreconditioner(precond.Jacobi(a), si, ri)
	p.Finalize()
	res := solvers.Solve(p, solvers.NewPCG(p), 1e-10, 2000)
	p.Drain()

	var maxErr float64
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			xx, yy := float64(i+1)*h, float64(j+1)*h
			exact := xx * (1 - xx) * yy * (1 - yy)
			if e := math.Abs(x[idx(i, j)] - exact); e > maxErr {
				maxErr = e
			}
		}
	}
	fmt.Printf("PCG converged=%v in %d iterations\n", res.Converged, res.Iterations)
	fmt.Printf("max error vs exact solution: %.3g (O(h²) = %.3g)\n", maxErr, h*h)
	if !res.Converged || maxErr > 2*h*h {
		panic("fem: solve failed")
	}
	fmt.Println("ok: concurrent element assembly straight into the solver")
}
