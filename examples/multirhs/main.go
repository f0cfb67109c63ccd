// Multirhs: the paper's Section 4.2 "multiple right-hand sides" pattern —
// solve A·x_k = b_k for several right-hand sides at once by building the
// multi-operator system {(K, A, 1, 1), …, (K, A, n, n)} in which every
// quadruple aliases the same physical matrix. Nothing is duplicated: one
// CSR object backs all the diagonal blocks.
package main

import (
	"fmt"
	"math"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

func main() {
	const nSystems = 3
	const n = int64(400)
	a := sparse.Laplacian1D(n) // one stored matrix, aliased into every block

	// Distinct right-hand sides.
	bs := make([][]float64, nSystems)
	for k := range bs {
		bs[k] = make([]float64, n)
		for i := range bs[k] {
			bs[k][i] = math.Sin(float64(k+1) * float64(i) / 50)
		}
	}

	xs := make([][]float64, nSystems)
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	for k := 0; k < nSystems; k++ {
		xs[k] = make([]float64, n)
		si := p.AddSolVector(xs[k], index.EqualPartition(index.NewSpace("D", n), 2))
		ri := p.AddRHSVector(bs[k], index.EqualPartition(index.NewSpace("R", n), 2))
		p.AddOperator(a, si, ri) // the same a every time: aliasing, not copying
	}
	p.Finalize()
	res := solvers.Solve(p, solvers.NewCG(p), 1e-10, 4000)
	p.Drain()

	// Verify each system independently: ‖A x_k − b_k‖ small.
	worst := 0.0
	y := make([]float64, n)
	for k := 0; k < nSystems; k++ {
		sparse.SpMV(a, y, xs[k])
		var r2 float64
		for i := range y {
			d := y[i] - bs[k][i]
			r2 += d * d
		}
		r := math.Sqrt(r2)
		fmt.Printf("system %d: ‖Ax−b‖ = %.3g\n", k, r)
		if r > worst {
			worst = r
		}
	}
	fmt.Printf("solved %d systems in %d joint CG iterations with one stored matrix\n",
		nSystems, res.Iterations)
	if !res.Converged || worst > 1e-8 {
		panic("multirhs: solve failed")
	}

	// The sequential alternative: when the right-hand sides arrive one at
	// a time (a time-stepping loop, a parameter sweep), GCRO-DR carries
	// its deflation subspace from solve to solve through a RecycleCache
	// the caller owns: every solve handed the same cache warm-starts from
	// the last one's space, so later solves skip re-discovering the slow
	// eigenspace the first one paid for. (A 2D Laplacian of the same size
	// here: the 1D chain's spectrum stagnates any short-restart GMRES,
	// recycled or not.)
	a2 := sparse.Laplacian2D(20, 20)
	var cache solvers.RecycleCache
	iters := make([]int, nSystems)
	for k := 0; k < nSystems; k++ {
		x := make([]float64, n)
		pk := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
		si := pk.AddSolVector(x, index.EqualPartition(index.NewSpace("D", n), 2))
		ri := pk.AddRHSVector(bs[k], index.EqualPartition(index.NewSpace("R", n), 2))
		pk.AddOperator(a2, si, ri)
		pk.Finalize()
		s := solvers.NewGCRODR(pk, 10, 4, &cache)
		rk := solvers.Solve(pk, s, 1e-8, 4000)
		pk.Drain()
		if !rk.Converged {
			panic("multirhs: recycled solve failed")
		}
		s.SaveRecycleSpace()
		iters[k] = rk.Iterations
		fmt.Printf("recycled solve %d: %d GCRO-DR iterations (true residual %.3g)\n",
			k, rk.Iterations, rk.TrueResidual)
	}
	if iters[nSystems-1] > iters[0] {
		panic("multirhs: recycling made later solves slower")
	}
	fmt.Println("ok")
}
