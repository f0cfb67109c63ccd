// Relatedsystems: the paper's Section 4.2 "related systems" pattern —
// solve (A₀ + ΔA_k)·x_k = b_k for a family of small perturbations ΔA_k of
// one base matrix. The multi-operator system stores A₀ once and adds each
// sparse perturbation as its own quadruple on the same component pair:
//
//	{(K₀, A₀, k, k), (K_k, ΔA_k, k, k)}  for k = 1 … n
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
	const n = int64(300)
	base := sparse.Laplacian1D(n) // A₀, stored once

	// Each perturbation strengthens a few diagonal entries — e.g. local
	// material changes in a family of related simulations.
	deltas := make([]*sparse.CSR, nSystems)
	for k := range deltas {
		var coords []sparse.Coord
		for t := int64(0); t < 5; t++ {
			i := (int64(k)*37 + t*53) % n
			coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 0.5 + float64(k)})
		}
		deltas[k] = sparse.CSRFromCoords(n, n, coords)
	}

	bs := make([][]float64, nSystems)
	xs := make([][]float64, nSystems)
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	for k := 0; k < nSystems; k++ {
		bs[k] = make([]float64, n)
		for i := range bs[k] {
			bs[k][i] = 1 + math.Cos(float64(i)/9+float64(k))
		}
		xs[k] = make([]float64, n)
		si := p.AddSolVector(xs[k], index.EqualPartition(index.NewSpace("D", n), 2))
		ri := p.AddRHSVector(bs[k], index.EqualPartition(index.NewSpace("R", n), 2))
		p.AddOperator(base, si, ri)      // shared A₀
		p.AddOperator(deltas[k], si, ri) // per-system ΔA_k, summed implicitly
	}
	p.Finalize()
	res := solvers.Solve(p, solvers.NewCG(p), 1e-10, 4000)
	p.Drain()

	// Verify against explicitly assembled A₀ + ΔA_k.
	worst := 0.0
	y := make([]float64, n)
	for k := 0; k < nSystems; k++ {
		ak := sparse.Add(base, deltas[k])
		sparse.SpMV(ak, y, xs[k])
		var r2 float64
		for i := range y {
			d := y[i] - bs[k][i]
			r2 += d * d
		}
		r := math.Sqrt(r2)
		fmt.Printf("system %d: ‖(A₀+ΔA)x−b‖ = %.3g\n", k, r)
		if r > worst {
			worst = r
		}
	}
	fmt.Printf("solved %d related systems in %d joint iterations; A₀ stored once\n",
		nSystems, res.Iterations)
	if !res.Converged || worst > 1e-8 {
		panic("relatedsystems: solve failed")
	}
	fmt.Println("ok")
}
