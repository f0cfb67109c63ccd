package solvers

import (
	"math"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/taskrt"
)

// Riding does not change answers: a product that carries its output's
// dots computes the leaves a dot sweep would, so every solver's solve
// with riders is Float64bits-identical, iterate and iteration count, to
// the same solve with SDC detection on, where every dot launches as a
// sweep whose checksum pre-pass verifies its operands. The solvers whose
// steps pass dots to a product (all but PipeCG, MINRES, s-step CG and
// PGMRES) launch that sweep (matmul.dots, psolve.dots) with detection on
// and never with riders.
func TestRidingDotsKeepAnswers(t *testing.T) {
	const side, pieces, tol = 32, 8, 1e-10
	rides := map[string]bool{"cg": true, "pcg": true, "bicg": true, "bicgstab": true, "cgs": true, "gmres": true, "gcrodr": true}
	dotSweeps := func(g taskrt.Graph) (k int) {
		for _, n := range g.Nodes {
			if n.Name == "matmul.dots" || n.Name == "psolve.dots" {
				k++
			}
		}
		return k
	}
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			a := confBase(side, wantsSPD(name))
			run := func(sdc bool) (Result, []float64, int) {
				p := planFor(a, fusedRHS(side*side), pieces)
				if name == "pcg" {
					p = pcgPlanFor(a, fusedRHS(side*side), pieces)
				}
				var mon *core.SDCMonitor
				if sdc {
					mon = p.EnableSDCDetection()
				}
				res := Solve(p, New(name, p), tol, 3000)
				p.Drain()
				if mon != nil && mon.Count() != 0 {
					t.Fatalf("%d SDC alarms on a clean solve: %v", mon.Count(), mon.Alarms())
				}
				return res, p.VecData(core.SOL, 0), dotSweeps(p.Runtime().Graph())
			}
			rode, x, swept := run(false)
			plain, xs, sweptSDC := run(true)
			if rode.Iterations != plain.Iterations {
				t.Fatalf("%d iterations with riders, %d with dot sweeps", rode.Iterations, plain.Iterations)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("x[%d] = %v with riders, %v with dot sweeps", i, x[i], xs[i])
				}
			}
			if swept != 0 || (sweptSDC > 0) != rides[name] {
				t.Errorf("%d carried-dot sweep tasks with riders, %d with detection; want 0 and some: %v",
					swept, sweptSDC, rides[name])
			}
		})
	}
}
