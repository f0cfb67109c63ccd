package solvers

import (
	"math"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/taskrt"
)

// Detection does not change answers or the carried dots: a product
// carries its output's dots in the sweep's dot body with SDC detection
// on and off alike, the body then also verifying the operands it reads
// and writing guard slots. So every solver's solve is
// Float64bits-identical, iterate and iteration count, with detection on
// and off, raises no alarm, and launches no separate dot sweep
// (matmul.dots, psolve.dots) either way. That the riders' leaves are a
// sweep's is FuzzFusedSweep's and TestDotIsPieceInvariant's, which hold
// both paths to the host dot.
func TestRidingDotsKeepAnswers(t *testing.T) {
	const side, pieces, tol = 32, 8, 1e-10
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
			plain, x, swept := run(false)
			checked, xs, sweptSDC := run(true)
			if plain.Iterations != checked.Iterations {
				t.Fatalf("%d iterations without detection, %d with", plain.Iterations, checked.Iterations)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("x[%d] = %v without detection, %v with", i, x[i], xs[i])
				}
			}
			if swept != 0 || sweptSDC != 0 {
				t.Errorf("%d carried-dot sweep tasks without detection, %d with; want none", swept, sweptSDC)
			}
		})
	}
}
