package solvers

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// conformance exercises every registered solver against every operator
// encoding the planner accepts — assembled CSR, converted ELL, and the
// matrix-free stencil operator — with tracing on and off, and in real
// and virtual planner modes. The solver layer never sees the format, so
// every cell of the matrix must behave identically.

// confSide is the grid side of the 64-unknown system the convergence
// matrix solves. confSideAboveGrain gives four pieces of 4 096 points —
// at the planner's launch grain, so a real planner launches one task per
// piece, as a virtual one always does — for the launch-count equality.
const (
	confSide           = 8
	confN              = confSide * confSide
	confSideAboveGrain = 128
)

// confOperator names one operator encoding of a side×side-unknown system.
type confOperator struct {
	name string
	mat  func(side int64, spd bool) sparse.Matrix
}

var confOperators = []confOperator{
	{"csr", func(side int64, spd bool) sparse.Matrix { return confBase(side, spd) }},
	{"ell", func(side int64, spd bool) sparse.Matrix { return sparse.Convert(confBase(side, spd), "ELL") }},
	// The adaptive composite picks a (possibly different) format per row
	// band; solvers must not be able to tell.
	{"auto", func(side int64, spd bool) sparse.Matrix { return sparse.Convert(confBase(side, spd), "Auto") }},
	// The stencil operator is matrix-free and inherently symmetric; the
	// nonsymmetric methods must still converge on it.
	{"stencil", func(side int64, _ bool) sparse.Matrix {
		return sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(side, side))
	}},
}

// confBase returns the assembled test matrix: an SPD 2D Laplacian or a
// nonsymmetric convection-diffusion operator.
func confBase(side int64, spd bool) *sparse.CSR {
	if spd {
		return sparse.Laplacian2D(side, side)
	}
	return convectionDiffusion(side*side, 0.2)
}

// wantsSPD reports whether the named method requires a symmetric
// positive definite operator.
func wantsSPD(name string) bool {
	return name == "cg" || name == "pipecg" || name == "pcg" || name == "minres" ||
		name == "sstep-cg"
}

// restartFamily reports whether the named method restarts on host-side
// scalar values (the GMRES family): exempt from real-vs-virtual launch
// count equality, since virtual scalars read as zero and change the
// cycle branching.
func restartFamily(name string) bool {
	return name == "gmres" || name == "pgmres" || name == "gcrodr"
}

// confPlanner builds a planner over the given operator, with the given
// preconditioner unless it is nil and virtual storage when virt is set.
func confPlanner(mat sparse.Matrix, pre *sparse.CSR, virt, traced bool) *core.Planner {
	n := mat.Domain().Size()
	part := func(tag string) index.Partition {
		return index.EqualPartition(index.NewSpace(tag, n), 4)
	}
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2), Virtual: virt})
	var si, ri int
	if virt {
		si = p.AddSolVectorVirtual(n, part("D"))
		ri = p.AddRHSVectorVirtual(n, part("R"))
	} else {
		si = p.AddSolVector(make([]float64, n), part("D"))
		ri = p.AddRHSVector(fusedRHS(int(n)), part("R"))
	}
	p.AddOperator(mat, si, ri)
	if pre != nil {
		p.AddPreconditioner(pre, si, ri)
	}
	p.Finalize()
	p.SetTracing(traced)
	return p
}

// trueResidual computes ‖b − A·x‖/‖b‖ host-side from the solved data,
// independent of the solver's residual recurrence.
func trueResidual(mat sparse.Matrix, x, b []float64) float64 {
	ax := make([]float64, len(b))
	sparse.SpMV(mat, ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

func TestSolverConformanceMatrix(t *testing.T) {
	const tol = 1e-8
	for _, name := range Names {
		for _, op := range confOperators {
			mat := op.mat(confSide, wantsSPD(name))
			var iters [2]int
			for ti, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/traced=%v", name, op.name, traced), func(t *testing.T) {
					var pre *sparse.CSR
					if name == "pcg" {
						pre = precond.Jacobi(mat)
					}
					p := confPlanner(mat, pre, false, traced)
					res := Solve(p, New(name, p), tol, 500)
					p.Drain()
					if err := p.Runtime().Err(); err != nil {
						t.Fatalf("runtime error: %v", err)
					}
					if !res.Converged {
						t.Fatalf("did not converge: %+v", res)
					}
					// The solver's recurrence said ‖r‖ ≤ tol; verify against
					// the honest residual of the iterate it produced. ‖b‖ > 1
					// here, so the relative measure is the stricter one.
					tr := trueResidual(mat, p.VecData(core.SOL, 0), fusedRHS(confN))
					if tr > tol {
						t.Errorf("true residual %g above tolerance %g", tr, tol)
					}
					// True-residual equivalence column: the reported
					// TrueResidual is the driver's recomputed ‖b − Ax‖ and must
					// agree with the host-side computation on the same iterate.
					var bb float64
					for _, v := range fusedRHS(confN) {
						bb += v * v
					}
					if rel := res.TrueResidual / math.Sqrt(bb); math.Abs(rel-tr) > 1e-10 {
						t.Errorf("reported true residual %g (relative) vs host %g", rel, tr)
					}
					iters[ti] = res.Iterations
				})
			}
			if iters[0] != iters[1] {
				t.Errorf("%s/%s: %d iterations untraced vs %d traced",
					name, op.name, iters[0], iters[1])
			}
		}
	}
}

// The halving rule: a rejected claim restarts the solver from x, and a
// miss that does not halve the previous one ends the solve. Below the
// attainable accuracy every claim misses by about as much as the last,
// so MINRES (whose measure φ̄ is a Givens recurrence and falls far below
// ‖b − Ax‖) stops unconverged well before MaxIter instead of restarting
// and re-verifying until then. The reported TrueResidual is the
// iterate's honest one.
func TestHalvingRuleStopsBelowAttainableAccuracy(t *testing.T) {
	const side, tol, budget = 32, 1e-15, 2000
	a := sparse.Laplacian2D(side, side)
	b := fusedRHS(side * side)
	p := planFor(a, append([]float64(nil), b...), 4)
	res := SolveResilient(p, NewMINRES(p), ResilientConfig{Tol: tol, MaxIter: budget})
	p.Drain()
	host := hostTrueResidual(a, p.VecData(core.SOL, 0), b)
	t.Logf("stopped at %d iterations after %d restart(s) from x, true residual %.3g",
		res.Iterations, res.Replacements, res.TrueResidual)
	if res.Converged || res.Replacements == 0 || res.Iterations >= budget/4 {
		t.Errorf("converged=%v after %d iterations and %d restart(s) from x; want an unconverged stop well before %d, after at least one",
			res.Converged, res.Iterations, res.Replacements, budget)
	}
	if d := math.Abs(res.TrueResidual - host); d > 1e-6*host {
		t.Errorf("reported true residual %g, host recomputation %g", res.TrueResidual, host)
	}
}

// dataTasks lists, in launch order, the names of a graph's tasks other
// than its scalar ones — host tasks and a dot's combine, which a real
// planner folds into the readers — the graph a real and a virtual planner
// share once those are contracted.
func dataTasks(g taskrt.Graph) []string {
	var names []string
	for _, n := range g.Nodes {
		if !n.Host && n.Name != "dot.reduce" && n.Name != "dot.batchreduce" {
			names = append(names, n.Name)
		}
	}
	return names
}

func TestSolverConformanceVirtual(t *testing.T) {
	// Virtual planners record the same task graph with no storage: for
	// every solver × operator × tracing cell, a fixed-step virtual run
	// must finish without runtime errors and launch exactly the data tasks
	// of its real counterpart. The GMRES restart family is exempt
	// from the equality (its cycle logic branches on host-side scalar
	// values, which read as zero in virtual mode); s-step CG is NOT
	// exempt — its coefficient loop is host-side but its launch
	// structure is data-independent by construction.
	const steps = 6
	for _, name := range Names {
		for _, op := range confOperators {
			mat := op.mat(confSideAboveGrain, wantsSPD(name))
			var pre *sparse.CSR
			if name == "pcg" {
				// Launch counts see only the preconditioner's structure (a
				// diagonal), and the assembled Laplacian is the encoding
				// whose diagonal is cheap to read.
				pre = precond.Jacobi(confBase(confSideAboveGrain, true))
			}
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/traced=%v", name, op.name, traced), func(t *testing.T) {
					run := func(virt bool) []string {
						p := confPlanner(mat, pre, virt, traced)
						RunIterations(New(name, p), steps)
						p.Drain()
						if err := p.Runtime().Err(); err != nil {
							t.Fatalf("virt=%v runtime error: %v", virt, err)
						}
						return dataTasks(p.Runtime().Graph())
					}
					real, virt := run(false), run(true)
					if len(virt) == 0 {
						t.Fatal("virtual run launched no tasks")
					}
					if !restartFamily(name) && !slices.Equal(real, virt) {
						t.Errorf("launched %d data tasks real vs %d virtual", len(real), len(virt))
					}
				})
			}
		}
	}
}
