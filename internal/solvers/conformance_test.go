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
					sv := New(name, p)
					res := Solve(sv, tol, 500)
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
					// True-residual equivalence column: a verifier solver's
					// reported TrueResidual is a recomputed ‖b − Ax‖ and must
					// agree with the host-side computation on the same iterate.
					if _, ok := sv.(ConvergenceVerifier); ok {
						b := fusedRHS(confN)
						var bb float64
						for _, v := range b {
							bb += v * v
						}
						rel := res.TrueResidual / math.Sqrt(bb)
						if math.Abs(rel-tr) > 1e-10 {
							t.Errorf("reported true residual %g (relative) vs host %g", rel, tr)
						}
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

// MINRES's measure φ̄² is a Givens recurrence, not an inner product of a
// residual it maintains: on this system φ̄ falls to 7.5e-13 at iteration
// 89 while ‖b − Ax‖ is 1.37e-12, and the true residual stagnates near
// 1.2e-12 after that. A solve that reports convergence must have it:
// SolveResilient verifies the claim through ConvergenceVerifier.
func TestMINRESConvergedMeansTrueResidual(t *testing.T) {
	const side, tol = 32, 1e-12
	a := sparse.Laplacian2D(side, side)
	b := fusedRHS(side * side)
	p := planFor(a, append([]float64(nil), b...), 4)
	res := Solve(NewMINRES(p), tol, 400)
	p.Drain()
	x := p.VecData(core.SOL, 0)
	ax := make([]float64, len(b))
	sparse.SpMV(a, ax, x)
	var rr float64
	for i := range b {
		rr += (b[i] - ax[i]) * (b[i] - ax[i])
	}
	host := math.Sqrt(rr)
	if res.Converged && host > tol {
		t.Errorf("MINRES claims convergence at %d iterations with ‖b − Ax‖ = %g > tol %g (measure %g)",
			res.Iterations, host, tol, res.Residual)
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
