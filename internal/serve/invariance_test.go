package serve

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// A solve's answer is a function of its system, not of its cut: vectors
// are cut at the dot's leaf boundaries and every dot folds the same
// leaves in the same order, so every solver in every format (dense
// aside: too large here) returns at pieces {2, 7, 8, 13} an x
// Float64bits-identical to its one-piece solve, after as many
// iterations. A format's one-piece solve is in turn the csr one, BiCG's
// adjoint product included: every kernel adds a column's terms in
// ascending row order, the DIA layout's too (dia, and auto, whose lap2d:
// operator is the DIA-ordered stencil and whose tuner picks DIA bands of
// the random matrix), by walking an adjoint kernel set from its last
// diagonal. The systems are
// lap2d:64x64 and a seeded random SPD matrix of 2 500 rows (its last
// leaf is short). The GMRES family, which takes ten times CG's
// iterations on lap2d:64x64, runs at pieces {1, 7, 13}; under -short or
// the race detector only CG and BiCGStab run, on lap2d:64x64, in csr
// and auto, at those pieces.
func TestSolvesArePieceInvariant(t *testing.T) {
	lap, err := jobspec.LoadMatrix("lap2d:64x64")
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name string
		a    *sparse.CSR
	}{{"lap2d:64x64", lap}, {"spd2500.mtx", randomSPD(2500, 3, 11)}}
	names, pieces := solvers.Names, []int{1, 2, 7, 8, 13}
	formats := []string{"csr", "dia", "ell", "coo", "auto", "bcsr", "bcsc"}
	if testing.Short() || raceEnabled {
		names, pieces, formats = []string{"cg", "bicgstab"}, []int{1, 7, 13}, []string{"csr", "auto"}
		systems = systems[:1]
	}
	solve := func(sys string, a *sparse.CSR, solver, format string, p int) JobResult {
		spec := jobspec.Default()
		spec.Matrix, spec.RHS, spec.Solver, spec.Format, spec.Pieces = sys, "rand:7", solver, format, p
		spec.Tol, spec.MaxIter = 1e-8, 3000
		out := RunSolve(a, spec, Options{Session: taskrt.New().DefaultSession(), Tracing: true})
		if out.Err != "" {
			t.Fatalf("%s %s %s pieces %d: %s", sys, solver, format, p, out.Err)
		}
		return out
	}
	sameX := func(a, b JobResult) bool {
		return slices.EqualFunc(a.X, b.X, func(u, v float64) bool {
			return math.Float64bits(u) == math.Float64bits(v)
		})
	}
	for _, sys := range systems {
		for _, name := range names {
			t.Run(fmt.Sprintf("%s/%s", sys.name, name), func(t *testing.T) {
				pieces := pieces
				if name == "gmres" || name == "pgmres" || name == "gcrodr" {
					pieces = []int{1, 7, 13}
				}
				ref := solve(sys.name, sys.a, name, "csr", 1)
				for _, format := range formats {
					own := solve(sys.name, sys.a, name, format, 1)
					if own.Iterations != ref.Iterations || !sameX(own, ref) {
						t.Errorf("%s: %d iterations, x equal to csr's: %v (csr: %d iterations)",
							format, own.Iterations, sameX(own, ref), ref.Iterations)
					}
					for _, p := range pieces[1:] {
						if out := solve(sys.name, sys.a, name, format, p); out.Iterations != own.Iterations || !sameX(out, own) {
							t.Errorf("%s at %d pieces: %d iterations, x differs from its one-piece solve (%d iterations)",
								format, p, out.Iterations, own.Iterations)
						}
					}
				}
			})
		}
	}
}
