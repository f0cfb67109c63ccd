package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// Verified convergence is a property of the driver, so it must hold on
// every path a job can take to it: for the solvers whose measure is an
// estimate (the GMRES family's Givens recurrence, s-step CG's
// coefficient-space norm), a claimed convergence has to survive the
// host-side recomputation of ‖b − A·x‖ — through RunSolve directly (the
// mmsolve path) and through a solo POST /solve?wait=1. The rows are the
// systems on which a loop that trusts the estimate stops mid-cycle with
// x still at the previous restart boundary (true residuals 1.08e-8 to
// 1.33e-8 at tol 1e-8).
func TestVerifiedConvergenceOnEveryPath(t *testing.T) {
	systems := []struct{ matrix, rhs string }{
		{"lap2d:32x32", "rand:7"},
		{"lap2d:48x48", "rand:3"},
	}
	srv := mustServer(t, Config{MaxActive: 1})
	defer srv.Drain()
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	for i, sys := range systems {
		if i > 0 && testing.Short() {
			continue
		}
		a, err := jobspec.LoadMatrix(sys.matrix)
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []string{"gmres", "pgmres", "gcrodr", "sstep-cg"} {
			spec := jobspec.Default()
			spec.Matrix, spec.RHS, spec.Solver = sys.matrix, sys.rhs, solver
			bound := spec.Tol * (1 + 1e-6)

			t.Run(fmt.Sprintf("%s/%s/RunSolve", sys.matrix, solver), func(t *testing.T) {
				out := RunSolve(a, spec, Options{Session: taskrt.New().DefaultSession(), Tracing: true})
				if !out.Converged || out.Err != "" {
					t.Fatalf("did not converge: %+v", out)
				}
				if tr := HostResidual(a, out.X, spec.BuildRHS(a, out.N)); tr > bound {
					t.Fatalf("converged at %d iterations with host residual %g > %g", out.Iterations, tr, bound)
				}
			})

			t.Run(fmt.Sprintf("%s/%s/POST", sys.matrix, solver), func(t *testing.T) {
				body := fmt.Sprintf(`{"matrix":%q,"rhs":%q,"solver":%q}`, sys.matrix, sys.rhs, solver)
				resp, err := http.Post(ts.URL+"/solve?wait=1", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var view JobView
				if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK || view.Result == nil || !view.Result.Converged || view.Result.Err != "" {
					t.Fatalf("status %d, view %+v", resp.StatusCode, view)
				}
				if tr := view.Result.TrueResidual; tr > bound {
					t.Fatalf("converged at %d iterations with true residual %g > %g", view.Result.Iterations, tr, bound)
				}
			})
		}
	}
}

// Every solver replays its steps: traced on one system, no solver misses
// or falls back more often than the bounds below, and all but at most
// four of its trace instances hit — one instance a step, a cycle of ten
// for the GMRES family, two per block of four for s-step CG. A solver
// whose steps stop replaying — a launch sequence that differs from step
// to step, a region created inside a step, a product whose dots ride it
// in one step and not the next — fails here. While a dot's partials and
// every deferred scalar were regions, matched by class in the trace
// fingerprints, pipecg, bicgstab and pcg each missed one instance more.
func TestEverySolverReplays(t *testing.T) {
	bounds := map[string]struct {
		misses, fallbacks int64
		per               int // iterations per trace instance
	}{
		"cg": {2, 0, 1}, "pipecg": {3, 0, 1}, "bicgstab": {3, 0, 1}, "gmres": {3, 1, 10},
		"minres": {3, 0, 1}, "bicg": {2, 0, 1}, "pcg": {2, 0, 1}, "cgs": {3, 0, 1},
		"sstep-cg": {2, 0, 2}, "pgmres": {3, 1, 10}, "gcrodr": {4, 1, 10},
	}
	a, err := jobspec.LoadMatrix("lap2d:32x32")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range solvers.Names {
		t.Run(name, func(t *testing.T) {
			b, ok := bounds[name]
			if !ok {
				t.Fatalf("no replay bound for solver %q", name)
			}
			spec := jobspec.Default()
			spec.Matrix, spec.RHS, spec.Solver, spec.Pieces, spec.Tol = "lap2d:32x32", "rand:7", name, 8, 1e-8
			sess := taskrt.New().DefaultSession()
			out := RunSolve(a, spec, Options{Session: sess, Tracing: true})
			if !out.Converged || out.Err != "" {
				t.Fatalf("did not converge: %+v", out)
			}
			st := sess.Runtime().Stats()
			if st.TraceMisses > b.misses || st.TraceFallbacks > b.fallbacks {
				t.Errorf("%d hits / %d misses / %d fallbacks, want at most %d misses and %d fallbacks",
					st.TraceHits, st.TraceMisses, st.TraceFallbacks, b.misses, b.fallbacks)
			}
			if want := int64(out.Iterations/b.per) - 4; st.TraceHits < want {
				t.Errorf("%d hits over %d iterations, want at least %d", st.TraceHits, out.Iterations, want)
			}
			t.Logf("%d hits / %d misses / %d fallbacks, %d iterations", st.TraceHits, st.TraceMisses, st.TraceFallbacks, out.Iterations)
		})
	}
}

// A convergence claim is the driver's ‖b − Ax‖ within tol, for every
// solver: Converged implies the host-side residual of the returned x is
// within tol, up to the 5 % rounding slack mmsolve -strict-residual and
// the benchmark's verifier allow. Trusting a recurrence's ‖r‖ instead
// (CG, PCG, BiCG, BiCGStab, CGS) claims at 4–6× tol at 1e-13, and
// PipeCG's at 28× at 1e-11. The last row is MINRES on a system where φ̄
// falls below tol long before ‖b − Ax‖ does. Under -short or the race
// detector (ten times slower) only the tol 1e-13, csr, 8-piece rows run.
// The budget of 3 000 iterations holds every claim the grid makes (the
// latest, GMRES's and PGMRES's at 1e-13, come at 2 601).
func TestConvergedMeansHostResidual(t *testing.T) {
	type row struct {
		matrix, rhs, solver, format string
		tol                         float64
		pieces                      int
	}
	var rows []row
	for _, tol := range []float64{1e-11, 1e-12, 1e-13} {
		for _, format := range []string{"csr", "auto"} {
			for _, pieces := range []int{1, 8} {
				if (testing.Short() || raceEnabled) && (tol != 1e-13 || format != "csr" || pieces != 8) {
					continue
				}
				for _, name := range solvers.Names {
					rows = append(rows, row{"lap2d:64x64", "rand:7", name, format, tol, pieces})
				}
			}
		}
	}
	rows = append(rows, row{"lap2d:32x32", "ones", "minres", "csr", 1e-12, 4})

	mats := map[string]*sparse.CSR{}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/%s/%s/tol=%g/%s/pieces=%d", r.matrix, r.rhs, r.solver, r.tol, r.format, r.pieces), func(t *testing.T) {
			a := mats[r.matrix]
			if a == nil {
				var err error
				if a, err = jobspec.LoadMatrix(r.matrix); err != nil {
					t.Fatal(err)
				}
				mats[r.matrix] = a
			}
			spec := jobspec.Default()
			spec.Matrix, spec.RHS, spec.Solver, spec.Format = r.matrix, r.rhs, r.solver, r.format
			spec.Tol, spec.Pieces, spec.MaxIter = r.tol, r.pieces, 3000
			out := RunSolve(a, spec, Options{Session: taskrt.New().DefaultSession()})
			if out.Err != "" {
				t.Fatalf("solve failed: %s", out.Err)
			}
			if host := HostResidual(a, out.X, spec.BuildRHS(a, out.N)); out.Converged && host > 1.05*r.tol {
				t.Errorf("converged at %d iterations with host residual %.3g = %.2f × tol (measure %.3g)",
					out.Iterations, host, host/r.tol, out.Residual)
			}
		})
	}
}

// The driver's rule at a rejected claim: the solver restarts from x and
// goes on to an honest claim. Ending the solve at the first miss instead
// leaves each of these unconverged (MINRES on lap2d:256x256 claims at
// iteration 963 with ‖b − Ax‖ 2.39e-10; the BiCG family and PCG at
// 2.0–2.6e-12); checkpointing CG without the restart iterates to
// MaxIter at 2.1e-12. BiCGStab, with the canonical dot, misses twice
// before its honest claim and restarts twice.
func TestRejectedClaimStoppingRules(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("solves lap2d:256x256 and lap2d:128x128")
	}
	for _, c := range []struct {
		name, matrix, solver string
		tol                  float64
		budget, every        int
		restarts             int
	}{
		{"minres", "lap2d:256x256", "minres", 1e-10, 1100, 0, 1},
		{"bicg", "lap2d:128x128", "bicg", 1e-12, 2000, 0, 1},
		{"bicgstab", "lap2d:128x128", "bicgstab", 1e-12, 2000, 0, 2},
		{"cgs", "lap2d:128x128", "cgs", 1e-12, 2000, 0, 1},
		{"pcg", "lap2d:128x128", "pcg", 1e-12, 2000, 0, 1},
		{"cg/checkpointing", "lap2d:128x128", "cg", 1e-12, 2000, 1000, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, host := runRandSolve(t, c.matrix, func(sp *jobspec.Spec) {
				sp.Solver, sp.Tol, sp.MaxIter, sp.CheckpointEvery = c.solver, c.tol, c.budget, c.every
			})
			if !out.Converged || host > c.tol || out.Replacements != c.restarts {
				t.Errorf("converged=%v at %d iterations, host residual %.3g, %d restart(s) from x; want converged within %g after %d",
					out.Converged, out.Iterations, host, out.Replacements, c.tol, c.restarts)
			}
		})
	}
}

// Recurrence drift rolls back: PipeCG's auxiliary recurrences drift
// from x, its measure stalling at 4.5e-11 while ‖b − Ax‖ stalls at 3e-8,
// so no claim is ever made and without the drift test a checkpointing
// solve runs all 10 000 iterations. The checkpoint that verifies a residual above twice the
// measure rolls back to itself and restarts the recurrence.
func TestRecurrenceDriftRollsBack(t *testing.T) {
	if raceEnabled {
		t.Skip("hundreds of lap2d:64x64 iterations")
	}
	const tol = 1e-12
	out, host := runRandSolve(t, "lap2d:64x64", func(sp *jobspec.Spec) {
		sp.Solver, sp.Tol, sp.MaxIter, sp.CheckpointEvery = "pipecg", tol, 2000, 10
	})
	if !out.Converged || host > tol || out.Restarts < 1 {
		t.Errorf("converged=%v at %d iterations, host residual %.3g, %d rollback(s); want converged within %g after at least 1",
			out.Converged, out.Iterations, host, out.Restarts, tol)
	}
}

// runRandSolve runs a rand:7 solve of matrix through RunSolve and
// returns its result with the host-recomputed residual of its x.
func runRandSolve(t *testing.T, matrix string, mut func(*jobspec.Spec)) (JobResult, float64) {
	t.Helper()
	a, err := jobspec.LoadMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobspec.Default()
	spec.Matrix, spec.RHS = matrix, "rand:7"
	mut(&spec)
	out := RunSolve(a, spec, Options{Session: taskrt.New().DefaultSession()})
	if out.Err != "" {
		t.Fatalf("solve failed: %s", out.Err)
	}
	return out, HostResidual(a, out.X, spec.BuildRHS(a, out.N))
}

// Options.Telemetry is the driver's observer, so it sees the initial
// measure and one per step whether or not the solve checkpoints: mmsolve
// -profile prints its per-iteration lines, and the benchmark's iter_us
// stamps mean one iteration, on both.
func TestTelemetryFiresEveryIteration(t *testing.T) {
	a, err := jobspec.LoadMatrix("lap2d:16x16")
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{0, 7} {
		t.Run(fmt.Sprintf("checkpoint-every=%d", every), func(t *testing.T) {
			spec := testSpec(func(sp *jobspec.Spec) { sp.CheckpointEvery = every })
			var iters []int
			out := RunSolve(a, spec, Options{
				Session:   taskrt.New().DefaultSession(),
				Telemetry: func(iter int, _ float64) { iters = append(iters, iter) },
			})
			if !out.Converged || out.Iterations == 0 {
				t.Fatalf("solve: %+v", out)
			}
			if len(iters) != out.Iterations+1 {
				t.Fatalf("telemetry fired %d times for %d iterations, want iterations+1", len(iters), out.Iterations)
			}
			for i, it := range iters {
				if it != i {
					t.Fatalf("call %d reported iteration %d", i, it)
				}
			}
		})
	}
}

// A generated matrix under format auto is never stored: the solve runs
// the matrix-free stencil, and answers as the stored DIA does — the
// format the tuner picks on these grids — iterations, x and the true
// residual bit for bit, the adjoint kernel included (BiCG). A coalesced
// batch tiles the stencil as it tiles any operator: each member gets the
// answer of the same batch on the stored DIA, and its solo answer to the
// solve's accuracy. SDC detection's column checksums, which come from the
// stencil's adjoint kernel, raise no alarm on a clean solve.
// Under -short or the race detector only the 8-piece rows of lap2d:40x33
// run.
func TestAutoRunsGeneratedMatrixFree(t *testing.T) {
	bits := func(v []float64) []uint64 {
		b := make([]uint64, len(v))
		for i, f := range v {
			b[i] = math.Float64bits(f)
		}
		return b
	}
	solve := func(a *sparse.CSR, spec jobspec.Spec) JobResult {
		return RunSolve(a, spec, Options{Session: taskrt.New().DefaultSession(), Tracing: true})
	}
	for _, matrix := range []string{"lap2d:24x24", "lap2d:40x33"} {
		a, err := jobspec.LoadMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		for _, pieces := range []int{1, 7, 8, 13} {
			if (testing.Short() || raceEnabled) && (matrix != "lap2d:40x33" || pieces != 8) {
				continue
			}
			for _, name := range solvers.Names {
				t.Run(fmt.Sprintf("%s/%s/pieces=%d", matrix, name, pieces), func(t *testing.T) {
					spec := jobspec.Default()
					spec.Matrix, spec.RHS, spec.Solver, spec.Pieces = matrix, "rand:7", name, pieces
					spec.Format = "dia"
					dia := solve(a, spec)
					spec.Format = "auto"
					auto := solve(a, spec)
					if !slices.Equal(auto.AutoFormats, []string{"Stencil(5pt-2D)"}) {
						t.Fatalf("auto formats %v, want [Stencil(5pt-2D)]", auto.AutoFormats)
					}
					if auto.Err != "" || auto.Iterations != dia.Iterations ||
						math.Float64bits(auto.TrueResidual) != math.Float64bits(dia.TrueResidual) ||
						!slices.Equal(bits(auto.X), bits(dia.X)) {
						t.Fatalf("auto: %d iterations, true residual %v, err %q; dia: %d, %v (x equal: %v)",
							auto.Iterations, auto.TrueResidual, auto.Err, dia.Iterations, dia.TrueResidual,
							slices.Equal(bits(auto.X), bits(dia.X)))
					}
				})
			}
		}
	}

	a, err := jobspec.LoadMatrix("lap2d:40x33")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cg", "bicg"} {
		spec := jobspec.Default()
		spec.Matrix, spec.RHS, spec.Solver, spec.Format, spec.Pieces = "lap2d:40x33", "rand:7", name, "auto", 8
		solo := solve(a, spec)
		for _, k := range []int{2, 8} {
			batch := func(format string) []*JobResult {
				group := make([]*Job, k)
				for i := range group {
					group[i] = &Job{ID: fmt.Sprintf("job-%d", i+1), Spec: spec}
					group[i].Spec.Format = format
				}
				return runBatch(a, group, taskrt.New().DefaultSession(), true)
			}
			dia := batch("dia")
			for i, r := range batch("auto") {
				if !slices.Equal(r.AutoFormats, solo.AutoFormats) || !r.Converged || r.Err != "" {
					t.Fatalf("%s k=%d member %d: formats %v, converged %v, err %q", name, k, i, r.AutoFormats, r.Converged, r.Err)
				}
				if r.Iterations != dia[i].Iterations || !slices.Equal(bits(r.X), bits(dia[i].X)) {
					t.Fatalf("%s k=%d member %d: %d iterations, dia %d (x equal: %v)",
						name, k, i, r.Iterations, dia[i].Iterations, slices.Equal(bits(r.X), bits(dia[i].X)))
				}
				// The joint norm stops the batch up to an iteration
				// later than the solo solve, so the two agree to the
				// solve's accuracy, not bit for bit.
				for j, v := range r.X {
					if d := math.Abs(v - solo.X[j]); d > 1e-6 {
						t.Fatalf("%s k=%d member %d: x[%d] = %v, solo %v", name, k, i, j, v, solo.X[j])
					}
				}
			}
		}
		spec.DetectSDC = true
		if out := solve(a, spec); out.SDCAlarms != 0 || !out.Converged || out.Err != "" {
			t.Fatalf("%s with SDC detection: %d alarms, converged %v, err %q", name, out.SDCAlarms, out.Converged, out.Err)
		}
	}
}
