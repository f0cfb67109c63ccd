package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kdrsolvers/internal/jobspec"
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
