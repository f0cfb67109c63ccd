package serve

import (
	"runtime"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/taskrt"
)

// A solve reuses its workers: a worker whose queue empties lingers for
// the next step's tasks instead of exiting, so a traced CG solve of
// lap2d:32x32 in 8 pieces (about 110 iterations, four tasks each)
// spawns a handful of worker goroutines, not one per iteration as when
// every worker exited on an empty queue (about 113). It counts what a
// timing decides, so it skips under the race detector's ten-fold
// slowdown, and at one processor, where nothing lingers.
func TestSolveReusesWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-based: the race detector's slowdown outlasts the spin window")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("workers linger only with a processor to spare")
	}
	spec := jobspec.Default()
	spec.Matrix, spec.Solver, spec.RHS = "lap2d:32x32", "cg", "rand:1"
	a, err := jobspec.LoadMatrix(spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	// The best of three solves, each on a fresh runtime: a neighbour
	// that takes the processors for a moment makes a worker outwait its
	// window without saying anything about reuse.
	best := int64(-1)
	for try := 0; try < 3; try++ {
		rt := taskrt.New()
		sess := rt.NewSession("job")
		res := RunSolve(a, spec, Options{Session: sess, Tracing: true})
		sess.Close()
		if !res.Converged || res.Err != "" {
			t.Fatalf("converged=%v err=%q", res.Converged, res.Err)
		}
		if n := rt.Stats().Spawned; best < 0 || n < best {
			best = n
		}
	}
	if best > 20 {
		t.Errorf("the best of three solves spawned %d workers, want at most 20", best)
	}
}
