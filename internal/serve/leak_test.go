//go:build !race

package serve

import (
	"fmt"
	"runtime"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/taskrt"
)

// A closed session leaves nothing behind: a long-lived runtime serving
// one session per job — the server's shape, graph retention off — must
// not grow with the number of jobs it has finished. The dependence
// history and live-task table belong to the session and are released at
// Close; when they were runtime-wide, every CG iteration's fresh scalar
// regions left a history shard behind forever (≈ 477 kB and ≈ 4 000
// live objects per job of this size). Heap numbers mean nothing under
// the race detector's shadow allocations, hence the build tag.
func TestClosedSessionLeavesNothingBehind(t *testing.T) {
	spec := jobspec.Default()
	spec.Matrix = "lap2d:32x32"
	spec.Solver = "cg"
	a, err := jobspec.LoadMatrix(spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New()
	rt.SetGraphRetention(false)
	job := func(i int) {
		sess := rt.NewSession(fmt.Sprintf("job%d", i))
		res := RunSolve(a, spec, Options{Session: sess, Tracing: true})
		sess.Close()
		if !res.Converged || res.Err != "" {
			t.Fatalf("job %d: converged=%v err=%q", i, res.Converged, res.Err)
		}
	}
	const warm, jobs = 20, 300
	for i := 0; i < warm; i++ {
		job(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job(warm + i)
	}
	rt.Drain()
	runtime.GC()
	runtime.ReadMemStats(&after)

	bytesPerJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs
	objsPerJob := (float64(after.HeapObjects) - float64(before.HeapObjects)) / jobs
	t.Logf("live heap growth per closed job: %.0f B, %.1f objects", bytesPerJob, objsPerJob)
	if bytesPerJob > 32<<10 {
		t.Errorf("live heap grows %.0f B per closed job, want <= 32 kB", bytesPerJob)
	}
	if objsPerJob > 200 {
		t.Errorf("live objects grow %.1f per closed job, want <= 200", objsPerJob)
	}
	if n := rt.Sessions(); n != 1 {
		t.Errorf("%d sessions registered after every job closed, want 1 (the default)", n)
	}
}
