package serve

import (
	"fmt"
	"sync"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/taskrt"
)

// The multi-tenancy contract, asserted end to end under the race
// detector: N concurrent solves over ONE shared runtime — mixed
// solvers, mixed storage formats, one session with a seeded fault plan —
// must behave exactly as N solo solves on private runtimes. Same
// iteration counts, same per-session task and dependence-edge counts
// (no cross-session serialization: a shared scheduler that discovered
// edges between tenants would inflate DepEdges), and the seeded
// failure contained to its own session.
func TestConcurrentSessionsMatchSoloBaselines(t *testing.T) {
	mk := func(solver, format string, pieces int) jobspec.Spec {
		s := jobspec.Default()
		s.Matrix = "lap2d:16x16"
		s.Solver = solver
		s.Format = format
		s.Pieces = pieces
		s.Tol = 1e-8
		return s
	}
	specs := []jobspec.Spec{
		mk("cg", "csr", 4),
		mk("bicgstab", "dia", 2),
		mk("minres", "coo", 4),
		mk("gmres", "ell", 2),
		mk("pcg", "csr", 4),
		mk("cgs", "csc", 2),
	}
	// One tenant runs a hostile fault plan with no retries and no
	// resilient driver: it must fail, and no one else may notice.
	faulted := mk("cg", "csr", 4)
	faulted.Faults = "panic=0.05,seed=3"
	specs = append(specs, faulted)
	faultedIdx := len(specs) - 1

	a, err := jobspec.LoadMatrix("lap2d:16x16")
	if err != nil {
		t.Fatal(err)
	}

	// Solo baselines: each spec alone on a private runtime. Tracing off
	// on both sides so the launch accounting is schedule-independent.
	solo := make([]JobResult, len(specs))
	for i, sp := range specs {
		rt := taskrt.New()
		solo[i] = RunSolve(a, sp, Options{Session: rt.DefaultSession()})
	}
	if solo[faultedIdx].Err == "" {
		t.Fatal("seeded-fault solo baseline did not fail; the containment half of this test would be vacuous")
	}
	for i, r := range solo[:faultedIdx] {
		if !r.Converged || r.Err != "" {
			t.Fatalf("solo baseline %s/%s: converged=%v err=%q", specs[i].Solver, specs[i].Format, r.Converged, r.Err)
		}
	}

	// The same specs, concurrently, one shared runtime, one session each.
	rt := taskrt.New()
	shared := make([]JobResult, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp jobspec.Spec) {
			defer wg.Done()
			sess := rt.NewSession(sp.Solver + "-" + sp.Format)
			defer sess.Close()
			shared[i] = RunSolve(a, sp, Options{Session: sess})
		}(i, sp)
	}
	wg.Wait()
	rt.Drain()

	for i, sp := range specs {
		got, want := shared[i], solo[i]
		if got.Iterations != want.Iterations {
			t.Errorf("%s/%s: %d iterations shared vs %d solo — tenants perturbed each other's numerics",
				sp.Solver, sp.Format, got.Iterations, want.Iterations)
		}
		if got.Session.Launched != want.Session.Launched {
			t.Errorf("%s/%s: launched %d shared vs %d solo", sp.Solver, sp.Format,
				got.Session.Launched, want.Session.Launched)
		}
		if got.Session.DepEdges != want.Session.DepEdges {
			t.Errorf("%s/%s: dep edges %d shared vs %d solo — cross-session serialization",
				sp.Solver, sp.Format, got.Session.DepEdges, want.Session.DepEdges)
		}
		if i == faultedIdx {
			if got.Err == "" {
				t.Error("seeded-fault session lost its failure in the shared run")
			}
			if got.Session.Failed == 0 {
				t.Error("seeded-fault session reports no failed tasks")
			}
			continue
		}
		if got.Err != "" {
			t.Errorf("%s/%s: clean tenant polluted: %s", sp.Solver, sp.Format, got.Err)
		}
		if !got.Converged {
			t.Errorf("%s/%s: did not converge in shared run", sp.Solver, sp.Format)
		}
		// Bitwise-identical numerics: within a session the task graph
		// fixes all evaluation orders, so tenant interleaving must not
		// move the result at all.
		if got.TrueResidual != want.TrueResidual {
			t.Errorf("%s/%s: true residual %g shared vs %g solo",
				sp.Solver, sp.Format, got.TrueResidual, want.TrueResidual)
		}
		if got.Session.Failed != 0 || got.Session.Poisoned != 0 {
			t.Errorf("%s/%s: clean tenant counted failures %+v", sp.Solver, sp.Format, got.Session)
		}
	}
}

// Two clients against a tracing server, defaults otherwise: each job
// traces its iteration loop in its own session while the two sessions'
// launches interleave. When task IDs were runtime-wide, a launch landing
// inside the other session's replaying instance shifted its IDs: spliced
// through, a true dependence was dropped and an xpay piece read a scalar
// mid-write (roughly a third of these jobs came back NaN or above
// tolerance); demoted, most instances ran analyzed. With per-session IDs
// an interleaved job replays like a solo one: no fallback, and only the
// recording and calibrating instance of each solve miss.
func TestTracedSessionsInterleaveSafely(t *testing.T) {
	jobs := 40
	if testing.Short() {
		jobs = 20
	}
	s := mustServer(t, Config{Tracing: true})
	defer s.Drain()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < jobs; k++ {
				spec := jobspec.Default()
				spec.Matrix, spec.Solver = "lap2d:32x32", "cg"
				spec.RHS = fmt.Sprintf("rand:%d", c*jobs+k)
				j, err := s.Submit(spec)
				if err != nil {
					t.Errorf("client %d job %d: %v", c, k, err)
					return
				}
				<-j.Done()
				r := j.Result()
				// NaN fails the comparison too.
				if !r.Converged || r.Err != "" || !(r.TrueResidual <= 1.05*spec.Tol) {
					t.Errorf("client %d job %d: converged=%v true_residual=%g err=%q",
						c, k, r.Converged, r.TrueResidual, r.Err)
				}
			}
		}(c)
	}
	wg.Wait()
	if st := s.rt.Stats(); st.TraceFallbacks != 0 || st.TraceMisses > int64(2*2*jobs) {
		t.Errorf("%d jobs: %d trace fallbacks and %d misses, want 0 and at most %d",
			2*jobs, st.TraceFallbacks, st.TraceMisses, 2*2*jobs)
	}
}
