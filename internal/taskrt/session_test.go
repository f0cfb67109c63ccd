package taskrt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// A failing task in one session must not surface in another session's
// Err, and the runtime-level Err must still see everything.
func TestSessionErrorScoping(t *testing.T) {
	rt := New()
	bad := rt.NewSession("bad")
	good := rt.NewSession("good")

	ra := region.New("a", index.NewSpace("D", 4))
	rb := region.New("b", index.NewSpace("D", 4))
	bad.Launch(TaskSpec{
		Name: "boom",
		Refs: []region.Ref{ref(ra, 0, 3, region.ReadWrite)},
		Run:  func() float64 { panic("scoped failure") },
	})
	good.Launch(TaskSpec{
		Name: "fine",
		Refs: []region.Ref{ref(rb, 0, 3, region.ReadWrite)},
		Run:  func() float64 { return 1 },
	})
	rt.Drain()

	if err := good.Err(); err != nil {
		t.Fatalf("clean session polluted by neighbor: %v", err)
	}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "scoped failure") {
		t.Fatalf("faulted session Err = %v", err)
	}
	if err := rt.Err(); err == nil {
		t.Fatal("runtime Err must join all sessions")
	}
	if st := good.Stats(); st.Failed != 0 || st.Launched != 1 {
		t.Fatalf("good session stats = %+v", st)
	}
	if st := bad.Stats(); st.Failed != 1 {
		t.Fatalf("bad session stats = %+v", st)
	}
}

// Poison must stay inside the failing session: its own successors are
// cancelled, a stranger session's tasks on different regions run.
func TestSessionPoisonContainment(t *testing.T) {
	rt := New()
	bad := rt.NewSession("bad")
	good := rt.NewSession("good")

	ra := region.New("a", index.NewSpace("D", 4))
	rb := region.New("b", index.NewSpace("D", 4))
	bad.Launch(TaskSpec{
		Name: "boom",
		Refs: []region.Ref{ref(ra, 0, 3, region.WriteDiscard)},
		Run:  func() float64 { panic("die") },
	})
	fBad := bad.Launch(TaskSpec{
		Name: "downstream",
		Refs: []region.Ref{ref(ra, 0, 3, region.ReadOnly)},
		Run:  func() float64 { return 7 },
	})
	ran := false
	good.Launch(TaskSpec{
		Name: "stranger",
		Refs: []region.Ref{ref(rb, 0, 3, region.ReadWrite)},
		Run:  func() float64 { ran = true; return 0 },
	})
	rt.Drain()

	if fBad.Err() == nil {
		t.Fatal("successor of failed task must be poisoned")
	}
	if !ran {
		t.Fatal("stranger session's task must still run")
	}
	if st := bad.Stats(); st.Poisoned != 1 {
		t.Fatalf("bad session Poisoned = %d, want 1", st.Poisoned)
	}
	if st := good.Stats(); st.Poisoned != 0 || st.Failed != 0 {
		t.Fatalf("good session stats = %+v", st)
	}
}

// The poison ledger clears at *session* quiescence: a long-lived
// neighbor keeping the runtime busy must not keep a finished session's
// ledger pinned (the regression the shared server exposed — the global
// runtime is effectively never idle).
func TestSessionLedgerClearsAtSessionQuiescence(t *testing.T) {
	// The worker pool is sized by GOMAXPROCS at New(); this test blocks
	// one task mid-flight while another must run, so it needs two
	// workers even on a single-CPU box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rt := New()
	bad := rt.NewSession("bad")
	busy := rt.NewSession("busy")

	ra := region.New("a", index.NewSpace("D", 4))
	rb := region.New("b", index.NewSpace("D", 4))

	// Keep the neighbor in flight while the failing session quiesces.
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	busy.Launch(TaskSpec{
		Name: "long",
		Refs: []region.Ref{ref(rb, 0, 3, region.ReadWrite)},
		Run: func() float64 {
			once.Do(func() { close(started) })
			<-release
			return 0
		},
	})
	<-started

	bad.Launch(TaskSpec{
		Name: "boom",
		Refs: []region.Ref{ref(ra, 0, 3, region.ReadWrite)},
		Run:  func() float64 { panic("die") },
	})
	bad.Drain() // session quiescent; runtime is not (busy still running)

	bad.mu.Lock()
	ledger := len(bad.failed)
	bad.mu.Unlock()
	if ledger != 0 {
		t.Fatalf("quiescent session still holds %d ledger entries while a neighbor runs", ledger)
	}

	close(release)
	rt.Drain()
}

// The per-session error window is bounded: sustained failures keep the
// most recent maxSessionErrs and count the evictions.
func TestSessionErrorWindowBounded(t *testing.T) {
	rt := New()
	s := rt.NewSession("chaos")
	r := region.New("v", index.NewSpace("D", 4))
	const n = maxSessionErrs + 17
	for i := 0; i < n; i++ {
		s.Launch(TaskSpec{
			Name: fmt.Sprintf("boom%d", i),
			Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
			Run:  func() float64 { panic("die") },
		})
		s.Drain() // quiesce so each failure is a fresh root, not poison
	}
	rt.Drain()

	st := s.Stats()
	if st.Failed != n {
		t.Fatalf("Failed = %d, want %d", st.Failed, n)
	}
	if st.ErrsDropped != n-maxSessionErrs {
		t.Fatalf("ErrsDropped = %d, want %d", st.ErrsDropped, n-maxSessionErrs)
	}
	s.mu.Lock()
	window := len(s.errs)
	s.mu.Unlock()
	if window != maxSessionErrs {
		t.Fatalf("error window holds %d, want %d", window, maxSessionErrs)
	}
	// The oldest failures were evicted; the newest survive.
	err := s.Err()
	if strings.Contains(err.Error(), "boom0 ") {
		t.Fatal("oldest failure should have been evicted")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("boom%d", n-1)) {
		t.Fatal("newest failure missing from window")
	}
}

// ClearErrs empties one session's window without touching neighbors,
// and a closed session stops contributing to the runtime Err.
func TestSessionClearAndClose(t *testing.T) {
	rt := New()
	s1 := rt.NewSession("one")
	s2 := rt.NewSession("two")
	r1 := region.New("a", index.NewSpace("D", 4))
	r2 := region.New("b", index.NewSpace("D", 4))
	for _, sr := range []struct {
		s *Session
		r *region.Region
	}{{s1, r1}, {s2, r2}} {
		sr.s.Launch(TaskSpec{
			Name: "boom",
			Refs: []region.Ref{ref(sr.r, 0, 3, region.ReadWrite)},
			Run:  func() float64 { panic("die") },
		})
	}
	rt.Drain()

	if n := s1.ClearErrs(); n != 1 {
		t.Fatalf("ClearErrs = %d, want 1", n)
	}
	if s1.Err() != nil {
		t.Fatal("cleared session still reports errors")
	}
	if s2.Err() == nil {
		t.Fatal("neighbor's errors were cleared too")
	}
	if rt.Err() == nil {
		t.Fatal("runtime Err must still see session two")
	}
	s2.Close()
	if rt.Err() != nil {
		t.Fatalf("closed session still pollutes runtime Err: %v", rt.Err())
	}
	if rt.Sessions() != 2 { // default + "one"; "two" unregistered
		t.Fatalf("Sessions = %d, want 2 after close", rt.Sessions())
	}
}

// Phase labels carry the session prefix, keeping concurrent tenants
// attributable in spans and graph nodes.
func TestSessionPhasePrefix(t *testing.T) {
	rt := New()
	s := rt.NewSession("tenant7")
	s.SetPhase("cg.step")
	r := region.New("v", index.NewSpace("D", 4))
	s.Launch(TaskSpec{
		Name: "work",
		Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
		Run:  func() float64 { return 0 },
	})
	rt.Drain()
	g := s.Graph()
	if got := g.Nodes[0].Phase; got != "tenant7/cg.step" {
		t.Fatalf("phase = %q, want tenant7/cg.step", got)
	}
}

// The attempt cap is session state: a retrying tenant must not grant its
// neighbor's failing tasks extra attempts.
func TestSessionRetryScoping(t *testing.T) {
	rt := New()
	retrying := rt.NewSession("retrying")
	plain := rt.NewSession("plain")
	retrying.SetMaxAttempts(3)

	ra := region.New("a", index.NewSpace("D", 4))
	rb := region.New("b", index.NewSpace("D", 4))
	attempts := 0
	f := retrying.Launch(TaskSpec{
		Name:      "flaky",
		Retryable: true,
		Refs:      []region.Ref{ref(ra, 0, 3, region.ReadWrite)},
		Run: func() float64 {
			attempts++
			if attempts < 3 {
				panic("transient")
			}
			return 9
		},
	})
	plainAttempts := 0
	plain.Launch(TaskSpec{
		Name:      "flaky",
		Retryable: true,
		Refs:      []region.Ref{ref(rb, 0, 3, region.ReadWrite)},
		Run: func() float64 {
			plainAttempts++
			panic("always")
		},
	})
	rt.Drain()

	if got := f.Value(); got != 9 {
		t.Fatalf("retrying session's task = %g, want 9", got)
	}
	if plainAttempts != 1 {
		t.Fatalf("plain session's task ran %d times; attempt cap leaked across sessions", plainAttempts)
	}
	if retrying.Err() != nil {
		t.Fatalf("recovered session Err = %v", retrying.Err())
	}
	if plain.Err() == nil {
		t.Fatal("plain session's permanent failure lost")
	}
}

// A closed session says so: its dependence history is gone, so a launch
// must not quietly rebuild it (and run with failures no Runtime.Err would
// ever see). Close itself stays non-blocking and idempotent, and tasks
// already in flight finish and are still waited for by the session's own
// Drain (Runtime.Drain walks live sessions only).
func TestClosedSessionPanicsOnLaunch(t *testing.T) {
	r := region.New("v", index.NewSpace("D", 4))
	spec := TaskSpec{
		Name: "late",
		Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
		Run:  func() float64 { return 1 },
	}
	for _, tc := range []struct {
		name string
		call func(s *Session)
	}{
		{"Launch", func(s *Session) { s.Launch(spec) }},
		{"LaunchBatch", func(s *Session) { s.LaunchBatch([]TaskSpec{spec, spec}) }},
		{"BeginTrace", func(s *Session) { s.BeginTrace("k") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New()
			s := rt.NewSession("gone")
			release := make(chan struct{})
			s.Launch(TaskSpec{
				Name:     "inflight",
				Refs:     []region.Ref{ref(r, 0, 3, region.ReadWrite)},
				Run:      func() float64 { <-release; return 0 },
				Detached: true,
			})
			succ := s.Launch(TaskSpec{
				Name: "successor",
				Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)},
				Run:  func() float64 { return 7 },
			})
			s.Close() // does not wait for the parked task
			s.Close()
			if n := rt.Sessions(); n != 1 {
				t.Fatalf("Sessions = %d after Close, want 1", n)
			}

			func() {
				defer func() {
					want := `taskrt: launch on closed session "gone"`
					if got := recover(); got != want {
						t.Fatalf("%s on a closed session: recovered %v, want panic %q", tc.name, got, want)
					}
				}()
				tc.call(s)
			}()

			close(release)
			rt.Drain()
			s.Drain() // waits for the in-flight tasks; the panic left the lock free
			if !succ.Ready() || succ.Value() != 7 {
				t.Fatalf("in-flight successor of a closed session did not finish: ready=%v", succ.Ready())
			}
			if st := s.Stats(); st.Launched != 2 {
				t.Fatalf("closed session Launched = %d, want 2 (the rejected launch must not count)", st.Launched)
			}
		})
	}
}

// laneProgram is one tenant's launch sequence for the independence
// tests: rounds × lanes read-modify-write tasks, each lane a dependence
// chain on its own span, alternating Launch and LaunchBatch. Alone it
// discovers lanes·(rounds−1) edges.
func laneProgram(s *Session, r *region.Region, lanes, rounds int) {
	data := r.Data()
	spec := func(lane int) TaskSpec {
		return TaskSpec{
			Name:     "rmw",
			Refs:     []region.Ref{ref(r, int64(lane), int64(lane), region.ReadWrite)},
			Run:      func() float64 { data[lane]++; return 0 },
			Detached: true,
		}
	}
	batch := make([]TaskSpec, lanes)
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			for lane := 0; lane < lanes; lane++ {
				s.Launch(spec(lane))
			}
			continue
		}
		for lane := range batch {
			batch[lane] = spec(lane)
		}
		s.LaunchBatch(batch)
	}
}

// Sessions are independent where it is observable: two tenants launching
// concurrently on disjoint regions each discover exactly the edges they
// discover alone, and each records exactly the graph it records alone —
// task IDs and graph are the session's own.
func TestSessionsDiscoverNoCrossEdges(t *testing.T) {
	const lanes, rounds = 4, 500
	sp := index.NewSpace("D", lanes)

	alone := New()
	laneProgram(alone.DefaultSession(), region.New("solo", sp), lanes, rounds)
	alone.Drain()
	want := alone.DefaultSession().Stats()
	if want.DepEdges != lanes*(rounds-1) {
		t.Fatalf("solo program found %d edges, want %d", want.DepEdges, lanes*(rounds-1))
	}

	rt := New()
	var wg sync.WaitGroup
	sessions := []*Session{rt.NewSession("a"), rt.NewSession("b")}
	regions := []*region.Region{region.New("ra", sp), region.New("rb", sp)}
	for i, s := range sessions {
		s.SetPhase("lanes") // nodes carry "a/lanes" / "b/lanes"
		wg.Add(1)
		go func() {
			defer wg.Done()
			laneProgram(s, regions[i], lanes, rounds)
		}()
	}
	wg.Wait()
	rt.Drain()

	for i, s := range sessions {
		if got := s.Stats(); got != want {
			t.Errorf("session %s: stats %+v shared vs %+v alone", s.name, got, want)
		}
		for lane, v := range regions[i].Data() {
			if v != rounds {
				t.Errorf("session %s lane %d ran %g of %d chained updates", s.name, lane, v, rounds)
			}
		}
		assertGraphsEqual(t, alone.Graph(), s.Graph())
		if rt.Graph().Len() != 0 {
			t.Errorf("the default session recorded %d nodes it never launched", rt.Graph().Len())
		}
	}
}

// One session's work never stands in another's way: with a task of
// session A parked mid-body and A's lock held outright, B launches,
// executes, and drains.
func TestParkedSessionDoesNotDelayNeighbor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // A's parked body holds one worker
	rt := New()
	a, b := rt.NewSession("a"), rt.NewSession("b")
	ra := region.New("a", index.NewSpace("D", 4))
	rb := region.New("b", index.NewSpace("D", 4))

	release, started := make(chan struct{}), make(chan struct{})
	a.Launch(TaskSpec{
		Name: "parked",
		Refs: []region.Ref{ref(ra, 0, 3, region.ReadWrite)},
		Run:  func() float64 { close(started); <-release; return 0 },
	})
	<-started

	a.mu.Lock()
	done := make(chan float64)
	go func() {
		f := b.Launch(TaskSpec{
			Name: "free",
			Refs: []region.Ref{ref(rb, 0, 3, region.ReadWrite)},
			Run:  func() float64 { return 3 },
		})
		b.Drain()
		done <- f.Value()
	}()
	select {
	case v := <-done:
		if v != 3 {
			t.Errorf("neighbor's task = %g, want 3", v)
		}
	case <-time.After(10 * time.Second):
		t.Error("B.Launch + B.Drain did not finish while session A was parked and locked")
	}
	a.mu.Unlock()
	close(release)
	rt.Drain()
}

// The lock order is Session.mu → Runtime.mu, never the reverse: the
// runtime-wide calls stay live (and race-free) while sessions with work
// still in flight are closed underneath them.
func TestRuntimeWideCallsDuringSessionClose(t *testing.T) {
	const closers, perCloser = 4, 50
	rt := New()
	sessions := make([]*Session, closers*perCloser)
	for i := range sessions {
		s := rt.NewSession(fmt.Sprintf("t%d", i))
		r := region.New("v", index.NewSpace("D", 4))
		laneProgram(s, r, 4, 4)
		s.Launch(TaskSpec{
			Name: "boom",
			Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
			Run:  func() float64 { panic("die") },
		})
		if i%2 == 0 {
			s.Drain() // the other half is closed with tasks in flight
		}
		sessions[i] = s
	}

	stop := make(chan struct{})
	var observer, closing sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Drain()
			_ = rt.Err()
			_ = rt.Stats()
			_ = rt.Sessions()
			_ = rt.Graph()
		}
	}()
	for c := 0; c < closers; c++ {
		closing.Add(1)
		go func() {
			defer closing.Done()
			for _, s := range sessions[c*perCloser : (c+1)*perCloser] {
				s.Close()
			}
		}()
	}
	closing.Wait()
	close(stop)
	observer.Wait()

	rt.Drain()
	if got, want := rt.Stats().Launched, int64(len(sessions)*17); got != want {
		t.Errorf("Launched = %d, want %d", got, want)
	}
	if n := rt.Sessions(); n != 1 {
		t.Errorf("Sessions = %d after every tenant closed, want 1", n)
	}
	if err := rt.Err(); err != nil {
		t.Errorf("closed sessions still contribute to the runtime Err: %v", err)
	}
}

// Runtime.Drain may race launches: it used to wait on a runtime-wide
// WaitGroup that every launch re-armed, and panicked with "WaitGroup is
// reused before previous Wait has returned" when a launch landed between
// the counter reaching zero and Wait returning. Two sessions launch short
// dependent tasks — so their in-flight counts keep touching zero — while
// a third goroutine drains the runtime in a loop: no panic, and every
// task ran and was counted.
func TestRuntimeDrainRacesLaunches(t *testing.T) {
	const perSession = 4000
	rt := New()
	var ran atomic.Int64
	var launchers sync.WaitGroup
	for i := 0; i < 2; i++ {
		s := rt.NewSession(fmt.Sprintf("t%d", i))
		r := region.New("v", index.NewSpace("D", 1))
		launchers.Add(1)
		go func() {
			defer launchers.Done()
			for k := 0; k < perSession; k++ {
				s.Launch(TaskSpec{
					Name:     "tick",
					Refs:     []region.Ref{ref(r, 0, 0, region.ReadWrite)},
					Run:      func() float64 { ran.Add(1); return 0 },
					Detached: true,
				})
				if k%64 == 0 {
					s.Drain() // the session's own Drain races Runtime.Drain too
				}
			}
		}()
	}
	stop := make(chan struct{})
	drained := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				drained <- n
				return
			default:
				rt.Drain()
				n++
			}
		}
	}()
	launchers.Wait()
	close(stop)
	if n := <-drained; n == 0 {
		t.Fatal("the draining goroutine never completed a Drain")
	}
	rt.Drain()
	if got := ran.Load(); got != 2*perSession {
		t.Errorf("%d task bodies ran, want %d", got, 2*perSession)
	}
	if got := rt.Stats().Launched; got != 2*perSession {
		t.Errorf("Launched = %d, want %d", got, 2*perSession)
	}
}
