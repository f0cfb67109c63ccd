package taskrt

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// syntheticCG drives a CG-shaped launch sequence against rt: stable
// workspace vectors, a dot whose future the same iteration's update
// awaits, and a residual future produced each iteration and awaited by the
// next, the first one by pre-trace code — region edges of every template
// class (internal, prev, ancient) beside awaited edges of every age. mutate,
// when non-nil, is called with the iteration number inside the instance
// and may launch extra tasks to provoke fingerprint mismatches.
func syntheticCG(rt *Runtime, iters int, traced bool, mutate func(i int)) {
	sess := rt.DefaultSession()
	sp := index.NewSpace("D", 64)
	sol := region.New("sol", sp)
	p := region.New("p", sp)
	q := region.New("q", sp)
	full := func(r *region.Region, priv region.Privilege) region.Ref {
		return region.Ref{Region: r.ID(), Subset: index.Span(0, 63), Priv: priv}
	}

	sess.Launch(TaskSpec{Name: "init.sol", Refs: []region.Ref{full(sol, region.WriteDiscard)}})
	sess.Launch(TaskSpec{Name: "init.p", Refs: []region.Ref{full(p, region.WriteDiscard)}})
	res := sess.Launch(TaskSpec{Name: "init.res", Refs: []region.Ref{full(p, region.ReadOnly)}})

	for i := 0; i < iters; i++ {
		if traced {
			sess.BeginTrace("step")
		}
		sess.Launch(TaskSpec{Name: "matmul", Refs: []region.Ref{
			full(p, region.ReadOnly), full(q, region.WriteDiscard),
		}})
		dot := sess.Launch(TaskSpec{Name: "dot", Refs: []region.Ref{
			full(p, region.ReadOnly), full(q, region.ReadOnly),
		}})
		sess.Launch(TaskSpec{Name: "axpy", Refs: []region.Ref{
			full(p, region.ReadOnly), full(sol, region.ReadWrite),
		}, Awaits: []Await{{dot, 8}}})
		res = sess.Launch(TaskSpec{Name: "update", Awaits: []Await{{res, 8}, {dot, 8}}})
		if mutate != nil {
			mutate(i)
		}
		if traced {
			sess.EndTrace()
		}
	}
	rt.Drain()
}

// assertGraphsEqual fails unless both graphs hold the same dependence
// structure (names, edges, edge payloads) for every task.
func assertGraphsEqual(t *testing.T, ga, gt Graph) {
	t.Helper()
	if d := graphDiff(ga, gt); d != "" {
		t.Fatal(d)
	}
}

// graphDiff describes the first difference between two graphs' dependence
// structures, or returns "".
func graphDiff(ga, gt Graph) string {
	if ga.Len() != gt.Len() {
		return fmt.Sprintf("graph sizes differ: analyzed %d, traced %d", ga.Len(), gt.Len())
	}
	for i := range ga.Nodes {
		a, b := ga.Nodes[i], gt.Nodes[i]
		if a.Name != b.Name {
			return fmt.Sprintf("node %d name: analyzed %q, traced %q", i, a.Name, b.Name)
		}
		if len(a.Deps) != len(b.Deps) {
			return fmt.Sprintf("node %d (%s) deps: analyzed %v, traced %v", i, a.Name, a.Deps, b.Deps)
		}
		for j := range a.Deps {
			if a.Deps[j] != b.Deps[j] || a.DepBytes[j] != b.DepBytes[j] {
				return fmt.Sprintf("node %d (%s) edge %d: analyzed %d(%dB), traced %d(%dB)",
					i, a.Name, j, a.Deps[j], a.DepBytes[j], b.Deps[j], b.DepBytes[j])
			}
		}
	}
	return ""
}

func TestTraceReplayEquivalence(t *testing.T) {
	// A replayed instance must record exactly the edges full analysis
	// derives — same predecessors, same payload bytes — including awaited
	// edges into the previous instance and to pre-trace code, and ancient
	// edges to the pre-trace writer of p.
	analyzed, traced := New(), New()
	syntheticCG(analyzed, 8, false, nil)
	syntheticCG(traced, 8, true, nil)
	assertGraphsEqual(t, analyzed.Graph(), traced.Graph())

	st := traced.Stats()
	// Iterations 1 and 2 record and calibrate; 3..8 replay all 4 tasks.
	if want := int64(6 * 4); st.TraceReplays != want {
		t.Errorf("TraceReplays = %d, want %d", st.TraceReplays, want)
	}
	if st.TraceHits != 6 || st.TraceMisses != 2 {
		t.Errorf("TraceHits/Misses = %d/%d, want 6/2", st.TraceHits, st.TraceMisses)
	}
	if st.TraceFallbacks != 0 {
		t.Errorf("TraceFallbacks = %d, want 0", st.TraceFallbacks)
	}
	if nodes := traced.Graph().Nodes; !nodes[len(nodes)-1].Traced {
		t.Error("final iteration's tasks should be trace-spliced")
	}
}

func TestSessionHistoryStaysBoundedUnderReplay(t *testing.T) {
	// The values a step produces are futures, so a replayed step creates
	// no region and the history holds one shard per region the program
	// names, however many steps run.
	rt := New()
	s := rt.DefaultSession()
	var at100 int
	syntheticCG(rt, 1000, true, func(i int) {
		if i == 99 {
			s.mu.Lock()
			at100 = len(s.hist)
			s.mu.Unlock()
		}
	})
	s.mu.Lock()
	at1000 := len(s.hist)
	s.mu.Unlock()
	if at100 != at1000 || at1000 != 3 {
		t.Fatalf("history shards after 100 steps %d, after 1000 %d; want 3 both times (sol, p, q)", at100, at1000)
	}
	if st := rt.Stats(); st.TraceHits != 998 || st.TraceFallbacks != 0 {
		t.Fatalf("TraceHits/Fallbacks = %d/%d, want 998/0", st.TraceHits, st.TraceFallbacks)
	}
}

func TestTraceReplayZeroAnalysisScans(t *testing.T) {
	// Once a trace replays, iterations must perform no interference
	// analysis at all, even though every iteration awaits a fresh future.
	rt := New()
	sess := rt.DefaultSession()
	sp := index.NewSpace("D", 32)
	v := region.New("v", sp)
	iter := func() {
		sess.BeginTrace("step")
		sess.Launch(TaskSpec{Name: "w", Refs: []region.Ref{
			{Region: v.ID(), Subset: index.Span(0, 31), Priv: region.ReadWrite},
		}})
		d := sess.Launch(TaskSpec{Name: "d", Refs: []region.Ref{
			{Region: v.ID(), Subset: index.Span(0, 31), Priv: region.ReadOnly},
		}})
		sess.Launch(TaskSpec{Name: "u", Awaits: []Await{{d, 8}}, Detached: true})
		sess.EndTrace()
	}
	iter()
	iter()
	base := rt.Stats().AnalysisScans
	for i := 0; i < 10; i++ {
		iter()
	}
	rt.Drain()
	st := rt.Stats()
	if st.AnalysisScans != base {
		t.Fatalf("replayed iterations scanned %d history entries, want 0",
			st.AnalysisScans-base)
	}
	if st.TraceHits != 10 {
		t.Fatalf("TraceHits = %d, want 10", st.TraceHits)
	}
}

func TestTraceFallbackOnMismatch(t *testing.T) {
	// An instance that diverges from the calibrated template mid-stream
	// must fall back to full analysis and still derive correct edges; later
	// instances rebuild the template.
	analyzed, traced := New(), New()
	mutate := func(rt *Runtime) func(int) {
		sp := index.NewSpace("E", 16)
		extra := region.New("extra", sp)
		return func(i int) {
			if i == 5 {
				rt.DefaultSession().Launch(TaskSpec{Name: "odd", Refs: []region.Ref{
					{Region: extra.ID(), Subset: index.Span(0, 15), Priv: region.ReadWrite},
				}})
			}
		}
	}
	syntheticCG(analyzed, 9, false, mutate(analyzed))
	syntheticCG(traced, 9, true, mutate(traced))
	assertGraphsEqual(t, analyzed.Graph(), traced.Graph())

	st := traced.Stats()
	if st.TraceFallbacks != 1 {
		t.Errorf("TraceFallbacks = %d, want 1", st.TraceFallbacks)
	}
	// Iterations 0,1 record+calibrate; 2..4 replay; 5 splices its four
	// matching tasks, then the extra task falls back; 6,7 re-record and
	// recalibrate; 8 replays again.
	if want := int64(3*4 + 4 + 4); st.TraceReplays != want {
		t.Errorf("TraceReplays = %d, want %d", st.TraceReplays, want)
	}
	if st.TraceHits != 4 {
		t.Errorf("TraceHits = %d, want 4", st.TraceHits)
	}
}

func TestTraceGapDemotesToAnalysis(t *testing.T) {
	// A foreign launch between two instances (a convergence check, a
	// checkpoint) invalidates offset splicing; the next instances must
	// silently re-record and recalibrate rather than replay stale edges.
	analyzed, traced := New(), New()
	run := func(rt *Runtime, traced bool) {
		sp := index.NewSpace("D", 32)
		v := region.New("v", sp)
		foreign := region.New("f", sp)
		w := func(r *region.Region, priv region.Privilege) region.Ref {
			return region.Ref{Region: r.ID(), Subset: index.Span(0, 31), Priv: priv}
		}
		rt.DefaultSession().Launch(TaskSpec{Name: "init", Refs: []region.Ref{w(v, region.WriteDiscard)}})
		for i := 0; i < 8; i++ {
			if traced {
				rt.DefaultSession().BeginTrace("step")
			}
			rt.DefaultSession().Launch(TaskSpec{Name: "a", Refs: []region.Ref{w(v, region.ReadWrite)}})
			rt.DefaultSession().Launch(TaskSpec{Name: "b", Refs: []region.Ref{w(v, region.ReadOnly)}})
			if traced {
				rt.DefaultSession().EndTrace()
			}
			if i == 4 {
				rt.DefaultSession().Launch(TaskSpec{Name: "foreign", Refs: []region.Ref{
					w(foreign, region.WriteDiscard), w(v, region.ReadOnly),
				}})
			}
		}
		rt.Drain()
	}
	run(analyzed, false)
	run(traced, true)
	assertGraphsEqual(t, analyzed.Graph(), traced.Graph())

	st := traced.Stats()
	// Iterations 0,1 record+calibrate, 2..4 replay; the gap after 4
	// demotes 5 to record and 6 to calibrate; 7 replays.
	if st.TraceHits != 4 {
		t.Errorf("TraceHits = %d, want 4", st.TraceHits)
	}
	if st.TraceFallbacks != 0 {
		t.Errorf("TraceFallbacks = %d, want 0 (gaps demote before replay starts)", st.TraceFallbacks)
	}
}

func TestTraceForeignLaunchInsideInstanceChangesNothing(t *testing.T) {
	// Task IDs and templates are the session's own: another session's
	// launches — inside a replaying instance, between two instances, or
	// both — neither shift the instance's IDs nor break adjacency. Every
	// instance after calibration replays end to end, and the traced
	// session records exactly the graph its untraced twin records.
	const iters = 9
	run := func(traced bool) *Runtime {
		rt := New()
		a, b := rt.DefaultSession(), rt.NewSession("b")
		sp := index.NewSpace("D", 32)
		v := region.New("v", sp)
		other := region.New("other", sp)
		vec := func(r *region.Region, priv region.Privilege) region.Ref {
			return region.Ref{Region: r.ID(), Subset: index.Span(0, 31), Priv: priv}
		}
		foreign := func() {
			b.Launch(TaskSpec{Name: "foreign", Refs: []region.Ref{vec(other, region.ReadWrite)}})
		}
		for i := 0; i < iters; i++ {
			if traced {
				a.BeginTrace("step")
			}
			a.Launch(TaskSpec{Name: "w", Refs: []region.Ref{vec(v, region.ReadWrite)}})
			if i >= 3 && i%2 == 1 {
				foreign() // inside the instance, before "d" and "u"
			}
			d := a.Launch(TaskSpec{Name: "d", Refs: []region.Ref{vec(v, region.ReadOnly)}})
			a.Launch(TaskSpec{Name: "u", Refs: []region.Ref{vec(v, region.ReadWrite)}, Awaits: []Await{{d, 8}}})
			if traced {
				a.EndTrace()
			}
			if i >= 3 {
				foreign() // between two instances
			}
		}
		rt.Drain()
		return rt
	}
	analyzed, traced := run(false), run(true)
	assertGraphsEqual(t, analyzed.Graph(), traced.Graph())

	// Iterations 0,1 record and calibrate; every later one is spliced.
	for _, n := range traced.Graph().Nodes[2*3:] {
		if !n.Traced {
			t.Errorf("task %d (%s) after calibration was analyzed, want spliced", n.ID, n.Name)
		}
	}
	st := traced.Stats()
	if st.TraceFallbacks != 0 || st.TraceHits != iters-2 || st.TraceMisses != 2 {
		t.Errorf("TraceHits/Misses/Fallbacks = %d/%d/%d, want %d/2/0",
			st.TraceHits, st.TraceMisses, st.TraceFallbacks, iters-2)
	}
}

func TestConcurrentLaunchersWithGraphSnapshots(t *testing.T) {
	// Concurrent launchers on overlapping regions while another goroutine
	// snapshots the graph: snapshots must always be a consistent prefix
	// (every node's edges final and pointing at smaller IDs). Run under
	// -race this also exercises the sharded history and graph retention.
	rt := New()
	sp := index.NewSpace("D", 256)
	shared := region.New("shared", sp)
	const launchers, perLauncher = 6, 40

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			g := rt.Graph()
			for i, n := range g.Nodes {
				if n.ID != int64(i) {
					t.Errorf("snapshot node %d has ID %d", i, n.ID)
					return
				}
				for _, d := range n.Deps {
					if d >= n.ID {
						t.Errorf("snapshot node %d has forward edge to %d", n.ID, d)
						return
					}
				}
			}
			if g.Len() == launchers*perLauncher {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for l := 0; l < launchers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < perLauncher; i++ {
				lo := int64((l*perLauncher + i) % 64 * 4)
				priv := region.ReadOnly
				if i%3 == 0 {
					priv = region.ReadWrite
				}
				rt.DefaultSession().Launch(TaskSpec{Name: "t", Refs: []region.Ref{
					{Region: shared.ID(), Subset: index.Span(lo, lo+3), Priv: priv},
				}})
			}
		}(l)
	}
	wg.Wait()
	rt.Drain()
	<-done

	g := rt.Graph()
	if g.Len() != launchers*perLauncher {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), launchers*perLauncher)
	}
}

func TestLaunchAfterDrainedFailureRunsClean(t *testing.T) {
	// Poison flows only through tasks in flight. Once a failure has
	// completed (drained, surfaced via Err), tasks launched afterward —
	// even ones ordered after the failed task — run normally. Checkpoint
	// recovery (SolveResilient) depends on this: the restore task that
	// overwrites the damaged data is itself ordered after the failure.
	rt := New()
	sp := index.NewSpace("D", 8)
	v := region.New("v", sp)
	w := region.Ref{Region: v.ID(), Subset: index.Span(0, 7), Priv: region.ReadWrite}
	rt.DefaultSession().Launch(TaskSpec{Name: "boom", Refs: []region.Ref{w}, Run: func() float64 {
		panic("kernel fault")
	}})
	rt.Drain() // "boom" has failed, retired, and is visible via Err
	if rt.Err() == nil {
		t.Fatal("failure not surfaced")
	}
	fut := rt.DefaultSession().Launch(TaskSpec{Name: "restore", Refs: []region.Ref{w}, Run: func() float64 {
		return 42
	}})
	rt.Drain()
	if v, err := fut.Result(); err != nil || v != 42 {
		t.Fatalf("post-recovery task = (%v, %v), want (42, nil)", v, err)
	}
	if got := rt.Stats().Poisoned; got != 0 {
		t.Fatalf("Poisoned = %d, want 0", got)
	}
}

func TestAwaitedFailureSameLedgerAsRegions(t *testing.T) {
	// A task awaiting the future of a failed task is poisoned like one
	// reading its region: wired while the failure is in flight or after it
	// completed, up to the session's next Drain. After that Drain the
	// failure is handled, and a task awaiting the same future runs clean.
	rt := New()
	s := rt.DefaultSession()
	release := make(chan struct{})
	boom := s.Launch(TaskSpec{Name: "boom", Run: func() float64 {
		<-release
		panic("kernel fault")
	}})
	ran := func() float64 { return 42 }
	inFlight := s.Launch(TaskSpec{Name: "in-flight", Awaits: []Await{{boom, 8}}, Run: ran})
	close(release)
	if boom.Err() == nil {
		t.Fatal("boom did not fail")
	}
	late := s.Launch(TaskSpec{Name: "late", Awaits: []Await{{boom, 8}}, Run: ran})
	s.Drain()
	for _, f := range []*Future{inFlight, late} {
		if v, err := f.Result(); !errors.Is(err, ErrPoisoned) || !math.IsNaN(v) {
			t.Fatalf("reader of a failed future = (%v, %v), want poisoned NaN", v, err)
		}
	}
	after := s.Launch(TaskSpec{Name: "after", Awaits: []Await{{boom, 8}}, Run: ran})
	s.Drain()
	if v, err := after.Result(); err != nil || v != 42 {
		t.Fatalf("reader launched after the drain = (%v, %v), want (42, nil)", v, err)
	}
	if st := s.Stats(); st.Failed != 1 || st.Poisoned != 2 {
		t.Fatalf("Failed/Poisoned = %d/%d, want 1/2", st.Failed, st.Poisoned)
	}
}

func TestLaunchTimingSplit(t *testing.T) {
	rt := New()
	sp := index.NewSpace("D", 16)
	v := region.New("v", sp)
	iter := func() {
		rt.DefaultSession().BeginTrace("k")
		rt.DefaultSession().Launch(TaskSpec{Name: "w", Refs: []region.Ref{
			{Region: v.ID(), Subset: index.Span(0, 15), Priv: region.ReadWrite},
		}})
		rt.DefaultSession().EndTrace()
	}
	for i := 0; i < 5; i++ {
		iter()
	}
	rt.Drain()
	analyzed, spliced := rt.LaunchTiming()
	if analyzed.Count != 2 || spliced.Count != 3 {
		t.Fatalf("timing counts analyzed/spliced = %d/%d, want 2/3", analyzed.Count, spliced.Count)
	}
	if analyzed.Total <= 0 || spliced.Total <= 0 {
		t.Fatalf("timers did not accumulate: %v / %v", analyzed.Total, spliced.Total)
	}
}
