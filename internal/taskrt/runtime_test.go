package taskrt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

func ref(r *region.Region, lo, hi int64, p region.Privilege) region.Ref {
	return region.Ref{Region: r.ID(), Subset: index.Span(lo, hi), Priv: p}
}

func TestRAWDependence(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 8))
	data := r.Data()

	rt.DefaultSession().Launch(TaskSpec{
		Name: "write",
		Refs: []region.Ref{ref(r, 0, 7, region.WriteDiscard)},
		Run: func() float64 {
			for i := range data {
				data[i] = 3
			}
			return 0
		},
	})
	sum := rt.DefaultSession().Launch(TaskSpec{
		Name: "read",
		Refs: []region.Ref{ref(r, 0, 7, region.ReadOnly)},
		Run: func() float64 {
			var s float64
			for _, v := range data {
				s += v
			}
			return s
		},
	})
	if got := sum.Value(); got != 24 {
		t.Fatalf("reader saw %g, want 24", got)
	}
	rt.Drain()

	g := rt.Graph()
	if g.Len() != 2 {
		t.Fatalf("graph has %d nodes", g.Len())
	}
	n := g.Nodes[1]
	if len(n.Deps) != 1 || n.Deps[0] != 0 {
		t.Fatalf("reader deps = %v", n.Deps)
	}
	if n.DepBytes[0] != 64 {
		t.Fatalf("dep bytes = %d, want 64", n.DepBytes[0])
	}
}

func TestIndependentTasksHaveNoEdges(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 16))
	for c := 0; c < 4; c++ {
		lo := int64(c * 4)
		rt.DefaultSession().Launch(TaskSpec{
			Name: "piece",
			Refs: []region.Ref{ref(r, lo, lo+3, region.ReadWrite)},
			Run:  func() float64 { return 0 },
		})
	}
	rt.Drain()
	for _, n := range rt.Graph().Nodes {
		if len(n.Deps) != 0 {
			t.Fatalf("disjoint pieces must not depend on each other: %+v", n)
		}
	}
}

func TestReadersDoNotConflict(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 4))
	for i := 0; i < 3; i++ {
		rt.DefaultSession().Launch(TaskSpec{
			Name: "read",
			Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)},
		})
	}
	rt.Drain()
	if got := rt.Stats().DepEdges; got != 0 {
		t.Fatalf("readers produced %d edges", got)
	}
}

func TestWARAndWAWSerialize(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 4))
	var order []string
	var mu sync.Mutex
	log := func(s string) func() float64 {
		return func() float64 {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			return 0
		}
	}
	rt.DefaultSession().Launch(TaskSpec{Name: "w1", Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)}, Run: log("w1")})
	rt.DefaultSession().Launch(TaskSpec{Name: "r1", Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)}, Run: log("r1")})
	rt.DefaultSession().Launch(TaskSpec{Name: "w2", Refs: []region.Ref{ref(r, 0, 3, region.WriteDiscard)}, Run: log("w2")})
	rt.Drain()
	if len(order) != 3 || order[0] != "w1" || order[1] != "r1" || order[2] != "w2" {
		t.Fatalf("order = %v, want [w1 r1 w2]", order)
	}
	// WriteDiscard after a reader is ordering-only: no bytes move.
	g := rt.Graph()
	for i, b := range g.Nodes[2].DepBytes {
		if b != 0 {
			t.Fatalf("w2 dep %d carries %d bytes, want 0", g.Nodes[2].Deps[i], b)
		}
	}
}

func TestReduceSerializedDeterministically(t *testing.T) {
	// Reductions into overlapping data run in launch order, keeping
	// floating-point results deterministic. We verify with a
	// non-commutative update that the order really is launch order.
	for trial := 0; trial < 10; trial++ {
		rt := New()
		r := region.New("acc", index.NewSpace("D", 1))
		data := r.Data()
		data[0] = 0
		for i := 1; i <= 5; i++ {
			v := float64(i)
			rt.DefaultSession().Launch(TaskSpec{
				Name: "reduce",
				Refs: []region.Ref{ref(r, 0, 0, region.ReduceSum)},
				Run: func() float64 {
					data[0] = data[0]*10 + v
					return 0
				},
			})
		}
		rt.Drain()
		if data[0] != 12345 {
			t.Fatalf("trial %d: reductions ran out of order: %g", trial, data[0])
		}
	}
}

func TestPartialOverlapDependence(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 10))
	rt.DefaultSession().Launch(TaskSpec{Name: "a", Refs: []region.Ref{ref(r, 0, 5, region.ReadWrite)}})
	rt.DefaultSession().Launch(TaskSpec{Name: "b", Refs: []region.Ref{ref(r, 6, 9, region.ReadWrite)}})
	rt.DefaultSession().Launch(TaskSpec{Name: "c", Refs: []region.Ref{ref(r, 4, 7, region.ReadOnly)}})
	rt.Drain()
	g := rt.Graph()
	c := g.Nodes[2]
	if len(c.Deps) != 2 {
		t.Fatalf("c deps = %v, want both writers", c.Deps)
	}
	// Bytes: overlap with a is [4,5] = 16B, with b is [6,7] = 16B.
	for i := range c.Deps {
		if c.DepBytes[i] != 16 {
			t.Fatalf("dep %d bytes = %d, want 16", c.Deps[i], c.DepBytes[i])
		}
	}
}

func TestHistoryDomination(t *testing.T) {
	// Repeated full-region writers prune the history so analysis work per
	// launch stays constant across iterations.
	rt := New()
	r := region.New("v", index.NewSpace("D", 64))
	for i := 0; i < 50; i++ {
		rt.DefaultSession().Launch(TaskSpec{Name: "w", Refs: []region.Ref{ref(r, 0, 63, region.ReadWrite)}})
	}
	rt.Drain()
	st := rt.Stats()
	// Each launch after the first scans exactly one history entry.
	if st.AnalysisScans > 2*st.Launched {
		t.Fatalf("history not pruned: %d scans for %d launches", st.AnalysisScans, st.Launched)
	}
	// And the chain is fully serialized.
	g := rt.Graph()
	for i := 1; i < g.Len(); i++ {
		if len(g.Nodes[i].Deps) != 1 || g.Nodes[i].Deps[0] != int64(i-1) {
			t.Fatalf("node %d deps = %v", i, g.Nodes[i].Deps)
		}
	}
}

func TestNoSelfDependence(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 8))
	// One task both reads and writes overlapping subsets of one field.
	rt.DefaultSession().Launch(TaskSpec{Name: "rw", Refs: []region.Ref{
		ref(r, 0, 7, region.ReadOnly),
		ref(r, 2, 5, region.ReadWrite),
	}})
	rt.Drain()
	n := rt.Graph().Nodes[0]
	if len(n.Deps) != 0 {
		t.Fatalf("task depends on itself: %v", n.Deps)
	}
}

func TestFutures(t *testing.T) {
	rt := New()
	f := rt.DefaultSession().Launch(TaskSpec{Name: "t", Run: func() float64 { return 42 }})
	if got := f.Value(); got != 42 {
		t.Fatalf("Value = %g", got)
	}
	if !f.Ready() {
		t.Fatal("future should be ready after Value")
	}
	if Resolved(7).Value() != 7 || !Resolved(7).Ready() {
		t.Fatal("Resolved wrong")
	}
	rt.Drain()
}

func TestAwaitedFuturesAddEdges(t *testing.T) {
	// An awaited future adds one edge to its task, carrying the await's
	// bytes; a predecessor also reached through a region is one edge with
	// both byte counts, deps stay sorted, and a resolved future adds none.
	rt := New()
	s := rt.DefaultSession()
	r := region.New("v", index.NewSpace("D", 8))
	w := s.Launch(TaskSpec{Name: "w", Refs: []region.Ref{ref(r, 0, 7, region.WriteDiscard)}, Run: func() float64 { return 2 }})
	a := s.Launch(TaskSpec{Name: "a", Run: func() float64 { return 3 }})
	b := s.Launch(TaskSpec{Name: "b", Run: func() float64 { return 5 }})
	sum := s.Launch(TaskSpec{
		Name: "sum", Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)},
		Awaits: []Await{{b, 16}, {Resolved(7), 8}, {w, 8}, {a, 8}, {b, 8}},
		Run: func() float64 {
			if !w.Ready() || !a.Ready() || !b.Ready() {
				panic("ran before an awaited future resolved")
			}
			return w.Value() + a.Value() + b.Value()
		},
	})
	if v, err := sum.Result(); v != 10 || err != nil {
		t.Fatalf("sum = (%v, %v), want (10, nil)", v, err)
	}
	rt.Drain()
	n := rt.Graph().Nodes[3]
	if want := []int64{0, 1, 2}; !slices.Equal(n.Deps, want) {
		t.Fatalf("deps = %v, want %v", n.Deps, want)
	}
	if want := []int64{32 + 8, 8, 24}; !slices.Equal(n.DepBytes, want) {
		t.Fatalf("dep bytes = %v, want %v", n.DepBytes, want)
	}
	if got := s.Stats().DepEdges; got != 3 {
		t.Fatalf("DepEdges = %d, want 3", got)
	}

	other := rt.NewSession("other")
	defer func() {
		if recover() == nil {
			t.Fatal("awaiting another session's future did not panic")
		}
	}()
	other.Launch(TaskSpec{Name: "foreign", Awaits: []Await{{a, 8}}})
}

func TestTraceReplayFlags(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 4))
	iter := func() {
		rt.DefaultSession().BeginTrace("cg-step")
		rt.DefaultSession().Launch(TaskSpec{Name: "a", Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)}})
		rt.DefaultSession().Launch(TaskSpec{Name: "b", Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)}})
		rt.DefaultSession().EndTrace()
	}
	iter() // records the fingerprint
	iter() // calibrates: validates and captures edges
	scansBeforeReplay := rt.Stats().AnalysisScans
	iter() // replays
	iter() // replays
	rt.Drain()
	g := rt.Graph()
	for i, n := range g.Nodes {
		wantTraced := i >= 4
		if n.Traced != wantTraced {
			t.Errorf("node %d Traced = %v, want %v", i, n.Traced, wantTraced)
		}
	}
	st := rt.Stats()
	if st.TraceReplays != 4 {
		t.Fatalf("TraceReplays = %d, want 4", st.TraceReplays)
	}
	if st.TraceHits != 2 || st.TraceMisses != 2 {
		t.Fatalf("TraceHits/Misses = %d/%d, want 2/2", st.TraceHits, st.TraceMisses)
	}
	if st.AnalysisScans != scansBeforeReplay {
		t.Fatalf("replayed iterations performed %d analysis scans, want 0",
			st.AnalysisScans-scansBeforeReplay)
	}
}

func TestTraceMisuse(t *testing.T) {
	rt := New()
	rt.DefaultSession().BeginTrace("t")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested BeginTrace should panic")
			}
		}()
		rt.DefaultSession().BeginTrace("u")
	}()
	rt.DefaultSession().EndTrace()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unmatched EndTrace should panic")
			}
		}()
		rt.DefaultSession().EndTrace()
	}()
}

func TestStressRandomDAGRespectsDependences(t *testing.T) {
	// Launch many tasks with random subsets; every task records a
	// timestamp on start and verifies that all graph dependences
	// completed first.
	rt := New()
	r := region.New("v", index.NewSpace("D", 40))
	const n = 300
	var clock atomic.Int64
	started := make([]atomic.Int64, n)
	finished := make([]atomic.Int64, n)
	rng := rand.New(rand.NewSource(7))
	privs := []region.Privilege{region.ReadOnly, region.ReadWrite, region.WriteDiscard, region.ReduceSum}
	for i := 0; i < n; i++ {
		lo := rng.Int63n(40)
		hi := lo + rng.Int63n(40-lo)
		p := privs[rng.Intn(len(privs))]
		i := i
		rt.DefaultSession().Launch(TaskSpec{
			Name: "t",
			Refs: []region.Ref{ref(r, lo, hi, p)},
			Run: func() float64 {
				started[i].Store(clock.Add(1))
				finished[i].Store(clock.Add(1))
				return 0
			},
		})
	}
	rt.Drain()
	g := rt.Graph()
	for i, node := range g.Nodes {
		for _, d := range node.Deps {
			if finished[d].Load() >= started[i].Load() {
				t.Fatalf("task %d started at %d before dep %d finished at %d",
					i, started[i].Load(), d, finished[d].Load())
			}
		}
	}
}

func TestGraphCostHelpers(t *testing.T) {
	var g Graph
	a := g.Add(Node{Name: "a", Cost: 2})
	b := g.Add(Node{Name: "b", Cost: 3})
	g.Add(Node{Name: "c", Cost: 4, Deps: []int64{a, b}})
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestConcurrentLaunchSafety(t *testing.T) {
	// The runtime documents Launch as safe for concurrent use; hammer it
	// from several goroutines against disjoint regions and one shared
	// region.
	rt := New()
	shared := region.New("s", index.NewSpace("D", 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		own := region.New("own", index.NewSpace("D", 16))
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rt.DefaultSession().Launch(TaskSpec{
					Name: "w",
					Refs: []region.Ref{
						ref(own, 0, 15, region.ReadWrite),
						ref(shared, 0, 7, region.ReadOnly),
					},
				})
			}
		}()
	}
	wg.Wait()
	rt.Drain()
	if got := rt.Stats().Launched; got != 400 {
		t.Fatalf("Launched = %d, want 400", got)
	}
	g := rt.Graph()
	// Each goroutine's own-region chain must be fully ordered; readers of
	// the shared region must not conflict with each other.
	for _, n := range g.Nodes {
		for i, d := range n.Deps {
			if d >= n.ID {
				t.Fatalf("non-topological dep %d -> %d", n.ID, d)
			}
			if n.DepBytes[i] < 0 {
				t.Fatalf("negative bytes")
			}
		}
	}
}

func TestFutureValueFromManyWaiters(t *testing.T) {
	rt := New()
	fut := rt.DefaultSession().Launch(TaskSpec{Name: "slow", Run: func() float64 { return 3.5 }})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fut.Value() != 3.5 {
				t.Error("wrong value")
			}
		}()
	}
	wg.Wait()
	rt.Drain()
}

func TestGraphSnapshotIsolation(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 4))
	rt.DefaultSession().Launch(TaskSpec{Name: "a", Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)}})
	rt.Drain()
	g1 := rt.Graph()
	rt.DefaultSession().Launch(TaskSpec{Name: "b", Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)}})
	rt.Drain()
	if g1.Len() != 1 {
		t.Fatalf("snapshot mutated: %d", g1.Len())
	}
	if rt.Graph().Len() != 2 {
		t.Fatalf("graph = %d", rt.Graph().Len())
	}
}

func TestPanickingTaskIsCaptured(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 4))
	bad := rt.DefaultSession().Launch(TaskSpec{
		Name: "explode",
		Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
		Run:  func() float64 { panic("kernel bug") },
	})
	// A dependent task must NOT run its body: the failure poisons it.
	ran := false
	after := rt.DefaultSession().Launch(TaskSpec{
		Name: "after",
		Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)},
		Run:  func() float64 { ran = true; return 1 },
	})
	rt.Drain()
	if !math.IsNaN(bad.Value()) {
		t.Fatalf("failed task future = %g, want NaN", bad.Value())
	}
	if ran {
		t.Fatal("successor of a failed task must not execute its body")
	}
	if !math.IsNaN(after.Value()) {
		t.Fatalf("poisoned future = %g, want NaN", after.Value())
	}
	if !errors.Is(after.Err(), ErrPoisoned) {
		t.Fatalf("poisoned future Err = %v, want ErrPoisoned", after.Err())
	}
	err := rt.Err()
	if err == nil || !strings.Contains(err.Error(), "explode") || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("Err = %v", err)
	}
}

func TestErrKeepsFirstFailure(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 1))
	for i := 0; i < 3; i++ {
		msg := fmt.Sprintf("boom-%d", i)
		rt.DefaultSession().Launch(TaskSpec{
			Name: "f",
			Refs: []region.Ref{ref(r, 0, 0, region.ReadWrite)},
			Run:  func() float64 { panic(msg) },
		})
	}
	rt.Drain()
	if err := rt.Err(); err == nil || !strings.Contains(err.Error(), "boom-0") {
		t.Fatalf("Err = %v, want the first failure", err)
	}
}

func TestErrNilOnSuccess(t *testing.T) {
	rt := New()
	rt.DefaultSession().Launch(TaskSpec{Name: "ok", Run: func() float64 { return 1 }})
	rt.Drain()
	if err := rt.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestHistoryShrinkingBoundsReaderEntries(t *testing.T) {
	// The Figure 10 pattern: long-lived whole-piece readers (dot
	// partials) interleaved with writers that each touch one block.
	// Shrinking must keep per-launch analysis work constant across
	// iterations instead of scanning an ever-growing reader list.
	rt := New()
	r := region.New("y", index.NewSpace("R", 64))
	const iters = 60
	for i := 0; i < iters; i++ {
		// Four block writers...
		for b := int64(0); b < 4; b++ {
			rt.DefaultSession().Launch(TaskSpec{Name: "w", Refs: []region.Ref{
				ref(r, b*16, b*16+15, region.WriteDiscard),
			}})
		}
		// ...then a whole-piece reader.
		rt.DefaultSession().Launch(TaskSpec{Name: "read", Refs: []region.Ref{
			ref(r, 0, 63, region.ReadOnly),
		}})
	}
	rt.Drain()
	st := rt.Stats()
	perLaunch := float64(st.AnalysisScans) / float64(st.Launched)
	if perLaunch > 8 {
		t.Fatalf("history grows: %.1f scans per launch", perLaunch)
	}
}

func TestHistoryShrinkingRoutesBytesPerProducer(t *testing.T) {
	// A reader spanning two writers' regions pulls each part from the
	// writer that produced it — not the full overlap from both.
	rt := New()
	r := region.New("y", index.NewSpace("R", 10))
	w1 := rt.DefaultSession().Launch(TaskSpec{Name: "w1", Refs: []region.Ref{ref(r, 0, 9, region.ReadWrite)}})
	_ = w1
	rt.DefaultSession().Launch(TaskSpec{Name: "w2", Refs: []region.Ref{ref(r, 0, 4, region.ReadWrite)}})
	rt.DefaultSession().Launch(TaskSpec{Name: "read", Refs: []region.Ref{ref(r, 0, 9, region.ReadOnly)}})
	rt.Drain()
	g := rt.Graph()
	read := g.Nodes[2]
	if len(read.Deps) != 2 {
		t.Fatalf("reader deps = %v, want both writers", read.Deps)
	}
	bytesByDep := map[int64]int64{}
	for i, d := range read.Deps {
		bytesByDep[d] = read.DepBytes[i]
	}
	// w2 produced [0,4] (40 bytes); w1 still owns [5,9] (40 bytes).
	if bytesByDep[0] != 40 || bytesByDep[1] != 40 {
		t.Fatalf("byte routing wrong: %v", bytesByDep)
	}
}

// launchPoints launches one point task per color of [0, n) in one
// batch, as the planner launches an operation over a partition.
func launchPoints(s *Session, n int, point func(color int) TaskSpec) []*Future {
	specs := make([]TaskSpec, n)
	for c := range specs {
		specs[c] = point(c)
	}
	return s.LaunchBatch(specs)
}

// A batch of point tasks over a disjoint partition: one future per
// color, no dependence edges.
func TestLaunchBatchPointTasks(t *testing.T) {
	rt := New()
	r := region.New("v", index.NewSpace("D", 16))
	data := r.Data()
	futs := launchPoints(rt.DefaultSession(), 4, func(c int) TaskSpec {
		lo := int64(c * 4)
		return TaskSpec{
			Name: "fill", Proc: c,
			Refs: []region.Ref{ref(r, lo, lo+3, region.WriteDiscard)},
			Run: func() float64 {
				for i := lo; i < lo+4; i++ {
					data[i] = float64(c)
				}
				return float64(c)
			},
		}
	})
	if len(futs) != 4 {
		t.Fatalf("futures = %d", len(futs))
	}
	for c, f := range futs {
		if f.Value() != float64(c) {
			t.Fatalf("future %d = %g", c, f.Value())
		}
	}
	rt.Drain()
	// Disjoint point tasks: no dependence edges.
	for _, n := range rt.Graph().Nodes {
		if len(n.Deps) != 0 {
			t.Fatalf("point tasks over a disjoint partition must be independent: %+v", n)
		}
	}
	if data[0] != 0 || data[15] != 3 {
		t.Fatal("point tasks did not run")
	}
}

func TestTraceReplayTwoCyclesSameKey(t *testing.T) {
	// The third back-to-back cycle under the same key must replay: the
	// first records the fingerprint, the second calibrates the edges,
	// and TraceReplays counts exactly the spliced tasks. A later cycle
	// under a fresh key records again and replays nothing.
	rt := New()
	r := region.New("v", index.NewSpace("D", 8))
	cycle := func(key string) {
		rt.DefaultSession().BeginTrace(key)
		rt.DefaultSession().Launch(TaskSpec{Name: "a", Refs: []region.Ref{ref(r, 0, 7, region.ReadWrite)}})
		rt.DefaultSession().Launch(TaskSpec{Name: "b", Refs: []region.Ref{ref(r, 0, 7, region.ReadOnly)}})
		rt.DefaultSession().Launch(TaskSpec{Name: "c", Refs: []region.Ref{ref(r, 0, 7, region.ReadOnly)}})
		rt.DefaultSession().EndTrace()
	}
	cycle("step")
	cycle("step")
	if got := rt.Stats().TraceReplays; got != 0 {
		t.Fatalf("after record+calibrate cycles: TraceReplays = %d, want 0", got)
	}
	cycle("step")
	if got := rt.Stats().TraceReplays; got != 3 {
		t.Fatalf("after replay cycle: TraceReplays = %d, want 3", got)
	}
	cycle("other")
	rt.Drain()
	if got := rt.Stats().TraceReplays; got != 3 {
		t.Fatalf("fresh key must record, not replay: TraceReplays = %d, want 3", got)
	}
	g := rt.Graph()
	if g.Len() != 12 {
		t.Fatalf("graph has %d nodes, want 12", g.Len())
	}
	for i, n := range g.Nodes {
		wantTraced := i >= 6 && i < 9
		if n.Traced != wantTraced {
			t.Errorf("node %d Traced = %v, want %v", i, n.Traced, wantTraced)
		}
	}
}

func TestLaunchBatchFutureColorOrder(t *testing.T) {
	// futs[c] must be color c's future regardless of processor mapping or
	// completion order; map colors to processors in reverse to make an
	// ordering mix-up visible.
	rt := New()
	r := region.New("v", index.NewSpace("D", 32))
	futs := launchPoints(rt.DefaultSession(), 8, func(c int) TaskSpec {
		lo := int64(c * 4)
		return TaskSpec{
			Name: "point", Proc: 7 - c,
			Refs: []region.Ref{ref(r, lo, lo+3, region.WriteDiscard)},
			Run:  func() float64 { return float64(c*c + 1) },
		}
	})
	for c, f := range futs {
		if got, want := f.Value(), float64(c*c+1); got != want {
			t.Fatalf("future %d = %g, want %g", c, got, want)
		}
	}
	rt.Drain()
	for i, n := range rt.Graph().Nodes {
		if want := 7 - i; n.Proc != want {
			t.Errorf("node %d mapped to proc %d, want %d", i, n.Proc, want)
		}
	}
}

// Workers are spawned when work arrives and exit when the run queue is
// empty: a drained runtime owns no goroutine, so there is nothing to
// Close and an idle taskrt.New() costs nothing.
func TestWorkersExitWhenQueueDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := New()
	rt.SetGraphRetention(false)
	const lanes = 8
	r := region.New("v", index.NewSpace("D", lanes))
	for i := 0; i < 2000; i++ {
		lane := int64(i % lanes)
		rt.DefaultSession().Launch(TaskSpec{
			Name:     "w",
			Refs:     []region.Ref{ref(r, lane, lane, region.ReadWrite)},
			Run:      func() float64 { return 0 },
			Detached: true,
		})
	}
	rt.Drain()
	// Drain returns when the last task retires, a moment before the
	// worker that ran it finds the queue empty and returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before the first launch: workers did not exit",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// A completing worker runs its first ready successor inline, in a loop:
// a dependent chain of any length executes at constant stack depth. Every
// link is wired behind a gated head before anything runs, so the whole
// chain is one run of continuations.
func TestLongChainRunsAtConstantStackDepth(t *testing.T) {
	const links = 100000
	rt := New()
	rt.SetGraphRetention(false)
	r := region.New("v", index.NewSpace("D", 1))
	gate := make(chan struct{})
	rt.DefaultSession().Launch(TaskSpec{
		Name:     "head",
		Refs:     []region.Ref{ref(r, 0, 0, region.ReadWrite)},
		Run:      func() float64 { <-gate; return 0 },
		Detached: true,
	})
	// Ordered by the chain itself, so plain variables suffice.
	count, first, deepest := 0, 0, 0
	link := TaskSpec{
		Name: "link",
		Refs: []region.Ref{ref(r, 0, 0, region.ReadWrite)},
		Run: func() float64 {
			var pcs [128]uintptr
			depth := runtime.Callers(0, pcs[:])
			if count == 0 {
				first = depth
			}
			deepest = max(deepest, depth)
			count++
			return 0
		},
		Detached: true,
	}
	for i := 0; i < links; i++ {
		rt.DefaultSession().Launch(link)
	}
	close(gate)
	rt.Drain()
	if count != links {
		t.Fatalf("%d links ran, want %d", count, links)
	}
	if deepest != first {
		t.Fatalf("stack depth grew along the chain: %d frames at the first link, %d at the deepest", first, deepest)
	}
}
