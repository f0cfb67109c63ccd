package taskrt

import (
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// TestReplayLaunchAllocs pins the allocation count of the spliced launch
// hot path: with graph retention off, stable regions, detached specs,
// and a calibrated trace, a whole replayed iteration (BeginTrace,
// LaunchBatch, EndTrace, Drain) must average under one allocation per
// launch — the pooled futures, recycled task states, interval-set
// scratch, and arena'd dependence storage leave nothing to allocate per
// task. The budget of 1 absorbs scheduler-level noise from the executing
// goroutines (stack growth, timer wheels), not launch-path work.
func TestReplayLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only means something without it")
	}
	rt := New()
	rt.SetGraphRetention(false)
	sp := index.NewSpace("D", 256)
	a := region.New("a", sp)
	b := region.New("b", sp)
	ref := func(r *region.Region, priv region.Privilege) region.Ref {
		return region.Ref{Region: r.ID(), Subset: index.Span(0, 255), Priv: priv}
	}
	noop := func() float64 { return 0 }
	specs := []TaskSpec{
		{Name: "produce", Refs: []region.Ref{ref(a, region.WriteDiscard)}, Run: noop, Detached: true},
		{Name: "transform", Refs: []region.Ref{ref(a, region.ReadOnly), ref(b, region.WriteDiscard)}, Run: noop, Detached: true},
		{Name: "consume", Refs: []region.Ref{ref(b, region.ReadWrite)}, Run: noop, Detached: true},
	}
	iter := func() {
		rt.DefaultSession().BeginTrace("alloc")
		rt.DefaultSession().LaunchBatch(specs)
		rt.DefaultSession().EndTrace()
		rt.Drain()
	}
	// Record, calibrate, then enough replays to warm every pool and the
	// goroutine free list.
	for i := 0; i < 8; i++ {
		iter()
	}
	before := rt.Stats().TraceReplays

	const rounds = 100
	allocs := testing.AllocsPerRun(rounds, iter)
	perLaunch := allocs / float64(len(specs))

	// AllocsPerRun runs the body rounds+1 times; every one must have hit
	// the replay path or the measurement is of the wrong code path.
	replays := rt.Stats().TraceReplays - before
	if want := int64(rounds+1) * int64(len(specs)); replays != want {
		t.Fatalf("replayed %d launches during measurement, want %d", replays, want)
	}
	if perLaunch >= 1 {
		t.Errorf("replay path allocates %.2f allocs/launch (%.1f per iteration), want < 1",
			perLaunch, allocs)
	}
	t.Logf("replay path: %.3f allocs/launch", perLaunch)
}

// BenchmarkReplayIteration is the wall-clock companion of the alloc
// test: one replayed three-task iteration, end to end.
func BenchmarkReplayIteration(b *testing.B) {
	rt := New()
	rt.SetGraphRetention(false)
	sp := index.NewSpace("D", 256)
	ra := region.New("bra", sp)
	rb := region.New("brb", sp)
	ref := func(r *region.Region, priv region.Privilege) region.Ref {
		return region.Ref{Region: r.ID(), Subset: index.Span(0, 255), Priv: priv}
	}
	noop := func() float64 { return 0 }
	specs := []TaskSpec{
		{Name: "produce", Refs: []region.Ref{ref(ra, region.WriteDiscard)}, Run: noop, Detached: true},
		{Name: "transform", Refs: []region.Ref{ref(ra, region.ReadOnly), ref(rb, region.WriteDiscard)}, Run: noop, Detached: true},
		{Name: "consume", Refs: []region.Ref{ref(rb, region.ReadWrite)}, Run: noop, Detached: true},
	}
	iter := func() {
		rt.DefaultSession().BeginTrace("bench")
		rt.DefaultSession().LaunchBatch(specs)
		rt.DefaultSession().EndTrace()
		rt.Drain()
	}
	for i := 0; i < 8; i++ {
		iter()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// TestAnalyzedLaunchAllocsBounded keeps the untraced path honest too: it
// may allocate (fresh analysis walks the history), but the pooled
// storage should hold it to a small constant, not O(history).
func TestAnalyzedLaunchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only means something without it")
	}
	rt := New()
	rt.SetGraphRetention(false)
	sp := index.NewSpace("D", 256)
	a := region.New("ua", sp)
	ref := region.Ref{Region: a.ID(), Subset: index.Span(0, 255), Priv: region.ReadWrite}
	spec := TaskSpec{Name: "rmw", Refs: []region.Ref{ref}, Run: func() float64 { return 0 }, Detached: true}
	iter := func() {
		rt.DefaultSession().Launch(spec)
		rt.Drain()
	}
	for i := 0; i < 8; i++ {
		iter()
	}
	allocs := testing.AllocsPerRun(100, iter)
	if allocs > 8 {
		t.Errorf("analyzed path allocates %.1f allocs/launch, want <= 8", allocs)
	}
	t.Logf("analyzed path: %.3f allocs/launch", allocs)
}
