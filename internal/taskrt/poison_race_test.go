package taskrt

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// waitRetired spins until the task with the given ID has left the default
// session's live-task table —
// i.e. its completion has run past the point where a later launch would
// find it live and wire onto it. Tests use this to deterministically
// steer a consumer launch into finishLocked's dead-predecessor branch.
func waitRetired(rt *Runtime, id int64) {
	for {
		rt.def.mu.Lock()
		_, live := rt.def.tasks[id]
		rt.def.mu.Unlock()
		if !live {
			return
		}
		runtime.Gosched()
	}
}

// TestMidFlightFailurePoisonsLateWiredConsumers is the regression for
// the pooled-future poisoning hole: a producer fails while other work is
// still in flight (so the client cannot have drained the failure), and a
// consumer of the producer's region launches after the producer has
// already retired from the live-task table. Before the failure ledger,
// finishLocked treated every dead predecessor as a handled failure and
// ran the consumer on the garbage region — resolving its pooled Future
// with a stale-looking clean value. The consumer must instead be
// poisoned, through Launch and LaunchBatch alike.
func TestMidFlightFailurePoisonsLateWiredConsumers(t *testing.T) {
	// The blocker below parks inside a worker; the runtime sizes its pool
	// to GOMAXPROCS at construction, so guarantee a second worker exists
	// for the producer even on a single-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rt := New()
	r := region.New("v", index.NewSpace("D", 8))
	park := region.New("p", index.NewSpace("P", 1))

	// The blocker keeps the runtime non-quiescent across the whole
	// scenario: with it parked, inflight never reaches zero, so the
	// failure below stays "mid-flight" rather than drained.
	release := make(chan struct{})
	rt.DefaultSession().Launch(TaskSpec{ // id 0
		Name: "blocker",
		Refs: []region.Ref{ref(park, 0, 0, region.ReadWrite)},
		Run:  func() float64 { <-release; return 0 },
	})

	bad := rt.DefaultSession().Launch(TaskSpec{ // id 1
		Name: "producer",
		Refs: []region.Ref{ref(r, 0, 7, region.WriteDiscard)},
		Run:  func() float64 { panic("producer died") },
	})
	if !math.IsNaN(bad.Value()) {
		t.Fatalf("failed producer future = %g, want NaN", bad.Value())
	}
	waitRetired(rt, 1)

	// Launch path: the consumer's dependence analysis still finds the
	// dead producer in the history shards, so it must pick the poison up
	// from the failure ledger.
	var ran atomic.Int64
	lone := rt.DefaultSession().Launch(TaskSpec{
		Name: "consumer",
		Refs: []region.Ref{ref(r, 0, 7, region.ReadOnly)},
		Run:  func() float64 { ran.Add(1); return 1 },
	})

	// Batch path: the batch's unlocked resolve phase is the original
	// race window. One spec consumes the failed region, one is
	// independent and must be unaffected.
	futs := rt.DefaultSession().LaunchBatch([]TaskSpec{
		{
			Name: "batch-consumer",
			Refs: []region.Ref{ref(r, 0, 7, region.ReadWrite)},
			Run:  func() float64 { ran.Add(1); return 2 },
		},
		{
			Name: "batch-clean",
			Refs: []region.Ref{ref(park, 0, 0, region.ReadOnly)},
			Run:  func() float64 { return 3 },
		},
	})

	for _, f := range []*Future{lone, futs[0]} {
		if !math.IsNaN(f.Value()) {
			t.Errorf("poisoned consumer future = %g, want NaN", f.Value())
		}
		if !errors.Is(f.Err(), ErrPoisoned) {
			t.Errorf("poisoned consumer Err = %v, want ErrPoisoned", f.Err())
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d consumer bodies ran on a failed region", n)
	}

	close(release)
	rt.Drain()
	if got := futs[1].Value(); got != 3 {
		t.Errorf("independent batch spec = %g, want 3", got)
	}

	// Quiescence clears the ledger: the failure has been observable via
	// Err, so recovery launches (SolveResilient's checkpoint restore)
	// start from a clean slate exactly as before the fix.
	rt.def.mu.Lock()
	ledger := len(rt.def.failed)
	rt.def.mu.Unlock()
	if ledger != 0 {
		t.Errorf("failure ledger holds %d entries after quiescence", ledger)
	}
	clean := rt.DefaultSession().Launch(TaskSpec{
		Name: "recovery",
		Refs: []region.Ref{ref(r, 0, 7, region.WriteDiscard)},
		Run:  func() float64 { return 7 },
	})
	if got := clean.Value(); got != 7 {
		t.Errorf("post-drain recovery task = %g (err %v), want 7", got, clean.Err())
	}
	rt.Drain()
	if err := rt.Err(); err == nil {
		t.Error("Err lost the root producer failure")
	}
}

// TestPoisonLedgerHammer drives concurrent batch launchers over disjoint
// spans with intermittent producer failures under -race. Each failing
// producer NaN-stamps its span before panicking; a reader that the
// runtime lets run must therefore never observe NaN — pre-fix, readers
// wired after a mid-flight failure did exactly that.
func TestPoisonLedgerHammer(t *testing.T) {
	rt := New()
	const lanes, rounds, width = 4, 40, 8
	r := region.New("v", index.NewSpace("D", lanes*width))
	data := r.Data()

	var wg sync.WaitGroup
	var sawGarbage atomic.Int64
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			lo := int64(lane * width)
			hi := lo + width - 1
			for i := 0; i < rounds; i++ {
				val := float64(i + 1)
				fail := i%5 == 3
				rt.DefaultSession().LaunchBatch([]TaskSpec{
					{
						Name: "w",
						Refs: []region.Ref{ref(r, lo, hi, region.WriteDiscard)},
						Run: func() float64 {
							for j := lo; j <= hi; j++ {
								if fail {
									data[j] = math.NaN()
								} else {
									data[j] = val
								}
							}
							if fail {
								panic("lane producer died")
							}
							return 0
						},
					},
					{
						Name: "r",
						Refs: []region.Ref{ref(r, lo, hi, region.ReadOnly)},
						Run: func() float64 {
							for j := lo; j <= hi; j++ {
								if math.IsNaN(data[j]) {
									sawGarbage.Add(1)
									break
								}
							}
							return 0
						},
					},
				})
			}
		}(lane)
	}
	wg.Wait()
	rt.Drain()

	if n := sawGarbage.Load(); n != 0 {
		t.Errorf("%d readers ran on NaN-stamped failed regions", n)
	}
	if rt.Stats().Poisoned == 0 {
		t.Error("hammer never exercised the poison path")
	}
	rt.def.mu.Lock()
	ledger := len(rt.def.failed)
	rt.def.mu.Unlock()
	if ledger != 0 {
		t.Errorf("failure ledger holds %d entries after drain", ledger)
	}
}
