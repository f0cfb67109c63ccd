package taskrt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// busyFor holds the processor for d, as a kernel or a host computation
// would: a sleep would hand it to the scheduler and blur the timing.
func busyFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// The hot pool loses no work. Lingering workers and spinning waiters
// hand tasks and values over without a lock most of the time, so this
// hammers the hand-overs: four launchers (the default session and three
// others) each launch 400 tasks on random lanes, read every third task's
// future at once, and pause between launches — pauses and task bodies
// both drawn from {0, 50, 150, 250, 400} µs, on both sides of
// spinWindow. The third and fourth launchers each open their session
// when the one before is halfway, so the run passes through single-
// tenant stretches (where the idle side spins) and multi-tenant ones
// (where it does not). Every session must drain within the deadline and
// every read future must hold its own task's result.
//
// Two mutations must each fail it: a worker that exits after lingering
// without re-checking the queue under runMu (the task a submit counted
// it for sits in the queue with no worker), and a waiter that returns
// when its spin window passes instead of falling through to cond.Wait
// (it reads a value not yet delivered).
func TestHotPoolLosesNoWork(t *testing.T) {
	const launchers, perLauncher, lanes = 4, 400, 8
	pauses := []time.Duration{0, 50 * time.Microsecond, 150 * time.Microsecond,
		250 * time.Microsecond, 400 * time.Microsecond}
	rt := New()
	rt.SetGraphRetention(false)

	halfway := make([]chan struct{}, launchers)
	for k := range halfway {
		halfway[k] = make(chan struct{})
	}
	errs := make(chan error, launchers)
	var wg sync.WaitGroup
	for k := 0; k < launchers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if k >= 2 {
				<-halfway[k-1]
			}
			s := rt.DefaultSession()
			if k > 0 {
				s = rt.NewSession(fmt.Sprintf("t%d", k))
				defer s.Close()
			}
			rng := rand.New(rand.NewSource(int64(k + 1)))
			r := region.New("v", index.NewSpace("D", lanes))
			bad := 0
			for i := 0; i < perLauncher; i++ {
				if i == perLauncher/2 {
					close(halfway[k])
				}
				lane := rng.Int63n(lanes)
				body := pauses[rng.Intn(len(pauses))]
				want := float64(1 + k*perLauncher + i)
				f := s.Launch(TaskSpec{
					Name: "t",
					Refs: []region.Ref{ref(r, lane, lane, region.ReadWrite)},
					Run:  func() float64 { busyFor(body); return want },
				})
				if i%3 == 0 {
					if got := f.Value(); got != want && bad == 0 {
						bad++
						errs <- fmt.Errorf("launcher %d, task %d: Value = %g, want %g", k, i, got, want)
					}
				}
				busyFor(pauses[rng.Intn(len(pauses))])
			}
			s.Drain()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("sessions did not drain within 20 s: tasks were left in the run queue (%d queued, %d workers live)",
			rt.queued.Load(), rt.live.Load())
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
