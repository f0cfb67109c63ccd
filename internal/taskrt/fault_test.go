package taskrt

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/region"
)

func TestFaultRetryThenSucceed(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetMaxAttempts(3)
	rec := obs.NewRecorder()
	rt.DefaultSession().SetRecorder(rec)

	var attempts atomic.Int64
	f := rt.DefaultSession().Launch(TaskSpec{
		Name:      "flaky",
		Retryable: true,
		Run: func() float64 {
			if attempts.Add(1) < 3 {
				panic("transient")
			}
			return 11
		},
	})
	rt.Drain()
	if got := f.Value(); got != 11 {
		t.Fatalf("Value = %g, want 11 after retries", got)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("Err = %v, want nil after recovery", err)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("runtime Err = %v, want nil (failure was recovered)", err)
	}
	st := rt.Stats()
	if st.Retries != 2 || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want 2 retries and 0 permanent failures", st)
	}
	// Telemetry: the span marked retried.
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Outcome != obs.OutcomeRetried {
		t.Fatalf("spans = %+v, want one OutcomeRetried span", spans)
	}
}

func TestFaultRetryBudgetExhausted(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetMaxAttempts(2)
	var attempts atomic.Int64
	f := rt.DefaultSession().Launch(TaskSpec{
		Name:      "doomed",
		Retryable: true,
		Run:       func() float64 { attempts.Add(1); panic("persistent") },
	})
	rt.Drain()
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want exactly MaxAttempts", attempts.Load())
	}
	if !math.IsNaN(f.Value()) {
		t.Fatalf("Value = %g, want NaN", f.Value())
	}
	err := rt.Err()
	if err == nil || !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("Err = %v", err)
	}
	st := rt.Stats()
	if st.Failed != 1 || st.Retries != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestFaultNonRetryableFailsImmediately(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetMaxAttempts(5)
	var attempts atomic.Int64
	rt.DefaultSession().Launch(TaskSpec{
		Name: "rmw", // not Retryable: read-modify-write bodies must not re-run
		Run:  func() float64 { attempts.Add(1); panic("boom") },
	})
	rt.Drain()
	if attempts.Load() != 1 {
		t.Fatalf("non-retryable task ran %d times, want 1", attempts.Load())
	}
	if rt.Stats().Retries != 0 {
		t.Fatal("non-retryable task consumed retries")
	}
}

func TestFaultPoisonPropagationDiamond(t *testing.T) {
	// A → {B, C} → D. A fails permanently; B, C, D must be cancelled
	// without their bodies ever executing, and all must resolve with
	// ErrPoisoned naming A.
	rt := New()
	rec := obs.NewRecorder()
	rt.DefaultSession().SetRecorder(rec)
	r := region.New("v", index.NewSpace("D", 8))
	var ran atomic.Int64
	body := func() float64 { ran.Add(1); return 1 }

	rt.DefaultSession().Launch(TaskSpec{
		Name: "A",
		Refs: []region.Ref{ref(r, 0, 7, region.WriteDiscard)},
		Run:  func() float64 { panic("root cause") },
	})
	b := rt.DefaultSession().Launch(TaskSpec{
		Name: "B",
		Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
		Run:  body,
	})
	c := rt.DefaultSession().Launch(TaskSpec{
		Name: "C",
		Refs: []region.Ref{ref(r, 4, 7, region.ReadWrite)},
		Run:  body,
	})
	d := rt.DefaultSession().Launch(TaskSpec{
		Name: "D",
		Refs: []region.Ref{ref(r, 0, 7, region.ReadOnly)},
		Run:  body,
	})
	rt.Drain()

	if ran.Load() != 0 {
		t.Fatalf("%d poisoned bodies executed, want 0", ran.Load())
	}
	for name, f := range map[string]*Future{"B": b, "C": c, "D": d} {
		if !math.IsNaN(f.Value()) {
			t.Fatalf("%s Value = %g, want NaN", name, f.Value())
		}
		err := f.Err()
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("%s Err = %v, want ErrPoisoned", name, err)
		}
		if !strings.Contains(err.Error(), "root cause") {
			t.Fatalf("%s poison error %v does not name the root failure", name, err)
		}
	}
	st := rt.Stats()
	if st.Failed != 1 || st.Poisoned != 3 {
		t.Fatalf("Stats = %+v, want 1 failed and 3 poisoned", st)
	}
	// Err reports the root failure once, not once per cancelled successor.
	if err := rt.Err(); err == nil || strings.Count(err.Error(), "root cause") != 1 {
		t.Fatalf("Err = %v", err)
	}
	// Poisoned tasks record zero-duration spans with the poisoned outcome.
	var poisonedSpans int
	for _, s := range rec.Spans() {
		if s.Outcome == obs.OutcomePoisoned {
			poisonedSpans++
			if s.Start != s.End || s.Worker != -1 {
				t.Fatalf("poisoned span = %+v, want zero duration off-worker", s)
			}
		}
	}
	if poisonedSpans != 3 {
		t.Fatalf("poisoned spans = %d, want 3", poisonedSpans)
	}
}

func TestFaultPoisonClearedByRecovery(t *testing.T) {
	// A retryable task that recovers must NOT poison its successors.
	rt := New()
	rt.DefaultSession().SetMaxAttempts(2)
	r := region.New("v", index.NewSpace("D", 4))
	data := r.Data()
	var first atomic.Bool
	rt.DefaultSession().Launch(TaskSpec{
		Name:      "flaky-writer",
		Retryable: true,
		Refs:      []region.Ref{ref(r, 0, 3, region.WriteDiscard)},
		Run: func() float64 {
			if first.CompareAndSwap(false, true) {
				panic("transient")
			}
			for i := range data {
				data[i] = 2
			}
			return 0
		},
	})
	sum := rt.DefaultSession().Launch(TaskSpec{
		Name: "reader",
		Refs: []region.Ref{ref(r, 0, 3, region.ReadOnly)},
		Run: func() float64 {
			var s float64
			for _, v := range data {
				s += v
			}
			return s
		},
	})
	rt.Drain()
	if got := sum.Value(); got != 8 {
		t.Fatalf("reader = %g, want 8 (recovered writer's data)", got)
	}
	if err := sum.Err(); err != nil {
		t.Fatalf("reader Err = %v", err)
	}
	if rt.Stats().Poisoned != 0 {
		t.Fatal("recovery must not poison successors")
	}
}

func TestFaultErrAggregatesDistinctFailures(t *testing.T) {
	// Independent failures (disjoint regions, no poisoning between them)
	// must all surface through the joined Err.
	rt := New()
	r := region.New("v", index.NewSpace("D", 30))
	for i := 0; i < 3; i++ {
		msg := "independent-" + string(rune('a'+i))
		lo := int64(i * 10)
		rt.DefaultSession().Launch(TaskSpec{
			Name: "f",
			Refs: []region.Ref{ref(r, lo, lo+9, region.ReadWrite)},
			Run:  func() float64 { panic(msg) },
		})
	}
	rt.Drain()
	err := rt.Err()
	if err == nil {
		t.Fatal("Err = nil")
	}
	for _, want := range []string{"independent-a", "independent-b", "independent-c"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Err %v is missing %q", err, want)
		}
	}
	if rt.Stats().Failed != 3 {
		t.Fatalf("Failed = %d", rt.Stats().Failed)
	}
}

func TestFaultInjectorDeterministicThroughRuntime(t *testing.T) {
	// Same seed, same single-threaded launch order ⇒ the same tasks fail.
	run := func() []bool {
		rt := New()
		rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 5, PanicRate: 0.3}))
		r := region.New("v", index.NewSpace("D", 4))
		var futs []*Future
		for i := 0; i < 40; i++ {
			futs = append(futs, rt.DefaultSession().Launch(TaskSpec{
				Name: "t",
				Refs: []region.Ref{ref(r, 0, 3, region.ReadWrite)},
				Run:  func() float64 { return 1 },
			}))
		}
		rt.Drain()
		out := make([]bool, len(futs))
		for i, f := range futs {
			out[i] = f.Err() != nil // failed or poisoned
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at task %d", i)
		}
	}
	var failures int
	for _, bad := range a {
		if bad {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("PanicRate 0.3 over 40 tasks injected nothing")
	}
}

func TestFaultInjectedNaNIsSilent(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1}))
	var ran atomic.Bool
	f := rt.DefaultSession().Launch(TaskSpec{Name: "t", Run: func() float64 { ran.Store(true); return 4 }})
	rt.Drain()
	if !ran.Load() {
		t.Fatal("NaN corruption must still run the body")
	}
	if !math.IsNaN(f.Value()) {
		t.Fatalf("Value = %g, want corrupted NaN", f.Value())
	}
	if f.Err() != nil || rt.Err() != nil {
		t.Fatal("silent corruption must not raise an error")
	}
}

func TestFaultInjectedPanicRecoversViaRetry(t *testing.T) {
	// Non-sticky injected panics fire only on attempt 0, so a retryable
	// task recovers on its first retry.
	rt := New()
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, PanicRate: 1}))
	rt.DefaultSession().SetMaxAttempts(2)
	f := rt.DefaultSession().Launch(TaskSpec{Name: "t", Retryable: true, Run: func() float64 { return 6 }})
	rt.Drain()
	if got := f.Value(); got != 6 {
		t.Fatalf("Value = %g, want 6 after clean retry", got)
	}
	if rt.Stats().Retries != 1 {
		t.Fatalf("Retries = %d, want 1", rt.Stats().Retries)
	}
}

func TestFaultStickyPanicDefeatsRetry(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, PanicRate: 1, Sticky: true}))
	rt.DefaultSession().SetMaxAttempts(3)
	f := rt.DefaultSession().Launch(TaskSpec{Name: "t", Retryable: true, Run: func() float64 { return 6 }})
	rt.Drain()
	if !math.IsNaN(f.Value()) {
		t.Fatal("sticky fault must re-fire on every attempt")
	}
	if rt.Stats().Failed != 1 {
		t.Fatalf("Failed = %d", rt.Stats().Failed)
	}
}

func TestFaultWatchdogFlagsStraggler(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetWatchdog(5 * time.Millisecond)
	f := rt.DefaultSession().Launch(TaskSpec{
		Name: "slow",
		Run: func() float64 {
			time.Sleep(60 * time.Millisecond)
			return 9
		},
	})
	rt.DefaultSession().Launch(TaskSpec{Name: "fast", Run: func() float64 { return 1 }})
	rt.Drain()
	if f.Value() != 9 {
		t.Fatal("straggler must still complete")
	}
	if got := rt.Stats().Stragglers; got != 1 {
		t.Fatalf("Stragglers = %d, want 1", got)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("straggler flag must not be an error: %v", err)
	}
}

// A straggler counts in the session that launched it and in no other:
// a served job reads its own stragglers from its SessionStats.
func TestFaultWatchdogCountsStragglerInItsOwnSession(t *testing.T) {
	rt := New()
	slow, fast := rt.NewSession("slow"), rt.NewSession("fast")
	defer slow.Close()
	defer fast.Close()
	slow.SetWatchdog(5 * time.Millisecond)
	fast.SetWatchdog(5 * time.Millisecond)
	slow.Launch(TaskSpec{Name: "slow", Run: func() float64 {
		time.Sleep(60 * time.Millisecond)
		return 0
	}})
	fast.Launch(TaskSpec{Name: "fast", Run: func() float64 { return 1 }})
	slow.Drain()
	fast.Drain()
	if got := slow.Stats().Stragglers; got != 1 {
		t.Errorf("slow session: Stragglers = %d, want 1", got)
	}
	if got := fast.Stats().Stragglers; got != 0 {
		t.Errorf("neighbour session: Stragglers = %d, want 0", got)
	}
	if got := rt.Stats().Stragglers; got != 1 {
		t.Errorf("runtime: Stragglers = %d, want 1", got)
	}
}

func TestFaultInjectedStallTriggersWatchdog(t *testing.T) {
	rt := New()
	rt.DefaultSession().SetWatchdog(5 * time.Millisecond)
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{
		Seed: 1, StallRate: 1, StallFor: 40 * time.Millisecond,
	}))
	f := rt.DefaultSession().Launch(TaskSpec{Name: "t", Run: func() float64 { return 2 }})
	rt.Drain()
	if f.Value() != 2 {
		t.Fatal("stalled task must still produce its value")
	}
	if rt.Stats().Stragglers == 0 {
		t.Fatal("injected stall past the budget was not flagged")
	}
}
