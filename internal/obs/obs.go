package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one executed task: what it was, where it ran, and when. Launch
// is when the task was submitted, Start when a worker picked it up, End
// when it finished; Start−Launch is the queue latency (dependence wait
// plus scheduling delay), End−Start the execution time.
type Span struct {
	// ID is the task's graph ID (dense, matching taskrt.Node.ID).
	ID int64
	// Name labels the task kind ("matmul", "dot.partial", ...).
	Name string
	// Phase is the solver-phase label active at launch ("cg.step", ...).
	Phase string
	// Proc is the simulated processor the task was placed on.
	Proc int
	// Worker identifies the executor: the goroutine-pool slot for real
	// spans, the simulated processor for simulated spans.
	Worker int
	// Launch, Start, End are seconds since the recorder's epoch.
	Launch, Start, End float64
	// Outcome classifies how the task ended: OutcomeOK (empty) for a
	// clean run, OutcomeRetried for success after re-execution,
	// OutcomeFailed for a permanent failure, OutcomePoisoned for a task
	// cancelled because an upstream task failed (zero-duration span).
	Outcome string
}

// Span outcome values.
const (
	OutcomeOK       = ""
	OutcomeRetried  = "retried"
	OutcomeFailed   = "failed"
	OutcomePoisoned = "poisoned"
)

// Duration returns the span's execution time in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// QueueLatency returns the time the task spent between launch and
// execution in seconds.
func (s Span) QueueLatency() float64 { return s.Start - s.Launch }

// Recorder collects spans from a concurrent execution. All methods are
// safe for concurrent use; recording is one short critical section per
// task.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Now returns seconds elapsed since the recorder's epoch.
func (r *Recorder) Now() float64 {
	return time.Since(r.epoch).Seconds()
}

// Record appends one completed span.
func (r *Recorder) Record(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a snapshot of the recorded spans, sorted by task ID.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counter is a lightweight atomic event counter.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Timer accumulates elapsed wall time across concurrent sections.
type Timer struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Observe adds one completed section of duration d.
func (t *Timer) Observe(d time.Duration) {
	t.ns.Add(int64(d))
	t.count.Add(1)
}

// ObserveN adds n sections totalling duration d, so a batched code path
// can attribute one measured wall time across its members with two
// atomic adds instead of 2n.
func (t *Timer) ObserveN(d time.Duration, n int64) {
	t.ns.Add(int64(d))
	t.count.Add(n)
}

// TimerSnapshot is a point-in-time copy of a Timer, safe to pass around
// after the timer keeps accumulating.
type TimerSnapshot struct {
	Total time.Duration
	Count int64
}

// Snapshot returns the timer's current totals.
func (t *Timer) Snapshot() TimerSnapshot {
	return TimerSnapshot{Total: time.Duration(t.ns.Load()), Count: t.count.Load()}
}

// Mean returns the average observed duration, or 0 with no observations.
func (s TimerSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}
