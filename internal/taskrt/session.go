package taskrt

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/region"
)

// A Session scopes a client's launches within a shared runtime. The
// runtime multiplexes many sessions over one worker pool and one
// dependence engine; everything that is *about the client* rather than
// about the machine lives on the session:
//
//   - the error window: permanent failures of tasks the session launched
//     accumulate on the session (bounded, clearable), so one tenant's
//     fault never pollutes another tenant's Err(),
//   - the poison ledger and quiescence window: a failure is "handled"
//     once the session that launched it drains, independent of whether
//     the runtime as a whole ever goes idle (a long-running server
//     never does),
//   - phase labels (with an optional per-session prefix, so spans from
//     concurrent solves stay attributable),
//   - trace memoization scopes and templates,
//   - the fault injector and observability recorder,
//   - per-session launch statistics and Drain.
//
// Sessions sharing a runtime must reference disjoint regions (separate
// planners guarantee this); read-only sharing is also safe. Methods on
// one session follow the runtime's existing contract: Launch and
// LaunchBatch are safe for concurrent use, trace scopes assume a single
// launching goroutine per session.
//
// Every runtime owns a default session (DefaultSession); the runtime's
// legacy session-scoped methods (SetPhase, Err, BeginTrace, ...) operate
// on it, so single-tenant clients keep working unchanged.
type Session struct {
	rt     *Runtime
	name   string
	prefix string // applied to SetPhase labels; "" for the default session

	// wg tracks the session's own in-flight tasks, so Drain waits for
	// exactly this session's work while other tenants keep running.
	wg sync.WaitGroup

	// Everything below is guarded by rt.mu: the launch and completion
	// paths already hold it where these fields are touched, so session
	// scoping adds no locking to the hot path.
	phase       string
	errs        []error
	errsDropped int64
	inflight    int64
	failed      map[int64]error
	stats       SessionStats
	retry       RetryPolicy
	watchdog    time.Duration
	injector    *fault.Injector
	rec         *obs.Recorder
	traces      map[string]*traceTmpl
	trace       *activeTrace
	atScratch   *activeTrace
	atEpoch     int64
	closed      bool
}

// SessionStats counts one session's runtime activity.
type SessionStats struct {
	// Launched is the number of tasks the session launched.
	Launched int64
	// DepEdges is the number of dependence edges among them. Sessions
	// with disjoint regions discover no cross-session edges, which is
	// the no-false-serialization property multi-tenant tests assert.
	DepEdges int64
	// Failed counts the session's permanent task failures, Retries its
	// re-execution attempts, Poisoned its cancelled successors, and
	// Corrupted its silently corrupted task outputs.
	Failed, Retries, Poisoned, Corrupted int64
	// ErrsDropped counts permanent failures evicted from the bounded
	// error window (the joined Err reports at most maxSessionErrs).
	ErrsDropped int64
}

// maxSessionErrs bounds one session's error window. A long-running
// session under sustained faults keeps the most recent failures instead
// of accumulating every failure in history; SessionStats.ErrsDropped
// counts the evictions.
const maxSessionErrs = 64

// DefaultSession returns the runtime's built-in session, the one the
// runtime-level Launch/SetPhase/Err/BeginTrace methods operate on.
func (rt *Runtime) DefaultSession() *Session { return rt.def }

// NewSession registers a new session named name. A non-empty name
// becomes a "name/" prefix on the session's phase labels, so spans and
// graph nodes from concurrent sessions stay attributable.
func (rt *Runtime) NewSession(name string) *Session {
	s := &Session{
		rt:     rt,
		name:   name,
		failed: make(map[int64]error),
		traces: make(map[string]*traceTmpl),
	}
	if name != "" {
		s.prefix = name + "/"
	}
	rt.mu.Lock()
	rt.sessions = append(rt.sessions, s)
	rt.mu.Unlock()
	return s
}

// Sessions returns the number of live (unclosed) sessions, the default
// session included.
func (rt *Runtime) Sessions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.sessions)
}

// Name returns the session's name ("" for the default session).
func (s *Session) Name() string { return s.name }

// Runtime returns the runtime the session launches into.
func (s *Session) Runtime() *Runtime { return s.rt }

// Close unregisters the session: its error window, trace templates, and
// ledger are released, and its errors stop contributing to the
// runtime-level Err. Close does not wait for in-flight tasks — call
// Drain first. Closing the default session or closing twice is a no-op.
func (s *Session) Close() {
	rt := s.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s.closed || s == rt.def {
		return
	}
	s.closed = true
	for i, t := range rt.sessions {
		if t == s {
			rt.sessions = append(rt.sessions[:i], rt.sessions[i+1:]...)
			break
		}
	}
	s.errs = nil
	s.traces = nil
	s.trace = nil
	s.atScratch = nil
}

// Launch submits a task under this session. See Runtime.Launch.
func (s *Session) Launch(spec TaskSpec) *Future { return s.rt.launch(s, spec) }

// LaunchBatch submits a fused batch under this session. See
// Runtime.LaunchBatch.
func (s *Session) LaunchBatch(specs []TaskSpec) []*Future { return s.rt.launchBatch(s, specs) }

// IndexLaunch launches one point task per color under this session. See
// Runtime.IndexLaunch.
func (s *Session) IndexLaunch(n int, point func(color int) TaskSpec) []*Future {
	specs := make([]TaskSpec, n)
	for c := 0; c < n; c++ {
		specs[c] = point(c)
	}
	return s.LaunchBatch(specs)
}

// SetPhase labels the session's subsequently launched tasks with a
// solver-phase name, prefixed with the session name for non-default
// sessions. Specs carrying their own Phase override it.
func (s *Session) SetPhase(label string) {
	s.rt.mu.Lock()
	if label == "" {
		s.phase = s.prefix
	} else {
		s.phase = s.prefix + label
	}
	s.rt.mu.Unlock()
}

// SetFaultInjector installs a fault injector consulted once per launch
// of this session only — one tenant's chaos plan never fires in
// another tenant's tasks. A nil injector disables injection.
func (s *Session) SetFaultInjector(in *fault.Injector) {
	s.rt.mu.Lock()
	s.injector = in
	s.rt.mu.Unlock()
}

// SetRetryPolicy bounds re-execution of the session's retryable task
// bodies. See Runtime.SetRetryPolicy.
func (s *Session) SetRetryPolicy(p RetryPolicy) {
	s.rt.mu.Lock()
	s.retry = p
	s.rt.mu.Unlock()
}

// SetWatchdog flags this session's tasks running past budget as
// stragglers. See Runtime.SetWatchdog.
func (s *Session) SetWatchdog(budget time.Duration) {
	s.rt.mu.Lock()
	s.watchdog = budget
	s.rt.mu.Unlock()
}

// FaultsActive reports whether the session has a fault injector.
func (s *Session) FaultsActive() bool {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.injector != nil
}

// SetRecorder attaches an observability recorder to the session: tasks
// it launches from now on record spans and failures there. A nil
// recorder disables recording.
func (s *Session) SetRecorder(r *obs.Recorder) {
	s.rt.mu.Lock()
	s.rec = r
	s.rt.mu.Unlock()
}

// Recorder returns the session's recorder, or nil.
func (s *Session) Recorder() *obs.Recorder {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.rec
}

// Drain blocks until every task this session launched has completed,
// retried, or been cancelled — other sessions' work is not waited on.
// A drained session's failures count as handled (the client can see them
// through Err), so Drain is also what clears the poison ledger: what is
// launched afterwards starts from a clean slate.
func (s *Session) Drain() {
	s.wg.Wait()
	s.rt.mu.Lock()
	s.forgetHandledLocked()
	s.rt.mu.Unlock()
}

// forgetHandledLocked clears the poison ledger of a session with nothing
// in flight. It must only run at a point the session's client chose to
// synchronize at: clearing whenever the last task happens to retire
// would let a failure that completes between two launches of one sweep
// go unnoticed by the second. Called with rt.mu held.
func (s *Session) forgetHandledLocked() {
	if s.inflight == 0 {
		clear(s.failed)
	}
}

// Err joins the session's error window — its permanent task failures
// since the last ClearErrs, newest window of at most maxSessionErrs —
// or nil. Other sessions' failures never appear here. Call Drain first
// for a complete picture.
func (s *Session) Err() error {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return errors.Join(s.errs...)
}

// ClearErrs empties the session's error window and returns how many
// failures it held (evicted ones included). Resilient drivers call it
// once a rollback has provably recovered — a verified checkpoint or a
// true-residual-verified convergence — so a recovered fault stops
// reporting as a live error for the rest of a long-running session.
func (s *Session) ClearErrs() int64 {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	n := int64(len(s.errs)) + s.errsDropped
	s.errs = nil
	s.errsDropped = 0
	return n
}

// pushErr appends a permanent failure to the bounded error window.
// Caller holds rt.mu.
func (s *Session) pushErr(err error) {
	if len(s.errs) >= maxSessionErrs {
		copy(s.errs, s.errs[1:])
		s.errs = s.errs[:maxSessionErrs-1]
		s.errsDropped++
		s.stats.ErrsDropped++
	}
	s.errs = append(s.errs, err)
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.stats
}

// BeginTrace opens a trace scope on this session. Trace templates are
// per-session: concurrent sessions replaying the same solver never
// share or invalidate each other's templates. Interleaved launches from
// other sessions do break the gapless-adjacency precondition of replay
// (task IDs are global), demoting instances to full analysis — a
// performance fallback, never a correctness hazard. See
// Runtime.BeginTrace for the template lifecycle.
func (s *Session) BeginTrace(key string) {
	rt := s.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s.trace != nil {
		panic("taskrt: traces must not nest")
	}
	tmpl := s.traces[key]
	if tmpl == nil {
		tmpl = &traceTmpl{}
		s.traces[key] = tmpl
	}
	at := s.atScratch
	if at == nil {
		at = &activeTrace{}
		s.atScratch = at
	}
	s.atEpoch++
	at.key = key
	at.tmpl = tmpl
	at.base = rt.nextID
	at.n = 0
	at.watermark = region.LastID()
	at.fresh = tmpl.freshBufs[tmpl.flip][:0]
	if at.freshIdx != nil {
		clear(at.freshIdx)
	}
	if at.prevIdx != nil {
		clear(at.prevIdx)
	}
	at.cand = nil // escapes into the template at EndTrace; never reused
	at.failed = false
	adjacent := tmpl.lastOK && tmpl.lastBase+int64(tmpl.lastLen) == rt.nextID
	switch {
	case !adjacent:
		// A gap (foreign launches, another key, a failed instance)
		// invalidates captured edges: ancient entries may have been
		// shadowed and prev offsets no longer line up. Re-establish
		// adjacency with one analyzed instance, then recalibrate.
		at.mode = trRecord
		tmpl.hasDeps = false
	case !tmpl.hasDeps:
		at.mode = trCalibrate
	default:
		at.mode = trReplay
	}
	if at.mode != trRecord && len(tmpl.lastFresh) > 0 {
		if at.prevIdx == nil {
			at.prevIdx = make(map[region.ID]int, len(tmpl.lastFresh))
		}
		for j, id := range tmpl.lastFresh {
			at.prevIdx[id] = j
		}
	}
	s.trace = at
}

// EndTrace closes the session's current trace scope. See
// Runtime.EndTrace.
func (s *Session) EndTrace() {
	rt := s.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s.trace == nil {
		panic("taskrt: EndTrace without BeginTrace")
	}
	at := s.trace
	s.trace = nil
	tmpl := at.tmpl

	if at.mode == trReplay {
		if at.failed {
			// traceObserve already dropped the template.
			rt.stats.TraceMisses++
			return
		}
		if at.n != len(tmpl.tasks) {
			// Shorter instance: every spliced launch was individually
			// valid, but this instance cannot anchor the next replay.
			tmpl.lastOK = false
			rt.stats.TraceMisses++
			return
		}
		tmpl.lastOK = true
		tmpl.lastBase = at.base
		tmpl.lastLen = at.n
		tmpl.lastFresh = at.fresh
		tmpl.freshBufs[tmpl.flip] = at.fresh
		tmpl.flip ^= 1
		rt.stats.TraceHits++
		return
	}

	rt.stats.TraceMisses++
	calibrated := at.mode == trCalibrate && !at.failed && at.n == len(tmpl.tasks)
	// The candidate becomes the template: identical to the old one when
	// the instance matched (modulo stable→prev upgrades), the new truth
	// when it did not.
	tmpl.tasks = at.cand
	tmpl.hasDeps = calibrated
	tmpl.lastOK = true
	tmpl.lastBase = at.base
	tmpl.lastLen = at.n
	tmpl.lastFresh = at.fresh
	tmpl.freshBufs[tmpl.flip] = at.fresh
	tmpl.flip ^= 1
}

// String summarizes the session.
func (s *Session) String() string {
	st := s.Stats()
	name := s.name
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("session(%s: %d tasks, %d edges)", name, st.Launched, st.DepEdges)
}
