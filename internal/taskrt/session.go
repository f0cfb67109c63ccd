package taskrt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/region"
)

// A Session scopes a client's launches within a shared runtime. The
// runtime multiplexes many sessions over one run queue; everything that
// is *about the client* rather than about the machine lives on the
// session:
//
//   - the program: task IDs (dense from 0, the session's own), the
//     dependence engine — the access history and the table of live tasks
//     launches are analyzed against and wired onto — and the retained
//     graph. Close releases all of it, so a served job's history dies
//     with its session,
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
// planners guarantee this); read-only sharing is also safe — which is
// why no dependence can cross sessions and each session can own its
// program outright. Methods on one session follow the runtime's existing
// contract: Launch and LaunchBatch are safe for concurrent use, trace
// scopes assume a single launching goroutine per session.
//
// Locking: one lock per session. A launch holds mu from ID assignment
// through wiring, a worker takes it to read the attempt cap and to
// retire a task, and independent sessions never touch the same lock.
// The lock order is Session.mu → Runtime.mu (the leaf lock over the
// session list), never the reverse: runtime-wide calls (Drain, Err)
// snapshot the session list, release Runtime.mu, and only then lock each
// session.
//
// Every runtime owns a default session (DefaultSession), the one a
// single-tenant client launches through.
type Session struct {
	rt     *Runtime
	name   string
	prefix string // applied to SetPhase labels; "" for the default session

	// mu guards everything below; idle (on mu) is signalled whenever
	// inflight drops to zero, so Drain waits for exactly this session's
	// work while other tenants keep running — and, unlike a WaitGroup,
	// may race launches.
	mu          sync.Mutex
	idle        sync.Cond
	nextID      int64 // the ID the next launched task gets
	graph       Graph
	depArena    []int64 // backs graph's dep slices (arenaCopy)
	hist        map[region.ID]*histShard
	tasks       map[int64]*taskState // incomplete tasks only
	phase       string
	errs        []error
	errsDropped int64
	inflight    int64
	failed      map[int64]error
	stats       SessionStats
	maxAttempts int
	watchdog    time.Duration
	injector    *fault.Injector
	rec         *obs.Recorder
	traces      map[string]*traceTmpl
	trace       *activeTrace
	atScratch   *activeTrace
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

// DefaultSession returns the runtime's built-in session, the launch API
// of a single-client program. It cannot be closed.
func (rt *Runtime) DefaultSession() *Session { return rt.def }

// NewSession registers a new session named name. A non-empty name
// becomes a "name/" prefix on the session's phase labels, so spans and
// graph nodes from concurrent sessions stay attributable.
func (rt *Runtime) NewSession(name string) *Session {
	s := newSession(rt, name)
	rt.mu.Lock()
	rt.sessions = append(rt.sessions, s)
	rt.tenants.Store(int32(len(rt.sessions) - 1))
	rt.mu.Unlock()
	return s
}

func newSession(rt *Runtime, name string) *Session {
	s := &Session{
		rt:     rt,
		name:   name,
		hist:   make(map[region.ID]*histShard),
		tasks:  make(map[int64]*taskState),
		failed: make(map[int64]error),
		traces: make(map[string]*traceTmpl),
	}
	s.idle.L = &s.mu
	if name != "" {
		s.prefix = name + "/"
	}
	return s
}

// Sessions returns the number of live (unclosed) sessions, the default
// session included.
func (rt *Runtime) Sessions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.sessions)
}

// Runtime returns the runtime the session launches into.
func (s *Session) Runtime() *Runtime { return s.rt }

// Close unregisters the session: its dependence history, live-task
// table, graph, error window, and trace templates are released, and its
// errors stop contributing to the runtime-level Err. Close does not wait for
// in-flight tasks — they finish, and the session's own Drain still waits
// for them, but Runtime.Drain no longer sees the session; call Drain
// first. Launching or opening a trace on a closed session panics.
// Closing the default session or closing twice is a no-op.
func (s *Session) Close() {
	rt := s.rt
	s.mu.Lock()
	if s.closed || s == rt.def {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.hist = nil
	s.tasks = nil // in-flight tasks reach their successors directly
	s.graph, s.depArena = Graph{}, nil
	s.errs = nil
	s.traces = nil
	s.trace = nil
	s.atScratch = nil
	s.mu.Unlock()

	rt.mu.Lock()
	if i := slices.Index(rt.sessions, s); i >= 0 {
		rt.sessions = slices.Delete(rt.sessions, i, i+1)
	}
	rt.tenants.Store(int32(len(rt.sessions) - 1))
	rt.mu.Unlock()
}

// panicClosed rejects a launch or trace scope on a closed session: its
// history is gone, and quietly rebuilding it would run tasks whose
// failures no Runtime.Err ever reports.
func (s *Session) panicClosed() {
	panic(fmt.Sprintf("taskrt: launch on closed session %q", s.name))
}

// Launch submits a task under this session. Dependence analysis against
// the session's previously launched tasks happens immediately — or is
// spliced from a memoized trace template when the launch replays a
// recorded trace — and execution happens asynchronously once all
// dependences complete. The returned future delivers Run's result (nil
// for a Detached spec).
func (s *Session) Launch(spec TaskSpec) *Future {
	specs, futs := [1]TaskSpec{spec}, [1]*Future{}
	s.launch(specs[:], futs[:])
	return futs[0]
}

// LaunchBatch submits a slice of tasks as one fused sweep under this
// session: the session lock is taken once and one contiguous block of
// task IDs is reserved for the whole batch. Dependences among batch
// members work exactly as under individual launches. Returns the
// futures in spec order, or a nil slice when every spec is Detached —
// the zero-allocation fast path for solver sweeps that never read their
// futures.
func (s *Session) LaunchBatch(specs []TaskSpec) []*Future {
	var futs []*Future
	for i := range specs {
		if !specs[i].Detached {
			futs = make([]*Future, len(specs))
			break
		}
	}
	s.launch(specs, futs)
	return futs
}

// SetPhase labels the session's subsequently launched tasks with a
// solver-phase name (recorded on Node.Phase and in spans), prefixed with
// the session name for non-default sessions. Specs carrying their own
// Phase override it.
func (s *Session) SetPhase(label string) {
	s.mu.Lock()
	if label == "" {
		s.phase = s.prefix
	} else {
		s.phase = s.prefix + label
	}
	s.mu.Unlock()
}

// SetFaultInjector installs a fault injector consulted once per launch
// of this session only — one tenant's chaos plan never fires in
// another tenant's tasks — under the launch lock, so a single-threaded
// launcher gets a deterministic fault schedule. A nil injector disables
// injection.
func (s *Session) SetFaultInjector(in *fault.Injector) {
	s.mu.Lock()
	s.injector = in
	s.mu.Unlock()
}

// SetMaxAttempts bounds re-execution of the session's retryable task
// bodies: n is the total number of attempts per task, first run
// included. A task whose body panics is re-run at once, on the same
// worker, until it succeeds or n attempts have failed, at which point
// the failure becomes permanent. Values below 2 disable retry. The
// bound applies to tasks executed after the call.
func (s *Session) SetMaxAttempts(n int) {
	s.mu.Lock()
	s.maxAttempts = n
	s.mu.Unlock()
}

// SetWatchdog flags this session's tasks whose execution exceeds
// budget: each one increments Stats.Stragglers. The task itself is not
// interrupted (goroutines cannot be killed safely); the count is the
// signal a scheduler or operator acts on. The budget covers one
// execution attempt and is re-armed per retry. A zero budget disables
// the watchdog.
func (s *Session) SetWatchdog(budget time.Duration) {
	s.mu.Lock()
	s.watchdog = budget
	s.mu.Unlock()
}

// FaultsActive reports whether the session has a fault injector. Planner
// layers use it to skip building per-launch corruption hooks on clean
// runs.
func (s *Session) FaultsActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injector != nil
}

// SetRecorder attaches an observability recorder to the session: every
// task it launches from now on records a wall-clock span (launch, start,
// end, worker, outcome). A nil recorder disables recording. Tasks
// launched before the call are not back-filled.
func (s *Session) SetRecorder(r *obs.Recorder) {
	s.mu.Lock()
	s.rec = r
	s.mu.Unlock()
}

// Drain blocks until every task this session launched has completed,
// retried, or been cancelled — other sessions' work is not waited on.
// A drained session's failures count as handled (the client can see them
// through Err), so Drain is also what clears the poison ledger: what is
// launched afterwards starts from a clean slate. The ledger is cleared
// only here, at a point the session's client chose to synchronize at:
// clearing whenever the last task happens to retire would let a failure
// that completes between two launches of one sweep go unnoticed by the
// second.
func (s *Session) Drain() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	clear(s.failed)
	s.mu.Unlock()
}

// Err joins the session's error window — its permanent task failures
// since the last ClearErrs, newest window of at most maxSessionErrs —
// or nil. Other sessions' failures never appear here. Call Drain first
// for a complete picture.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.errs...)
}

// ClearErrs empties the session's error window and returns how many
// failures it held (evicted ones included). Resilient drivers call it
// once a rollback has provably recovered — a verified checkpoint or a
// true-residual-verified convergence — so a recovered fault stops
// reporting as a live error for the rest of a long-running session.
func (s *Session) ClearErrs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.errs)) + s.errsDropped
	s.errs = nil
	s.errsDropped = 0
	return n
}

// pushErr appends a permanent failure to the bounded error window.
// Caller holds s.mu.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Graph returns a snapshot of the task graph the session recorded (see
// Runtime.SetGraphRetention): node i is the session's task i, and its
// edges name the session's own earlier tasks. Call Drain first if the
// graph must reflect a quiescent state. The snapshot is O(1): nodes are
// immutable once recorded, so it shares their storage (callers must not
// modify it) and is unaffected by later launches. A batch is recorded
// under the launch's critical section, so a snapshot never holds part of
// one.
func (s *Session) Graph() Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Graph{Nodes: slices.Clip(s.graph.Nodes)}
}

// BeginTrace opens a trace scope on this session: the launches up to
// the matching EndTrace form one instance of the trace key. The first
// instance records a fingerprint, the second (if launched back to back
// with the first) validates it and captures dependence edges, and later
// back-to-back instances replay those edges without any dependence
// analysis. Any gap, mismatch, or differently-shaped instance falls back
// to full analysis automatically — a wrong trace scope costs
// performance, never correctness. Traces must not nest, and the launches
// inside a scope must come from a single goroutine.
//
// Trace templates and task IDs both belong to the session, so "back to
// back" means the session launched nothing between the two instances;
// launches of other sessions sharing the runtime are invisible to it.
func (s *Session) BeginTrace(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.panicClosed()
	}
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
	at.tmpl = tmpl
	at.base = s.nextID
	at.n = 0
	switch {
	case !tmpl.lastOK || tmpl.lastBase+int64(tmpl.lastLen) != s.nextID:
		// A gap (launches outside the scope, another key, a failed
		// instance) invalidates captured edges: ancient entries may have
		// been shadowed and prev offsets no longer line up. Re-establish
		// adjacency with one recorded instance, then recalibrate.
		at.mode = trRecord
		tmpl.tasks = tmpl.tasks[:0]
		tmpl.hasDeps = false
	case !tmpl.hasDeps:
		at.mode = trCalibrate
	default:
		at.mode = trReplay
	}
	s.trace = at
}

// EndTrace closes the session's current trace scope and files the
// instance's outcome: a full replay counts as a trace hit; everything
// else — the recording and calibrating instances, gaps, fallbacks, short
// instances — counts as a miss.
func (s *Session) EndTrace() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trace == nil {
		panic("taskrt: EndTrace without BeginTrace")
	}
	at, st := s.trace, &s.rt.stats
	s.trace = nil
	tmpl := at.tmpl
	switch {
	case at.mode == trReplay && at.n == len(tmpl.tasks):
		st.traceHits.Add(1)
	case at.mode == trReplay || at.mode == trFallback:
		// A fallback, or a shorter instance whose spliced launches were
		// each valid: either way it cannot anchor the next replay.
		st.traceMisses.Add(1)
		tmpl.lastOK = false
		return
	default:
		// Record or calibrate: the template now describes this instance
		// (a calibrating instance shorter than the template ends it).
		st.traceMisses.Add(1)
		tmpl.hasDeps = at.mode == trCalibrate && at.n == len(tmpl.tasks)
		tmpl.tasks = tmpl.tasks[:at.n]
	}
	tmpl.lastOK = true
	tmpl.lastBase = at.base
	tmpl.lastLen = at.n
}
