package taskrt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/region"
)

// ErrPoisoned marks a task that never executed because a task it
// transitively depends on failed permanently. Its future resolves to NaN
// with an error wrapping ErrPoisoned and naming the root failure.
var ErrPoisoned = errors.New("taskrt: task cancelled: upstream task failed")

// TaskSpec describes one task launch.
type TaskSpec struct {
	// Name labels the task kind for diagnostics and the recorded graph.
	Name string
	// Phase optionally labels the solver phase the task belongs to; an
	// empty Phase inherits the launching session's current phase
	// (Session.SetPhase).
	Phase string
	// Proc is the simulated processor the task is placed on.
	Proc int
	// Cost is the task's simulated compute time in seconds.
	Cost float64
	// Refs declares every piece of data the task touches. The runtime
	// derives dependences from these; a task must not touch data it does
	// not declare.
	Refs []region.Ref
	// Awaits lists the futures the task reads. The launch adds one
	// dependence edge to each future's task, carrying its Bytes, beside
	// the edges Refs derive; a predecessor reached both ways is one edge
	// carrying both byte counts. The futures must come from launches of
	// the same session; one no task produces (Resolved) adds no edge.
	Awaits []Await
	// Run performs the task's real computation and returns its scalar
	// result (delivered through the launch's Future). A nil Run records
	// the task in the graph without any real work.
	Run func() float64
	// Host marks the task as host-side future arithmetic (see Node.Host).
	Host bool
	// Retryable declares the body idempotent: it fully overwrites its
	// outputs and reads nothing it writes, so re-executing a failed
	// attempt is safe. Only retryable tasks participate in the runtime's
	// retry policy; a non-retryable failure is immediately permanent.
	Retryable bool
	// Detached skips creating a Future for the launch: the task's scalar
	// result is discarded on completion and Launch returns nil (a fully
	// detached LaunchBatch returns a nil slice). The bulk vector-update
	// launches of a solver iteration never read their futures; detaching
	// them removes the last allocation on the trace-replay launch path.
	Detached bool
	// Piece is 1 + the task's piece index for tasks that operate on one
	// piece of a partitioned vector, or 0 for tasks not associated with
	// one piece. The fault injector's piece filter keys on it.
	Piece int
	// Corrupt, when set, is invoked after a successful body run if the
	// injector chose a data-corruption fault (nan, bitflip, scale) for this
	// launch: it applies the corruption to the task's output region data.
	// Tasks without the hook have their scalar result corrupted instead.
	Corrupt func(fault.Injection)
}

// RetryPolicy bounds re-execution of retryable task bodies.
type RetryPolicy struct {
	// MaxAttempts is the total number of execution attempts per retryable
	// task (first run included). Values below 2 disable retry.
	MaxAttempts int
	// Backoff is the delay before re-execution, doubled each further
	// attempt. Zero retries immediately. The doubling is clamped (see
	// backoffDelay) so a large attempt budget cannot overflow the delay
	// into a huge or negative sleep.
	Backoff time.Duration
}

// maxBackoffDelay caps one retry sleep. Doubling stops here; an
// explicitly larger configured base Backoff is honored as-is.
const maxBackoffDelay = 30 * time.Second

// backoffDelay returns the clamped exponential-backoff delay before
// re-executing attempt+1: base doubled per completed attempt, capped so
// the shift can neither overflow time.Duration nor grow past
// maxBackoffDelay (or past the configured base, whichever is larger).
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	cap := maxBackoffDelay
	if base > cap {
		cap = base
	}
	// 2^30 × 1ns is already over a second; anything beyond the cap — and
	// any overflowed (non-positive) shift — clamps.
	if attempt > 30 {
		return cap
	}
	d := base << uint(attempt)
	if d <= 0 || d > cap {
		return cap
	}
	return d
}

// Stats counts runtime activity, exposed for tests and ablation studies.
type Stats struct {
	// Launched is the number of tasks launched.
	Launched int64
	// DepEdges is the number of dependence edges discovered.
	DepEdges int64
	// AnalysisScans is the number of history entries examined by the
	// interference analysis. Launches spliced from a memoized trace
	// perform no interference analysis and contribute nothing here.
	AnalysisScans int64
	// TraceReplays is the number of task launches spliced from a
	// memoized trace template instead of analyzed.
	TraceReplays int64
	// TraceHits counts trace instances replayed end to end from a
	// memoized template; TraceMisses counts instances that ran under
	// full analysis (recording, calibrating, or after a gap), and
	// TraceFallbacks counts instances that started replaying but hit a
	// fingerprint mismatch and fell back to analysis mid-instance.
	TraceHits, TraceMisses, TraceFallbacks int64
	// Failed is the number of tasks that failed permanently (the body
	// panicked and the retry budget, if any, was exhausted). Every
	// permanent failure is aggregated into Err; per-attempt records go to
	// the attached obs.Recorder.
	Failed int64
	// Retries is the number of re-execution attempts of retryable tasks.
	Retries int64
	// Poisoned is the number of tasks cancelled without executing because
	// an upstream task failed permanently.
	Poisoned int64
	// Stragglers is the number of tasks flagged by the watchdog for
	// exceeding the wall-clock budget.
	Stragglers int64
	// Corrupted is the number of tasks whose output data was silently
	// corrupted by an injected nan/bitflip/scale fault. No error is raised for
	// these; the counter exists so chaos tests can assert the corruption
	// actually landed.
	Corrupted int64
	// Spawned is the number of worker goroutines started. A worker that
	// finds work while it lingers is reused, so a solve whose steps follow
	// each other within the spin window spawns far fewer than one per step.
	Spawned int64
}

// counters is Stats as the runtime keeps it: one atomic per field, so
// sessions never share a lock to count.
type counters struct {
	launched, depEdges, analysisScans, traceReplays  atomic.Int64
	traceHits, traceMisses, traceFallbacks           atomic.Int64
	failed, retries, poisoned, stragglers, corrupted atomic.Int64
	spawned                                          atomic.Int64
}

// spinWindow is how long an idle worker lingers for work, and a future
// waiter spins for its value, before it sleeps. It is above the p90 of
// the wake-up it saves: a goroutine handed to a processor that had been
// idle for 2 ms started 77 / 92 / 126 µs later (p10 / p50 / p90) on a
// 2-vCPU Xeon VM with go1.24, longer than a whole served CG iteration.
// The price is paid by the network: Go polls it only from an idle
// processor (or every 10 ms), so a request that reaches a single-tenant
// server mid-solve waits for the solve (EXPERIMENTS.md, "A hot pool").
const spinWindow = 200 * time.Microsecond

// yieldEvery is how many polls a spinning goroutine makes between
// yields, so a goroutine readied onto its processor (the solver waking
// from a future, say) is never stuck behind it.
const yieldEvery = 64

// histEntry is one prior access recorded for interference analysis.
type histEntry struct {
	task   int64
	subset index.IntervalSet
	priv   region.Privilege
	// buf is the entry's private interval storage, reused every time a
	// writer shadow shrinks the subset so steady-state shrinking never
	// allocates.
	buf []index.Interval
}

// histShard holds one region's slice of the owning session's dependence
// history. Per-region work must happen in task-ID order (dependences may
// only point backward); the session lock a launch holds from ID
// assignment through wiring gives exactly that, so a shard needs no lock
// or queue of its own.
type histShard struct {
	entries []histEntry
	scratch []index.Interval // subtraction workspace, reused per shrink
}

// shrinkWriterShadow subtracts a new writer's subset from an older
// entry, reporting whether the entry is now fully shadowed (and should
// be dropped). The subtraction runs into the shard's scratch buffer and
// the result is copied into the entry's own reused storage, so the
// steady-state shrink — including the common full-shadow case, which
// produces nothing and copies nothing — is allocation-free.
func (sh *histShard) shrinkWriterShadow(e *histEntry, by index.IntervalSet) bool {
	res, scratch := e.subset.SubtractInto(by, sh.scratch[:0])
	sh.scratch = scratch
	ivs := res.Intervals()
	if len(ivs) == 0 {
		return true
	}
	if cap(e.buf) < len(ivs) {
		e.buf = make([]index.Interval, len(ivs), len(ivs)+4)
	}
	e.buf = append(e.buf[:0], ivs...)
	e.subset = index.WrapIntervals(e.buf)
	return false
}

// analyze records dependences of one reference of task id against the
// shard's history and updates the history. Returns the number of entries
// scanned.
func (sh *histShard) analyze(id int64, ref region.Ref, depBytes map[int64]int64) int {
	entries := sh.entries
	kept := entries[:0]
	scans := 0
	for _, e := range entries {
		scans++
		if e.task == id {
			// Another reference of the task being launched; a task never
			// depends on itself.
			kept = append(kept, e)
			continue
		}
		if region.Conflicts(e.priv, ref.Priv) && e.subset.Overlaps(ref.Subset) {
			n := depBytes[e.task]
			// Data flows along the edge only when the predecessor wrote
			// and the successor actually reads (RO/RW); WriteDiscard and
			// ReduceSum need ordering but no incoming accumulator data.
			if e.priv.Writes() && (ref.Priv == region.ReadOnly || ref.Priv == region.ReadWrite) {
				n += region.VectorBytesOf(e.subset.Intersect(ref.Subset))
			}
			depBytes[e.task] = n
		}
		// A new writer shadows the covered part of every older entry:
		// any later task conflicting there also conflicts with the new
		// writer, and ordering through it is transitive (and the new
		// writer holds the covered part's current data). Shrinking —
		// rather than only dropping fully-covered entries — keeps the
		// history bounded when writers touch pieces of a region that
		// long-lived readers span, and routes each future read to the
		// writer that actually produced each part.
		if ref.Priv.Writes() && e.subset.Overlaps(ref.Subset) {
			if sh.shrinkWriterShadow(&e, ref.Subset) {
				continue // fully shadowed
			}
		}
		kept = append(kept, e)
	}
	sh.entries = append(kept, histEntry{task: id, subset: ref.Subset, priv: ref.Priv})
	return scans
}

// record appends one reference of a trace-replayed task to the shard's
// history, applying the same writer-shadowing shrink as analyze but
// skipping the interference scan entirely — replay already knows the
// edges. Keeping the history current is what makes mid-instance
// fallback and post-trace launches see exactly the state a fully
// analyzed execution would have left.
func (sh *histShard) record(id int64, ref region.Ref) {
	if ref.Priv.Writes() {
		entries := sh.entries
		kept := entries[:0]
		for _, e := range entries {
			if e.task != id && e.subset.Overlaps(ref.Subset) {
				if sh.shrinkWriterShadow(&e, ref.Subset) {
					continue
				}
			}
			kept = append(kept, e)
		}
		sh.entries = kept
	}
	sh.entries = append(sh.entries, histEntry{task: id, subset: ref.Subset, priv: ref.Priv})
}

// taskState tracks an incomplete task's scheduling state. Name, phase,
// proc, and the recorder are copied out of the spec at launch so that
// execution and failure reporting never need a lock.
//
// taskStates are pooled: complete() recycles the state (and its owned
// scratch slices — deps, bytes, ready — whose capacity survives the
// round trip) unless noRecycle pins it for an async reader. A state is
// safe to recycle at the end of its own complete(): every successor was
// handed off under the session lock, the ID was unregistered, and
// execute() touches nothing after complete() returns.
type taskState struct {
	id        int64
	name      string
	phase     string
	proc      int
	run       func() float64
	future    *Future // nil for detached launches
	pending   int
	succs     []*taskState
	rec       *obs.Recorder
	sess      *Session // the session that launched the task
	launch    float64  // recorder time at launch (valid when rec != nil)
	retryable bool
	inj       fault.Injection
	corrupt   func(fault.Injection)
	poison    error // set under sess.mu before the task becomes ready
	noRecycle bool  // an async reader (watchdog) may outlive complete()

	// Per-launch scratch, owned by the state and reused across pool
	// round trips.
	deps   []int64      // discovered or spliced dependence edges
	bytes  []int64      // bytes flowing along deps (parallel slice)
	ready  []*taskState // successors released by this task's completion
	splice bool         // deps came from a trace template
	scans  int          // history entries examined by analysis
}

// launchScratch is the per-launch transient workspace, pooled on the
// runtime so a launch does not allocate it.
type launchScratch struct {
	depBytes map[int64]int64
	ready    []*taskState
}

// Runtime owns what is machine-wide: the run queue and its workers, the
// counters and the launch timers. A client's program — its task IDs,
// dependence engine, trace templates and retained graph — belongs to a
// Session and dies with it. Tasks are launched through a Session
// (DefaultSession for a single client, NewSession per tenant); the
// runtime itself has no launch methods. The zero value is not usable;
// call New.
//
// Drain, Err, Graph, and Stats are safe for concurrent use.
type Runtime struct {
	// stats are atomics: sessions never share a lock on the launch or
	// completion path.
	stats counters

	// mu is a leaf lock (taken after a Session.mu, never before one) over
	// the session list: def is the built-in session single-client
	// programs launch through, sessions every live session, def first.
	mu       sync.Mutex
	def      *Session
	sessions []*Session

	// retain controls graph retention (on by default): when off, launches
	// skip Node construction entirely, the zero-allocation configuration
	// for replay-dominated hot loops that never call Graph.
	retain atomic.Bool

	// The run queue: ready tasks in FIFO order (runq[runHead:]), drained
	// by at most maxWorkers goroutines that are spawned when work arrives.
	// A worker that finds the queue empty lingers for spinWindow, polling
	// queued, and exits if nothing arrives, so a runtime idle for longer
	// than the window owns no goroutine. live and lingering change only
	// under runMu; waiters read them lock-free. work is the pre-bound
	// worker entry point: `go rt.work()` hands the scheduler an existing
	// func value, where `go rt.worker()` would allocate a closure per
	// spawn.
	runMu           sync.Mutex
	runq            []*taskState
	runHead         int
	queued          atomic.Int64 // len(runq) - runHead, for lingering workers
	live, lingering atomic.Int32
	freeIDs         []int // worker IDs not in use, lowest on top
	maxWorkers      int
	work            func()

	// tenants is len(sessions) - 1, the open sessions other than the
	// default one, stored under mu for hot's lock-free read. The idle side
	// spins only while there is at most one: a spinning pool leaves no
	// processor idle to poll the network, and with two tenants solving
	// side by side that stalls every request until the monitor thread's
	// 10 ms poll (EXPERIMENTS.md, "A hot pool").
	tenants atomic.Int32

	tsPool sync.Pool // *taskState
	scPool sync.Pool // *launchScratch

	// Launch-path timers: wall time spent in Launch for analyzed versus
	// trace-spliced launches, surfaced through LaunchTiming.
	tAnalyzed, tSpliced obs.Timer
}

// arenaChunk is the dep-arena chunk size in int64 entries.
const arenaChunk = 4096

// New returns an empty runtime executing up to GOMAXPROCS tasks
// concurrently.
func New() *Runtime {
	rt := &Runtime{maxWorkers: runtime.GOMAXPROCS(0)}
	rt.retain.Store(true)
	for w := rt.maxWorkers - 1; w >= 0; w-- {
		rt.freeIDs = append(rt.freeIDs, w)
	}
	rt.work = rt.worker
	rt.def = newSession(rt, "")
	rt.sessions = []*Session{rt.def}
	rt.tsPool.New = func() any { return &taskState{} }
	rt.scPool.New = func() any {
		return &launchScratch{depBytes: make(map[int64]int64)}
	}
	return rt
}

// SetGraphRetention enables or disables recording of launched tasks into
// their sessions' graphs (on by default). Retention off removes the last
// per-launch allocations of the replay path — Node construction and its
// dep-slice copies — for hot loops that never inspect the graph. Set it
// before launching: a graph misses the launches made while it was off.
func (rt *Runtime) SetGraphRetention(on bool) { rt.retain.Store(on) }

// LaunchTiming returns accumulated wall time spent inside Launch, split
// into fully analyzed launches and launches spliced from a memoized
// trace — the direct measurement of what memoization saves.
func (rt *Runtime) LaunchTiming() (analyzed, spliced obs.TimerSnapshot) {
	return rt.tAnalyzed.Snapshot(), rt.tSpliced.Snapshot()
}

// shardFor returns (creating if needed) the history shard of a region.
// Caller holds s.mu.
func (s *Session) shardFor(id region.ID) *histShard {
	sh := s.hist[id]
	if sh == nil {
		sh = &histShard{}
		s.hist[id] = sh
	}
	return sh
}

// newTaskState takes a pooled state and copies the spec fields execution
// needs. Needs no lock.
func (rt *Runtime) newTaskState(spec *TaskSpec) *taskState {
	ts := rt.tsPool.Get().(*taskState)
	ts.name = spec.Name
	ts.proc = spec.Proc
	ts.run = spec.Run
	ts.retryable = spec.Retryable
	ts.corrupt = spec.Corrupt
	if !spec.Detached {
		ts.future = newFuture()
	}
	return ts
}

// recycle scrubs a completed task state and returns it to the pool.
func (rt *Runtime) recycle(ts *taskState) {
	ts.run = nil
	ts.future = nil
	ts.rec = nil
	ts.sess = nil
	ts.poison = nil
	ts.inj = fault.Injection{}
	ts.corrupt = nil
	ts.pending = 0
	clear(ts.succs)
	ts.succs = ts.succs[:0]
	ts.deps = ts.deps[:0]
	ts.bytes = ts.bytes[:0]
	rt.tsPool.Put(ts)
}

// prep is launch step 1: label the task, consult the session's tracer
// and injector, and register the task so later launches can wire onto
// it. Caller holds s.mu.
func (s *Session) prep(spec *TaskSpec, ts *taskState, id int64) {
	ts.id = id
	ts.sess = s
	if ts.future != nil {
		ts.future.sess, ts.future.task = s, id
	}
	ts.phase = spec.Phase
	if ts.phase == "" {
		ts.phase = s.phase
	}
	ts.splice = false
	ts.scans = 0
	if s.trace != nil {
		s.traceObserve(spec, ts)
	}
	if s.injector != nil {
		ts.inj = s.injector.Decide(spec.Name, ts.phase, spec.Piece-1)
	}
	ts.rec = s.rec
	if ts.rec != nil {
		ts.launch = ts.rec.Now()
	}
	s.tasks[id] = ts
	s.inflight++
}

// resolve is launch step 2, the interval-set work against the session's
// history — interference analysis for analyzed launches, the history
// shadow update for spliced ones — followed by the awaited edges, which
// no template holds: a calibrating launch captures its region edges
// before they join. Caller holds s.mu, which is what keeps every shard's
// updates in task-ID order.
func (s *Session) resolve(spec *TaskSpec, ts *taskState, depBytes map[int64]int64) {
	if ts.splice {
		for _, ref := range spec.Refs {
			s.shardFor(ref.Region).record(ts.id, ref)
		}
	} else {
		clear(depBytes)
		for _, ref := range spec.Refs {
			ts.scans += s.shardFor(ref.Region).analyze(ts.id, ref, depBytes)
		}
		ts.deps = ts.deps[:0]
		for d := range depBytes {
			ts.deps = append(ts.deps, d)
		}
		slices.Sort(ts.deps)
		ts.bytes = ts.bytes[:0]
		for _, d := range ts.deps {
			ts.bytes = append(ts.bytes, depBytes[d])
		}
		if s.trace != nil && s.trace.mode == trCalibrate {
			s.traceCapture(ts.deps, ts.bytes)
		}
	}
	for _, a := range spec.Awaits {
		f := a.Future
		if f.sess == nil {
			continue // resolved without a task
		}
		if f.sess != s {
			panic(fmt.Sprintf("taskrt: task %q awaits a future of another session", spec.Name))
		}
		i, found := slices.BinarySearch(ts.deps, f.task)
		if found {
			ts.bytes[i] += a.Bytes
			continue
		}
		ts.deps = slices.Insert(ts.deps, i, f.task)
		ts.bytes = slices.Insert(ts.bytes, i, a.Bytes)
	}
}

// arenaCopy copies a dep slice into the session's chunked graph arena,
// amortizing Node storage to one allocation per arenaChunk edges. Caller
// holds s.mu.
func (s *Session) arenaCopy(xs []int64) []int64 {
	if len(xs) == 0 {
		return nil
	}
	if len(s.depArena)+len(xs) > cap(s.depArena) {
		s.depArena = make([]int64, 0, max(arenaChunk, len(xs)))
	}
	n := len(s.depArena)
	s.depArena = append(s.depArena, xs...)
	return s.depArena[n:len(s.depArena):len(s.depArena)]
}

// wire is launch step 3: hook the task onto its live predecessors.
// Returns whether the task is immediately ready to execute. Caller holds
// s.mu.
func (s *Session) wire(ts *taskState) bool {
	for _, d := range ts.deps {
		if pred, live := s.tasks[d]; live {
			pred.succs = append(pred.succs, ts)
			ts.pending++
		} else if perr, ok := s.failed[d]; ok && ts.poison == nil {
			// The predecessor completed in failure and the client cannot
			// have observed that yet (no Drain happened between the
			// failure and this launch), so the task must be poisoned, not
			// run on a garbage region. The ledger is per session and
			// clears when the session's client drains it (Session.Drain,
			// Runtime.Drain): a drained failure is a handled failure (seen
			// via Err and recovered, e.g. SolveResilient's checkpoint
			// restore), so tasks launched after that start from a clean
			// slate — independent of whether other tenants keep the
			// runtime busy forever.
			ts.poison = perr
		}
	}
	return ts.pending == 0
}

// launch is the one launch path (Launch is a batch of one): prep,
// resolve, graph retention and wire of every spec run in a single
// critical section of the session lock, so launches on one session are
// ordered by it — IDs, history updates, graph and wiring alike — and
// launches on different sessions share no lock. futs, when non-nil,
// receives the futures in spec order.
func (s *Session) launch(specs []TaskSpec, futs []*Future) {
	rt := s.rt
	start := time.Now()
	sc := rt.scPool.Get().(*launchScratch)
	ready := sc.ready[:0]
	n := int64(len(specs))
	var edges, scans, nSpliced int64

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.panicClosed()
	}
	retain := rt.retain.Load()
	base := s.nextID // the whole batch's IDs are contiguous
	s.nextID += n
	for i := range specs {
		spec := &specs[i]
		ts := rt.newTaskState(spec)
		if futs != nil {
			futs[i] = ts.future
		}
		s.prep(spec, ts, base+int64(i))
		s.resolve(spec, ts, sc.depBytes)
		if retain {
			s.graph.Nodes = append(s.graph.Nodes, Node{
				ID: ts.id, Name: spec.Name, Phase: ts.phase, Proc: spec.Proc, Cost: spec.Cost,
				Deps: s.arenaCopy(ts.deps), DepBytes: s.arenaCopy(ts.bytes),
				Traced: ts.splice, Host: spec.Host,
			})
		}
		if s.wire(ts) {
			ready = append(ready, ts)
		}
		edges += int64(len(ts.deps))
		scans += int64(ts.scans)
		if ts.splice {
			nSpliced++
		}
	}
	s.stats.Launched += n
	s.stats.DepEdges += edges
	s.mu.Unlock()
	// From here a predecessor's completion may ready, run, and recycle
	// any non-ready state: only the ready ones are touched again.

	rt.stats.launched.Add(n)
	rt.stats.depEdges.Add(edges)
	rt.stats.analysisScans.Add(scans)
	rt.stats.traceReplays.Add(nSpliced)
	// Attribute the batch's wall time to the two launch-path timers in
	// proportion to the split.
	dur := time.Since(start)
	if nSpliced > 0 {
		rt.tSpliced.ObserveN(dur*time.Duration(nSpliced)/time.Duration(n), nSpliced)
	}
	if nA := n - nSpliced; nA > 0 {
		rt.tAnalyzed.ObserveN(dur*time.Duration(nA)/time.Duration(n), nA)
	}
	rt.submit(ready)
	clear(ready)
	sc.ready = ready[:0]
	rt.scPool.Put(sc)
}

// submit appends ready tasks to the run queue and spawns workers for
// the ones lingering workers will not take, up to the concurrency limit.
// A lingering worker takes the backlog first, so only the lingerers the
// backlog leaves over count against the new tasks.
func (rt *Runtime) submit(ready []*taskState) {
	if len(ready) == 0 {
		return
	}
	rt.runMu.Lock()
	backlog := len(rt.runq) - rt.runHead
	if rt.runHead > 0 && len(rt.runq)+len(ready) > cap(rt.runq) {
		// Reclaim the drained front before growing, so the queue's
		// storage is bounded by the backlog, not by history.
		n := copy(rt.runq, rt.runq[rt.runHead:])
		clear(rt.runq[n:])
		rt.runq, rt.runHead = rt.runq[:n], 0
	}
	rt.runq = append(rt.runq, ready...)
	rt.queued.Add(int64(len(ready)))
	spare := max(int(rt.lingering.Load())-backlog, 0)
	spawn := max(min(len(ready)-spare, rt.maxWorkers-int(rt.live.Load())), 0)
	rt.live.Add(int32(spawn))
	rt.runMu.Unlock()
	if spawn > 0 {
		rt.stats.spawned.Add(int64(spawn))
	}
	for ; spawn > 0; spawn-- {
		go rt.work()
	}
}

// hot reports whether the idle side may spin: there is a processor to
// spare and at most one tenant besides the default session.
func (rt *Runtime) hot() bool { return rt.maxWorkers > 1 && rt.tenants.Load() <= 1 }

// worker drains the run queue; when it is empty, it lingers for work
// (spin) and exits once the window passes with none. After each task
// it keeps running that task's first ready successor inline — a loop,
// not a recursion, so a dependent chain of any length runs on one
// goroutine at constant stack depth without a queue round trip per link.
func (rt *Runtime) worker() {
	rt.runMu.Lock()
	w := rt.freeIDs[len(rt.freeIDs)-1]
	rt.freeIDs = rt.freeIDs[:len(rt.freeIDs)-1]
	for {
		for rt.runHead < len(rt.runq) {
			ts := rt.runq[rt.runHead]
			rt.runq[rt.runHead] = nil
			rt.runHead++
			rt.queued.Add(-1)
			rt.runMu.Unlock()
			for ts != nil {
				ts = rt.execute(ts, w)
			}
			rt.runMu.Lock()
		}
		if !rt.hot() {
			break
		}
		rt.lingering.Add(1)
		rt.runMu.Unlock()
		spin(func() bool { return rt.queued.Load() != 0 })
		rt.runMu.Lock()
		rt.lingering.Add(-1)
		// Re-check under the lock: a submit that counted this worker as
		// lingering spawned no goroutine for what it queued.
		if rt.runHead == len(rt.runq) {
			break
		}
	}
	rt.runq, rt.runHead = rt.runq[:0], 0
	rt.freeIDs = append(rt.freeIDs, w)
	rt.live.Add(-1)
	rt.runMu.Unlock()
}

// spin polls the condition until, yielding the processor every
// yieldEvery polls, and returns when it holds or spinWindow passes. The
// idle side's two waits share it: a lingering worker's for work, and a
// future waiter's for its value.
func spin(until func() bool) {
	deadline := time.Now().Add(spinWindow)
	for i := 1; !until(); i++ {
		if i%yieldEvery == 0 {
			runtime.Gosched()
			if time.Now().After(deadline) {
				return
			}
		}
	}
}

// count bumps one runtime counter and its per-session twin.
func (s *Session) count(global *atomic.Int64, local *int64) {
	global.Add(1)
	s.mu.Lock()
	*local++
	s.mu.Unlock()
}

// execute runs one ready task on worker w — or skips it when poisoned —
// then releases its successors and returns the one to run next inline,
// if any.
func (rt *Runtime) execute(ts *taskState, w int) *taskState {
	sess := ts.sess
	sess.mu.Lock()
	poison := ts.poison
	if poison != nil {
		sess.stats.Poisoned++
	}
	policy := sess.retry
	budget := sess.watchdog
	sess.mu.Unlock()

	if poison != nil {
		// Cancelled: the body never runs on garbage data. Record a
		// zero-duration span so traces show the hole where the task
		// would have been.
		rt.stats.poisoned.Add(1)
		if ts.rec != nil {
			now := ts.rec.Now()
			ts.rec.Record(obs.Span{
				ID: ts.id, Name: ts.name, Phase: ts.phase, Proc: ts.proc,
				Worker: -1, Launch: ts.launch, Start: now, End: now,
				Outcome: obs.OutcomePoisoned,
			})
			ts.rec.RecordFailure(obs.Failure{
				Task: ts.id, Name: ts.name, Phase: ts.phase,
				Kind: obs.FailureCancelled, Msg: poison.Error(), Final: true,
			})
		}
		return rt.complete(ts, math.NaN(), poison)
	}

	if budget > 0 {
		// The watchdog's AfterFunc goroutine reads ts asynchronously —
		// possibly after completion — so a watched state must never be
		// recycled.
		ts.noRecycle = true
	}

	var start float64
	if ts.rec != nil {
		start = ts.rec.Now()
	}

	maxAttempts := 1
	if ts.retryable && policy.MaxAttempts > 1 {
		maxAttempts = policy.MaxAttempts
	}
	var val float64
	var err error
	outcome := obs.OutcomeOK
	for attempt := 0; ; attempt++ {
		// The watchdog budget covers one attempt's execution, re-armed
		// here so retry backoff sleeps do not count against it and a
		// transiently failing task is not falsely flagged a straggler.
		var wd *time.Timer
		if budget > 0 {
			wd = time.AfterFunc(budget, func() { rt.flagStraggler(ts, budget) })
		}
		val, err = rt.runGuarded(ts, attempt)
		if wd != nil {
			wd.Stop()
		}
		if err == nil {
			if attempt > 0 {
				outcome = obs.OutcomeRetried
			}
			break
		}
		final := attempt+1 >= maxAttempts
		if ts.rec != nil {
			ts.rec.RecordFailure(obs.Failure{
				Task: ts.id, Name: ts.name, Phase: ts.phase,
				Kind: obs.FailurePanic, Msg: err.Error(),
				Attempt: attempt, Final: final,
			})
		}
		if final {
			outcome = obs.OutcomeFailed
			val = math.NaN()
			err = fmt.Errorf("taskrt: task %d (%s) failed after %d attempt(s): %v",
				ts.id, ts.name, attempt+1, err)
			rt.stats.failed.Add(1)
			sess.mu.Lock()
			sess.stats.Failed++
			sess.pushErr(err)
			sess.mu.Unlock()
			break
		}
		sess.count(&rt.stats.retries, &sess.stats.Retries)
		if policy.Backoff > 0 {
			time.Sleep(backoffDelay(policy.Backoff, attempt))
		}
	}
	if ts.rec != nil {
		ts.rec.Record(obs.Span{
			ID: ts.id, Name: ts.name, Phase: ts.phase, Proc: ts.proc,
			Worker: w, Launch: ts.launch, Start: start, End: ts.rec.Now(),
			Outcome: outcome,
		})
	}
	return rt.complete(ts, val, err)
}

// complete resolves the task's future, poisons and releases its
// successors, retires the task, and recycles its state. A non-nil err
// marks the task as a permanent failure (or an already-poisoned
// cancellation): every direct successor is poisoned, poison flows
// transitively because poisoned successors complete with their own
// non-nil error, and the failure is remembered so tasks wired after this
// completion are poisoned too. The first successor this completion made
// ready is returned for the calling worker to run next; the rest go to
// the run queue.
func (rt *Runtime) complete(ts *taskState, val float64, err error) (next *taskState) {
	if ts.future != nil {
		ts.future.resolve(val, err)
	}
	var poisonErr error
	if err != nil {
		if errors.Is(err, ErrPoisoned) {
			poisonErr = err // keep the root failure visible transitively
		} else {
			poisonErr = fmt.Errorf("%w (root: task %d %s: %v)",
				ErrPoisoned, ts.id, ts.name, err)
		}
	}

	sess := ts.sess
	sess.mu.Lock()
	delete(sess.tasks, ts.id)
	if poisonErr != nil {
		// Remember the failure for consumers launched after this
		// completion: they find no live predecessor in sess.tasks and must
		// pick the poison up from this ledger instead of silently running
		// on a failed region. The ledger is per session so one tenant's
		// failure never poisons another tenant's launches.
		sess.failed[ts.id] = poisonErr
	}
	ready := ts.ready[:0]
	for _, s := range ts.succs {
		if poisonErr != nil && s.poison == nil {
			s.poison = poisonErr
		}
		s.pending--
		if s.pending == 0 {
			ready = append(ready, s)
		}
	}
	sess.inflight--
	if sess.inflight == 0 {
		sess.idle.Broadcast()
	}
	sess.mu.Unlock()

	if len(ready) > 0 {
		next = ready[0]
		rt.submit(ready[1:])
	}
	clear(ready)
	ts.ready = ready[:0]
	if !ts.noRecycle {
		rt.recycle(ts)
	}
	return next
}

// flagStraggler records that a task blew its wall-clock budget. It runs
// on the watchdog timer's goroutine, concurrently with the task.
func (rt *Runtime) flagStraggler(ts *taskState, budget time.Duration) {
	rt.stats.stragglers.Add(1)
	if ts.rec != nil {
		ts.rec.RecordFailure(obs.Failure{
			Task: ts.id, Name: ts.name, Phase: ts.phase,
			Kind: obs.FailureStraggler,
			Msg:  fmt.Sprintf("running past the %v wall-clock budget", budget),
		})
	}
}

// runGuarded executes one attempt of the task body, applying any injected
// fault and converting a panic into an error so one faulty kernel cannot
// crash the process or deadlock future waiters.
func (rt *Runtime) runGuarded(ts *taskState, attempt int) (val float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = math.NaN(), fmt.Errorf("panic: %v", r)
		}
	}()
	inj := ts.inj
	if attempt > 0 && !inj.Sticky {
		inj = fault.Injection{} // transient fault: the retry runs clean
	}
	switch inj.Kind {
	case fault.Stall:
		time.Sleep(inj.Stall)
	case fault.Panic:
		panic(fmt.Sprintf("fault injected (task %d %s, attempt %d)", ts.id, ts.name, attempt))
	}
	if ts.run != nil {
		val = ts.run()
	}
	switch inj.Kind {
	case fault.NaN, fault.BitFlip, fault.Scale:
		// Silent data corruption lands after the body completes, so no
		// in-task self-check can see it — only downstream checksums can.
		if ts.corrupt != nil {
			ts.corrupt(inj)
		} else {
			val = inj.CorruptValue(val)
		}
		ts.sess.count(&rt.stats.corrupted, &ts.sess.stats.Corrupted)
	}
	return val, nil
}

// liveSessions snapshots the session list into buf. The caller locks
// each session after rt.mu is released: the lock order is Session.mu →
// Runtime.mu.
func (rt *Runtime) liveSessions(buf []*Session) []*Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append(buf[:0], rt.sessions...)
}

// Drain drains every live session in turn (Session.Drain): it returns
// once each has been seen with nothing in flight, so every task launched
// before the call has completed, executed, retried, or been cancelled.
// After Drain, Err reports the aggregate failure state of everything
// launched so far — "Drain then Err" is the runtime's postcondition
// check. Sessions may keep launching meanwhile; tasks still in flight on
// a session that was closed without draining are not waited on.
func (rt *Runtime) Drain() {
	var buf [8]*Session // on the stack for the common handful of sessions
	for _, s := range rt.liveSessions(buf[:]) {
		s.Drain()
	}
}

// Err returns every live session's permanent task failures joined into
// one error (errors.Join), or nil if nothing has failed. Failures
// recovered by retry do not appear; cancelled successors are counted in
// Stats.Poisoned but not repeated here — the root failure already is.
// Call Drain first for a complete picture. Failures a session has
// cleared (Session.ClearErrs) or aged out of its bounded window do not
// appear either; servers wanting per-tenant failure state should use
// Session.Err instead.
func (rt *Runtime) Err() error {
	var all []error
	for _, s := range rt.liveSessions(nil) {
		s.mu.Lock()
		all = append(all, s.errs...)
		s.mu.Unlock()
	}
	return errors.Join(all...)
}

// Graph returns the default session's graph (Session.Graph), the one a
// single-client program records.
func (rt *Runtime) Graph() Graph { return rt.def.Graph() }

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	c := &rt.stats
	return Stats{
		Launched: c.launched.Load(), DepEdges: c.depEdges.Load(),
		AnalysisScans: c.analysisScans.Load(), TraceReplays: c.traceReplays.Load(),
		TraceHits: c.traceHits.Load(), TraceMisses: c.traceMisses.Load(),
		TraceFallbacks: c.traceFallbacks.Load(), Failed: c.failed.Load(),
		Retries: c.retries.Load(), Poisoned: c.poisoned.Load(),
		Stragglers: c.stragglers.Load(), Corrupted: c.corrupted.Load(),
		Spawned: c.spawned.Load(),
	}
}
