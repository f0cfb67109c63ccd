package taskrt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
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
	// Proc is the simulated processor the mapper chose for the task.
	Proc int
	// Cost is the task's simulated compute time in seconds.
	Cost float64
	// Refs declares every piece of data the task touches. The runtime
	// derives dependences from these; a task must not touch data it does
	// not declare.
	Refs []region.Ref
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
	// injector chose a data-corruption fault (bitflip, scale) for this
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
	// corrupted by an injected bitflip/scale fault. No error is raised for
	// these; the counter exists so chaos tests can assert the corruption
	// actually landed.
	Corrupted int64
}

// histKey identifies one field of one region in the dependence history.
type histKey struct {
	region region.ID
	field  string
}

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

// histShard holds one histKey's slice of the dependence history behind
// its own lock, so the interval-set work of concurrent launches on
// different keys proceeds in parallel instead of serializing on the
// global runtime mutex. Per-key work must still happen in task-ID order
// (dependences may only point backward); tickets enforce that: Launch
// enqueues the task's ID under the runtime lock (so queue order is ID
// order) and the analysis phase waits until its ticket reaches the
// head. A task waits only on smaller IDs, which never wait on larger
// ones, so the protocol cannot deadlock.
type histShard struct {
	mu      sync.Mutex
	cond    sync.Cond
	tickets []int64
	head    int // index of the current head ticket within tickets
	entries []histEntry
	scratch []index.Interval // subtraction workspace, reused per shrink
}

// enqueue appends a ticket. Caller holds rt.mu (ordering) but not sh.mu.
func (sh *histShard) enqueue(id int64) {
	sh.mu.Lock()
	sh.tickets = append(sh.tickets, id)
	sh.mu.Unlock()
}

// acquire blocks until id is at the head of the ticket queue and returns
// with sh.mu held.
func (sh *histShard) acquire(id int64) {
	sh.mu.Lock()
	for sh.tickets[sh.head] != id {
		sh.cond.Wait()
	}
}

// release pops the head ticket and releases sh.mu. The queue is a
// head-indexed slice rather than tickets[1:] reslicing: once it drains
// it resets to the front of the same backing array, so a steady launch
// rate enqueues forever without reallocating.
func (sh *histShard) release() {
	sh.head++
	if sh.head == len(sh.tickets) {
		sh.tickets = sh.tickets[:0]
		sh.head = 0
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// shrinkWriterShadow subtracts a new writer's subset from an older
// entry, reporting whether the entry is now fully shadowed (and should
// be dropped). The subtraction runs into the shard's scratch buffer and
// the result is copied into the entry's own reused storage, so the
// steady-state shrink — including the common full-shadow case, which
// produces nothing and copies nothing — is allocation-free. Caller
// holds sh.mu.
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
// shard's history and updates the history. Caller holds sh.mu via
// acquire. Returns the number of entries scanned.
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
// analyzed execution would have left. Caller holds sh.mu via acquire.
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
// execution and failure reporting never need the runtime lock.
//
// taskStates are pooled: complete() recycles the state (and its owned
// scratch slices — deps, bytes, groups, ready — whose capacity survives
// the round trip) unless noRecycle pins it for an async reader. A state
// is safe to recycle at the end of its own complete(): every successor
// was handed off under rt.mu, the ID was unregistered, and execute()
// touches nothing after complete() returns.
type taskState struct {
	id        int64
	name      string
	phase     string
	proc      int
	run       func() float64
	future    *Future // nil for detached launches
	pending   int
	succs     []*taskState
	wired     bool // dependence wiring finished; eligible to run at pending==0
	rec       *obs.Recorder
	sess      *Session // the session that launched the task
	launch    float64  // recorder time at launch (valid when rec != nil)
	retryable bool
	inj       fault.Injection
	corrupt   func(fault.Injection)
	poison    error // set under rt.mu before the task becomes ready
	noRecycle bool  // an async reader (watchdog) may outlive complete()

	// exec is the state's pre-bound executor thunk, created once when the
	// state is first pooled. Spawning `go ts.exec()` passes a zero-argument
	// func value, which the compiler hands to the scheduler as-is; the
	// equivalent `go rt.execute(ts)` would heap-allocate a closure per
	// spawn to carry its arguments.
	exec func()

	// Per-launch scratch, owned by the state and reused across pool
	// round trips.
	groups  []keyGroup   // history keys of this launch's refs
	deps    []int64      // discovered or spliced dependence edges
	bytes   []int64      // bytes flowing along deps (parallel slice)
	ready   []*taskState // successors released by this task's completion
	splice  bool         // deps came from a trace template
	scans   int          // history entries examined by analysis
	atEpoch int64        // trace-scope epoch at launch (at != nil)
	trPos   int          // position within the trace instance
	at      *activeTrace // the trace scope observed at launch, if any
}

// keyGroup is one distinct history key of a launch. The refs mapping to
// the key are not stored — the analysis phase re-walks the spec's refs
// per group, which for the tiny ref lists of real launches is cheaper
// than materializing per-group ref slices and keeps the launch path
// allocation-free.
type keyGroup struct {
	shard *histShard
	key   histKey
}

// launchScratch is the per-launch transient workspace, pooled on the
// runtime so neither Launch nor LaunchBatch allocates it.
type launchScratch struct {
	depBytes map[int64]int64
	states   []*taskState
	ready    []*taskState
}

// Runtime owns what is machine-wide: the dependence engine, the worker
// pool that executes ready tasks, and the annotated graph recorded for
// the simulator. Tasks are launched through a Session (DefaultSession
// for a single client, NewSession per tenant); the runtime itself has no
// launch methods. The zero value is not usable; call New.
//
// Drain, Err, Graph, and Stats are safe for concurrent use.
type Runtime struct {
	mu        sync.Mutex
	hist      map[histKey]*histShard
	tasks     map[int64]*taskState // incomplete tasks only
	graph     Graph
	nextID    int64          // next task ID to assign
	nextFlush int64          // next task ID to append to graph.Nodes
	held      map[int64]Node // finalized nodes waiting on smaller IDs
	stats     Stats
	wg        sync.WaitGroup
	workers   chan int // pool of worker IDs; len = concurrency limit
	// def is the built-in session single-client programs launch
	// through; sessions lists every live session, def first. The error
	// window, poison ledger, quiescence tracking, phase label, trace
	// state, injector, and recorder all live per session — see Session.
	def      *Session
	sessions []*Session

	// retain controls graph retention (on by default): when off, launches
	// skip Node construction entirely — the zero-allocation configuration
	// for replay-dominated hot loops that never call Graph.
	retain bool
	// depArena chunk-allocates Node dep-edge storage so graph retention
	// costs one allocation per ~arenaChunk edges instead of two per task.
	depArena []int64

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
	nw := runtime.GOMAXPROCS(0)
	workers := make(chan int, nw)
	for w := 0; w < nw; w++ {
		workers <- w
	}
	rt := &Runtime{
		hist:    make(map[histKey]*histShard),
		tasks:   make(map[int64]*taskState),
		held:    make(map[int64]Node),
		workers: workers,
		retain:  true,
	}
	rt.def = &Session{
		rt:     rt,
		failed: make(map[int64]error),
		traces: make(map[string]*traceTmpl),
	}
	rt.sessions = []*Session{rt.def}
	rt.tsPool.New = func() any {
		ts := &taskState{}
		ts.exec = func() { rt.execute(ts) }
		return ts
	}
	rt.scPool.New = func() any {
		return &launchScratch{depBytes: make(map[int64]int64)}
	}
	return rt
}

// SetGraphRetention enables or disables recording of launched tasks into
// the Graph (on by default). Retention off removes the last per-launch
// allocations of the replay path — Node construction and its dep-slice
// copies — for hot loops that never inspect the graph. Call it while the
// runtime is quiescent (no launches in flight): re-enabling resumes
// recording from the next task ID, and Graph() then reflects only the
// retained eras.
func (rt *Runtime) SetGraphRetention(on bool) {
	rt.mu.Lock()
	if on && !rt.retain {
		rt.nextFlush = rt.nextID // skip the unrecorded era
	}
	rt.retain = on
	rt.mu.Unlock()
}

// LaunchTiming returns accumulated wall time spent inside Launch, split
// into fully analyzed launches and launches spliced from a memoized
// trace — the direct measurement of what memoization saves.
func (rt *Runtime) LaunchTiming() (analyzed, spliced obs.TimerSnapshot) {
	return rt.tAnalyzed.Snapshot(), rt.tSpliced.Snapshot()
}

// shardFor returns (creating if needed) the history shard of a key.
// Caller holds rt.mu.
func (rt *Runtime) shardFor(key histKey) *histShard {
	sh := rt.hist[key]
	if sh == nil {
		sh = &histShard{}
		sh.cond.L = &sh.mu
		rt.hist[key] = sh
	}
	return sh
}

// groupKeys collects a spec's distinct history keys in first-appearance
// order into the task's reused group buffer and enqueues one ticket per
// key. Distinctness is a linear scan over the groups found so far —
// launches reference a handful of keys, where the scan beats a map and
// allocates nothing. Caller holds rt.mu.
func (rt *Runtime) groupKeys(id int64, refs []region.Ref, groups []keyGroup) []keyGroup {
	groups = groups[:0]
	for _, ref := range refs {
		key := histKey{ref.Region, ref.Field}
		seen := false
		for i := range groups {
			if groups[i].key == key {
				seen = true
				break
			}
		}
		if !seen {
			groups = append(groups, keyGroup{shard: rt.shardFor(key), key: key})
		}
	}
	for i := range groups {
		groups[i].shard.enqueue(id)
	}
	return groups
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
	ts.at = nil
	ts.inj = fault.Injection{}
	ts.corrupt = nil
	ts.pending = 0
	ts.wired = false
	ts.splice = false
	ts.scans = 0
	for i := range ts.succs {
		ts.succs[i] = nil
	}
	ts.succs = ts.succs[:0]
	for i := range ts.ready {
		ts.ready[i] = nil
	}
	ts.ready = ts.ready[:0]
	ts.deps = ts.deps[:0]
	ts.bytes = ts.bytes[:0]
	ts.groups = ts.groups[:0]
	rt.tsPool.Put(ts)
}

// prepLocked is launch phase 1: assign the ID, consult the session's
// tracer, enqueue per-key tickets, and register the task so later
// launches can wire onto it. Caller holds rt.mu.
func (rt *Runtime) prepLocked(sess *Session, spec *TaskSpec, ts *taskState) {
	id := rt.nextID
	rt.nextID++
	ts.id = id
	ts.sess = sess
	ts.phase = spec.Phase
	if ts.phase == "" {
		ts.phase = sess.phase
	}
	ts.splice = false
	ts.scans = 0
	ts.at = nil
	if sess.trace != nil {
		ts.at = sess.trace
		ts.atEpoch = sess.atEpoch
		ts.trPos = sess.trace.n
		sess.traceObserve(*spec, ts)
	}
	ts.groups = rt.groupKeys(id, spec.Refs, ts.groups)
	if sess.injector != nil {
		ts.inj = sess.injector.Decide(spec.Name, ts.phase, spec.Piece-1)
	}
	ts.rec = sess.rec
	if ts.rec != nil {
		ts.launch = ts.rec.Now()
	}
	rt.tasks[id] = ts
	sess.inflight++
	rt.wg.Add(1)
	sess.wg.Add(1)
}

// resolveDeps is launch phase 2 (per-key shard locks, in ticket order):
// the interval-set work — interference analysis for analyzed launches,
// the history shadow update for spliced ones. Runs without rt.mu.
func (rt *Runtime) resolveDeps(spec *TaskSpec, ts *taskState, sc *launchScratch) {
	if ts.splice {
		for _, g := range ts.groups {
			g.shard.acquire(ts.id)
			for i := range spec.Refs {
				ref := &spec.Refs[i]
				if (histKey{ref.Region, ref.Field}) == g.key {
					g.shard.record(ts.id, *ref)
				}
			}
			g.shard.release()
		}
		return
	}
	depBytes := sc.depBytes
	clear(depBytes)
	scans := 0
	for _, g := range ts.groups {
		g.shard.acquire(ts.id)
		for i := range spec.Refs {
			ref := &spec.Refs[i]
			if (histKey{ref.Region, ref.Field}) == g.key {
				scans += g.shard.analyze(ts.id, *ref, depBytes)
			}
		}
		g.shard.release()
	}
	ts.scans = scans
	ts.deps = ts.deps[:0]
	for d := range depBytes {
		ts.deps = append(ts.deps, d)
	}
	deps := ts.deps
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	ts.bytes = ts.bytes[:0]
	for _, d := range ts.deps {
		ts.bytes = append(ts.bytes, depBytes[d])
	}
}

// arenaCopy copies a dep slice into the chunked graph arena, amortizing
// Node storage to one allocation per arenaChunk edges. Caller holds
// rt.mu.
func (rt *Runtime) arenaCopy(xs []int64) []int64 {
	if len(xs) == 0 {
		return nil
	}
	if len(rt.depArena)+len(xs) > cap(rt.depArena) {
		sz := arenaChunk
		if len(xs) > sz {
			sz = len(xs)
		}
		rt.depArena = make([]int64, 0, sz)
	}
	n := len(rt.depArena)
	rt.depArena = append(rt.depArena, xs...)
	return rt.depArena[n : n+len(xs) : n+len(xs)]
}

// finishLocked is launch phase 3: record the node, update stats, capture
// template edges when calibrating, and wire the dependences. Returns
// whether the task is immediately ready to execute. Caller holds rt.mu.
func (rt *Runtime) finishLocked(spec *TaskSpec, ts *taskState) bool {
	rt.stats.Launched++
	rt.stats.DepEdges += int64(len(ts.deps))
	rt.stats.AnalysisScans += int64(ts.scans)
	ts.sess.stats.Launched++
	ts.sess.stats.DepEdges += int64(len(ts.deps))
	if ts.splice {
		rt.stats.TraceReplays++
	} else if ts.at != nil && ts.sess.trace == ts.at && ts.sess.atEpoch == ts.atEpoch {
		ts.sess.traceRecordAnalyzed(ts.trPos, ts.deps, ts.bytes)
	}
	ts.at = nil
	if rt.retain {
		rt.held[ts.id] = Node{
			ID: ts.id, Name: spec.Name, Phase: ts.phase, Proc: spec.Proc, Cost: spec.Cost,
			Deps: rt.arenaCopy(ts.deps), DepBytes: rt.arenaCopy(ts.bytes),
			Traced: ts.splice, Host: spec.Host,
		}
		for {
			n, ok := rt.held[rt.nextFlush]
			if !ok {
				break
			}
			delete(rt.held, rt.nextFlush)
			rt.graph.Nodes = append(rt.graph.Nodes, n)
			rt.nextFlush++
		}
	}
	for _, d := range ts.deps {
		if pred, live := rt.tasks[d]; live {
			pred.succs = append(pred.succs, ts)
			ts.pending++
		} else if perr, ok := ts.sess.failed[d]; ok && ts.poison == nil {
			// The predecessor completed in failure while this launch was
			// still in flight — in a batch's unlocked resolve phase, or
			// racing another goroutine's launch. The client cannot have
			// observed that failure yet (no Drain happened between the
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
	ts.wired = true
	return ts.pending == 0
}

func (rt *Runtime) launch(sess *Session, spec TaskSpec) *Future {
	start := time.Now()
	sc := rt.scPool.Get().(*launchScratch)
	ts := rt.newTaskState(&spec)
	fut := ts.future

	rt.mu.Lock()
	rt.prepLocked(sess, &spec, ts)
	rt.mu.Unlock()

	rt.resolveDeps(&spec, ts, sc)

	rt.mu.Lock()
	ready := rt.finishLocked(&spec, ts)
	// Once wired, a predecessor's completion may ready, run, and recycle
	// ts at any moment — read everything needed from it before unlocking.
	spliced := ts.splice
	rt.mu.Unlock()
	rt.scPool.Put(sc)

	if ready {
		go ts.exec()
	}
	if spliced {
		rt.tSpliced.Observe(time.Since(start))
	} else {
		rt.tAnalyzed.Observe(time.Since(start))
	}
	return fut
}

func (rt *Runtime) launchBatch(sess *Session, specs []TaskSpec) []*Future {
	if len(specs) == 0 {
		return nil
	}
	start := time.Now()
	sc := rt.scPool.Get().(*launchScratch)
	states := sc.states[:0]

	var futs []*Future
	for i := range specs {
		if !specs[i].Detached {
			futs = make([]*Future, len(specs))
			break
		}
	}

	// Phase 1: one runtime-lock acquisition registers the whole batch.
	rt.mu.Lock()
	for i := range specs {
		ts := rt.newTaskState(&specs[i])
		rt.prepLocked(sess, &specs[i], ts)
		states = append(states, ts)
		if futs != nil {
			futs[i] = ts.future
		}
	}
	rt.mu.Unlock()

	// Phase 2: per-spec interval work in launch (= ID) order. A single
	// goroutine acquiring its own tickets in ascending order never waits
	// on itself, so sequential resolution cannot deadlock.
	nSpliced := int64(0)
	for i, ts := range states {
		rt.resolveDeps(&specs[i], ts, sc)
		if ts.splice {
			nSpliced++
		}
	}

	// Phase 3: one lock acquisition wires and records the whole batch.
	ready := sc.ready[:0]
	rt.mu.Lock()
	for i, ts := range states {
		if rt.finishLocked(&specs[i], ts) {
			ready = append(ready, ts)
		}
	}
	rt.mu.Unlock()

	// Attribute the batch's wall time to the two launch-path timers in
	// proportion to the split, before any spawned task can recycle.
	dur := time.Since(start)
	n := int64(len(specs))
	if nSpliced > 0 {
		rt.tSpliced.ObserveN(dur*time.Duration(nSpliced)/time.Duration(n), nSpliced)
	}
	if nA := n - nSpliced; nA > 0 {
		rt.tAnalyzed.ObserveN(dur*time.Duration(nA)/time.Duration(n), nA)
	}
	for i, ts := range ready {
		go ts.exec()
		ready[i] = nil
	}
	sc.ready = ready[:0]
	for i := range states {
		states[i] = nil
	}
	sc.states = states[:0]
	rt.scPool.Put(sc)
	return futs
}

// execute runs one ready task — or skips it when poisoned — and then
// releases its successors.
func (rt *Runtime) execute(ts *taskState) {
	rt.mu.Lock()
	poison := ts.poison
	policy := ts.sess.retry
	budget := ts.sess.watchdog
	rt.mu.Unlock()

	if poison != nil {
		// Cancelled: the body never runs on garbage data. Record a
		// zero-duration span so traces show the hole where the task
		// would have been.
		rt.mu.Lock()
		rt.stats.Poisoned++
		ts.sess.stats.Poisoned++
		rt.mu.Unlock()
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
		rt.complete(ts, math.NaN(), poison)
		return
	}

	if budget > 0 {
		// The watchdog's AfterFunc goroutine reads ts asynchronously —
		// possibly after completion — so a watched state must never be
		// recycled.
		ts.noRecycle = true
	}

	w := <-rt.workers
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
			rt.mu.Lock()
			rt.stats.Failed++
			ts.sess.stats.Failed++
			ts.sess.pushErr(err)
			rt.mu.Unlock()
			break
		}
		rt.mu.Lock()
		rt.stats.Retries++
		ts.sess.stats.Retries++
		rt.mu.Unlock()
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
	rt.workers <- w
	rt.complete(ts, val, err)
}

// complete resolves the task's future, poisons and releases its
// successors, retires the task, and recycles its state. A non-nil err
// marks the task as a permanent failure (or an already-poisoned
// cancellation): every direct successor is poisoned, poison flows
// transitively because poisoned successors complete with their own
// non-nil error, and the failure is remembered so tasks wired after this
// completion are poisoned too.
func (rt *Runtime) complete(ts *taskState, val float64, err error) {
	if ts.future != nil {
		ts.future.resolve(val, err)
	}

	rt.mu.Lock()
	delete(rt.tasks, ts.id)
	var poisonErr error
	if err != nil {
		if errors.Is(err, ErrPoisoned) {
			poisonErr = err // keep the root failure visible transitively
		} else {
			poisonErr = fmt.Errorf("%w (root: task %d %s: %v)",
				ErrPoisoned, ts.id, ts.name, err)
		}
	}
	if poisonErr != nil {
		// Remember the failure for launches still in flight: a consumer
		// registered before this completion but not yet wired (a batch's
		// unlocked resolve phase, or a concurrent launcher) finds no live
		// predecessor in rt.tasks and must pick the poison up from this
		// ledger instead of silently running on a failed region. The
		// ledger is per session so one tenant's failure never poisons
		// another tenant's launches.
		ts.sess.failed[ts.id] = poisonErr
	}
	ready := ts.ready[:0]
	for _, s := range ts.succs {
		if poisonErr != nil && s.poison == nil {
			s.poison = poisonErr
		}
		s.pending--
		if s.pending == 0 && s.wired {
			ready = append(ready, s)
		}
	}
	ts.ready = ready
	sess := ts.sess
	sess.inflight--
	rt.mu.Unlock()

	for i, s := range ts.ready {
		go s.exec()
		ts.ready[i] = nil
	}
	ts.ready = ts.ready[:0]
	noRecycle := ts.noRecycle
	sess.wg.Done()
	rt.wg.Done()
	if !noRecycle {
		rt.recycle(ts)
	}
}

// flagStraggler records that a task blew its wall-clock budget. It runs
// on the watchdog timer's goroutine, concurrently with the task.
func (rt *Runtime) flagStraggler(ts *taskState, budget time.Duration) {
	rt.mu.Lock()
	rt.stats.Stragglers++
	rt.mu.Unlock()
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
	case fault.NaN:
		val = math.NaN() // silent result corruption; no error is raised
	case fault.BitFlip, fault.Scale:
		// Silent data corruption lands after the body completes, so no
		// in-task self-check can see it — only downstream checksums can.
		if ts.corrupt != nil {
			ts.corrupt(inj)
		} else {
			val = inj.CorruptValue(val)
		}
		rt.mu.Lock()
		rt.stats.Corrupted++
		ts.sess.stats.Corrupted++
		rt.mu.Unlock()
	}
	return val, nil
}

// Drain blocks until every launched task has completed, executed,
// retried, or been cancelled. After Drain, Err reports the aggregate
// failure state of everything launched so far — "Drain then Err" is the
// runtime's postcondition check.
func (rt *Runtime) Drain() {
	rt.wg.Wait()
	rt.mu.Lock()
	for _, s := range rt.sessions {
		s.forgetHandledLocked()
	}
	rt.mu.Unlock()
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
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var all []error
	for _, s := range rt.sessions {
		all = append(all, s.errs...)
	}
	return errors.Join(all...)
}

// Graph returns a snapshot of the recorded task graph. Call Drain first
// if the graph must reflect a quiescent state. The snapshot is O(1):
// nodes are immutable once recorded, so the returned graph shares their
// storage (callers must not modify it) and is unaffected by later
// launches. With concurrent launchers the snapshot is always a
// consistent prefix: a node appears only once its dependence analysis —
// and that of every smaller-ID task — has finished. Launches made while
// graph retention is off (SetGraphRetention) do not appear.
func (rt *Runtime) Graph() Graph {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := len(rt.graph.Nodes)
	return Graph{Nodes: rt.graph.Nodes[:n:n]}
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// String summarizes the runtime state.
func (rt *Runtime) String() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return fmt.Sprintf("runtime(%d tasks, %d edges)", rt.stats.Launched, rt.stats.DepEdges)
}
