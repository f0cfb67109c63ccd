// Package taskrt is the task-oriented runtime substrate that stands in for
// Legion in this reproduction.
//
// Tasks declare the data they touch as region references — (region,
// index subset, privilege) tuples — and the runtime derives the dependence
// graph automatically, exactly as Legion's interference analysis does
// (Section 4.1 of the paper). Independent tasks execute concurrently;
// tasks related by a true dependence are ordered, and reduction tasks
// into overlapping data are serialized in launch order so floating-point
// results stay deterministic. A task reads a scalar another task returns
// by awaiting its Future (TaskSpec.Awaits), which orders it after that
// task like a region dependence does.
//
// Session is the launch API: Launch, LaunchBatch (the index launch:
// one point task per color, in one critical section), trace scopes (BeginTrace/EndTrace), the phase label, the attempt cap, the
// watchdog, the fault injector, and the recorder are all methods of a
// Session. The program is per session too: sessions must reference
// disjoint regions, so each owns its task IDs (dense from 0), its access
// history, its table of live tasks, its trace templates and its recorded
// Graph, guarded by the one lock a session has, and Close releases them —
// a served job's history dies with its session. A launch is one critical
// section of that lock: ID assignment, interference analysis (or trace
// splice), graph retention and wiring onto live predecessors, which
// keeps every region's history updates in task-ID order with no further
// protocol. A Runtime (New) owns only what is machine-wide — the run
// queue, Stats, Drain and the joined Err — and hands out sessions:
// DefaultSession for a single-client program (whose graph Runtime.Graph
// returns), NewSession per tenant of a shared runtime.
//
// Ready tasks go to one FIFO run queue drained by at most GOMAXPROCS
// worker goroutines. Workers are spawned when work arrives and exit when
// the queue is empty, so an idle runtime owns no goroutine and needs no
// Close; a worker that completes a task runs that task's first ready
// successor itself, in a loop, and queues the rest.
//
// Alongside real execution, every launch is recorded into a task Graph
// annotated with a simulated processor assignment, a roofline cost, and
// the bytes each dependence edge carries. The discrete-event simulator
// (package sim) replays that graph against a machine model to produce the
// per-iteration times of the paper's figures: the graph captures exactly
// which communication can overlap which computation, which is the property
// the paper's performance claims rest on.
//
// Dynamic-trace memoization (Lee et al., SC'18, cited as the overhead
// amortization mechanism in Section 4.1) is real (trace.go): once a
// session's trace scope has recorded and calibrated a launch sequence,
// later instances splice the memoized edges instead of analyzing, and
// their tasks are marked Traced so they carry the lower memoized launch
// overhead in the simulator.
//
// # Fault tolerance
//
// At the paper's target scale (256 nodes × 4 GPUs) task failures and
// stragglers are routine, so the runtime degrades gracefully instead of
// silently poisoning downstream data:
//
//   - A panicking task body is caught, never crashing the process. If the
//     task is Retryable (its body is idempotent) and the session's attempt
//     cap (Session.SetMaxAttempts) is above one, the body is re-run back
//     to back on the same worker until it succeeds or the cap is reached.
//   - A permanent failure (retries exhausted, or not retryable) resolves
//     the task's future to NaN with an error, and poisons its transitive
//     successors: they are cancelled without executing their bodies, and
//     their futures resolve to NaN with an error wrapping ErrPoisoned that
//     names the root failure. No successor of a permanently failed task
//     ever runs on garbage data.
//   - A watchdog (Session.SetWatchdog) counts tasks running past a
//     wall-clock budget as Stats.Stragglers.
//   - Failures, retries, cancellations, and straggler flags are counted in
//     Stats and SessionStats; with an obs.Recorder attached, each task's
//     span carries its outcome (retried, failed, poisoned).
//   - Deterministic fault injection (package fault, Session.SetFaultInjector)
//     exercises every one of these paths reproducibly.
//
// # Postcondition: Drain, then Err
//
// The documented way to finish a computation is to call Drain, which
// blocks until every launched task has executed, retried, or been
// cancelled, and then Err, which aggregates every distinct permanent task
// failure into a single error (errors.Join) — nil means everything ran
// (possibly after retries). Callers that need per-task outcomes attach an
// obs.Recorder; callers that need counts read Stats.
package taskrt
