package taskrt

// Real trace memoization (paper Section 4.1, Legion's dynamic tracing).
//
// A trace scope (BeginTrace/EndTrace) brackets one instance of a launch
// sequence the caller believes repeats — one solver iteration, one GMRES
// restart cycle. The session memoizes the dependence analysis of the
// sequence and, once it has proven the sequence really does repeat,
// replays the memoized edges instead of re-running the interval-set
// interference analysis:
//
//	instance 1 (record):    full analysis; fingerprint every launch
//	                        (name + region refs) into the template.
//	instance 2 (calibrate): full analysis; match each launch against the
//	                        template and capture its dependence edges as
//	                        trace-relative offsets.
//	instance 3+ (replay):   match each launch, splice the memoized
//	                        edges in directly — zero analysis scans.
//
// Two executions are needed before replay because the edges of the
// first instance point at whatever preceded the trace (initialization
// code), not at a previous instance of itself; only from the second
// instance onward do the edges take their steady-state, offset-stable
// shape.
//
// A fingerprint matches every region by its ID, so an instance that
// names a region created inside it never replays. The values a solver
// step produces and reads — dot products, deferred scalars — are futures,
// not regions, and a template holds only the edges regions derive: the
// edges to a launch's awaited futures (TaskSpec.Awaits) are added at
// every launch, replayed or analyzed, from the futures the launch names,
// and are never captured.
//
// Captured edges come in three classes: internal (offset into the
// current instance), prev (offset into the immediately preceding
// instance), and ancient (an absolute task ID from before the trace —
// fixed forever, because a history entry that survives one complete
// instance unchanged survives every later identical instance: the
// writer-shadowing subtraction is idempotent).
//
// Replay validity is strictly local: an instance may replay only when
// the immediately preceding instance of the same key completed, matched
// the template end to end, and the session launched nothing in between
// (adjacency, checked with the session's task-ID counter). Any gap — a
// convergence-check residual recomputation, a checkpoint, a different
// trace key — silently demotes the next instance to full analysis, and
// any mismatch mid-instance falls back to analysis for the rest of the
// instance. Task IDs are the session's own, so an instance's tasks are
// always base … base+n-1, the numbering every internal and prev offset
// assumes, however other sessions of the runtime interleave with it.
// Correctness therefore never depends on the caller scoping traces
// correctly; a wrong scope only costs performance.
//
// Replayed launches still append their accesses to the dependence
// history (and apply the writer-shadowing shrink), so the history stays
// exact at every task boundary: a mid-instance fallback or a launch right
// after a replayed instance sees precisely the history a fully analyzed
// execution would have produced. What replay skips is the expensive
// part — conflict scans, interval intersections, byte accounting — which
// is what Stats.AnalysisScans counts.

import (
	"slices"

	"kdrsolvers/internal/region"
)

// Dependence-edge classes in a template.
const (
	depInternal = iota // edge within the instance
	depPrev            // edge into the previous instance
	depAncient         // edge to a fixed pre-trace task
)

// depTmpl is one memoized dependence edge.
type depTmpl struct {
	kind  int
	off   int   // depInternal/depPrev: offset within the instance
	abs   int64 // depAncient: absolute task ID
	bytes int64
}

// taskTmpl is the per-task template: the fingerprint a replayed launch
// must match and (once calibrated) the edges to splice.
type taskTmpl struct {
	name string
	host bool
	refs []region.Ref
	deps []depTmpl
}

// traceTmpl is the memoized state of one trace key.
type traceTmpl struct {
	tasks   []taskTmpl
	hasDeps bool // true once an instance calibrated every task's edges

	// Bookkeeping about the most recent completed instance, consulted by
	// the next BeginTrace to decide adjacency.
	lastOK   bool // it matched the fingerprint end to end
	lastBase int64
	lastLen  int
}

// Trace modes of an active instance.
const (
	trRecord    = iota // full analysis; append fingerprints to the template
	trCalibrate        // full analysis; match launches and capture edges
	trReplay           // match launches and splice memoized edges
	trFallback         // a replayed launch mismatched: analyze the rest
)

// activeTrace is the state of the instance currently between BeginTrace
// and EndTrace, guarded by the session's mu. A session keeps a single
// recycled activeTrace (at most one instance is open at a time) so a trace
// scope itself costs no allocation on the replay path.
type activeTrace struct {
	tmpl *traceTmpl
	mode int
	base int64 // ID of the instance's first task
	n    int   // tasks launched so far in this instance
}

// fingerprint builds the template task of a launch.
func fingerprint(spec *TaskSpec) taskTmpl {
	return taskTmpl{name: spec.Name, host: spec.Host, refs: slices.Clone(spec.Refs)}
}

// matches reports whether a launch fits template task t — the one
// matcher of calibrate and replay, comparing against the raw spec so it
// allocates nothing.
func (t *taskTmpl) matches(spec *TaskSpec) bool {
	if t.name != spec.Name || t.host != spec.Host || len(t.refs) != len(spec.Refs) {
		return false
	}
	for i := range t.refs {
		tref, ref := &t.refs[i], &spec.Refs[i]
		if tref.Region != ref.Region || tref.Priv != ref.Priv || !tref.Subset.Equal(ref.Subset) {
			return false
		}
	}
	return true
}

// captureDeps converts an analyzed launch's absolute edges into
// trace-relative template edges, appending to dst. Called only in
// calibrate mode, where the previous adjacent instance matched the
// template, so any edge at or above prevBase is offset-stable.
func captureDeps(dst []depTmpl, deps, bytes []int64, base, prevBase int64) []depTmpl {
	for i, d := range deps {
		switch {
		case d >= base:
			dst = append(dst, depTmpl{kind: depInternal, off: int(d - base), bytes: bytes[i]})
		case d >= prevBase:
			dst = append(dst, depTmpl{kind: depPrev, off: int(d - prevBase), bytes: bytes[i]})
		default:
			dst = append(dst, depTmpl{kind: depAncient, abs: d, bytes: bytes[i]})
		}
	}
	return dst
}

// spliceDepsInto materializes a template's edges at a concrete instance
// base, appending into caller-owned buffers (passed in truncated, handed
// back possibly regrown — the zero-allocation contract of the replay
// path). The previous instance occupies [base-instLen, base). Template
// edges were captured in ascending absolute order, and the mapping
// preserves it (ancient < prev < internal at both capture and splice),
// so the result is already sorted.
func spliceDepsInto(tmpl []depTmpl, base int64, instLen int, deps, bytes []int64) ([]int64, []int64) {
	for _, d := range tmpl {
		switch d.kind {
		case depInternal:
			deps = append(deps, base+int64(d.off))
		case depPrev:
			deps = append(deps, base-int64(instLen)+int64(d.off))
		default:
			deps = append(deps, d.abs)
		}
		bytes = append(bytes, d.bytes)
	}
	return deps, bytes
}

// traceObserve matches one launch against the session's active trace.
// On a replay match it sets ts.splice and fills the task's own dep/byte
// buffers; otherwise the launch proceeds to full analysis. The template
// is built in place: recording appends the launch's fingerprint, and a
// calibrating launch that does not match cuts the template there and
// records the rest of the instance. Caller holds s.mu.
func (s *Session) traceObserve(spec *TaskSpec, ts *taskState) {
	at := s.trace
	pos := at.n
	at.n++
	tasks := at.tmpl.tasks
	switch at.mode {
	case trReplay:
		if pos < len(tasks) && tasks[pos].matches(spec) {
			ts.deps, ts.bytes = spliceDepsInto(
				tasks[pos].deps, at.base, len(tasks), ts.deps[:0], ts.bytes[:0])
			ts.splice = true
			return
		}
		// A mismatch, or an instance longer than the template: analyze
		// the rest of the instance, and EndTrace demotes the next one.
		at.mode = trFallback
		s.rt.stats.traceFallbacks.Add(1)
		return
	case trFallback:
		return
	case trCalibrate:
		if pos < len(tasks) && tasks[pos].matches(spec) {
			return // resolve captures the analyzed edges
		}
		at.tmpl.tasks = tasks[:pos]
		at.mode = trRecord
	}
	at.tmpl.tasks = append(at.tmpl.tasks, fingerprint(spec))
}

// traceCapture stores a calibrating launch's analyzed region edges into
// its template task. Caller holds s.mu since the launch's traceObserve,
// so the launch is the instance's latest.
func (s *Session) traceCapture(deps, bytes []int64) {
	at := s.trace
	t := &at.tmpl.tasks[at.n-1]
	t.deps = captureDeps(t.deps[:0], deps, bytes, at.base, at.base-int64(at.tmpl.lastLen))
}
