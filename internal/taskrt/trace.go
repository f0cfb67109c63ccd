package taskrt

// Real trace memoization (paper Section 4.1, Legion's dynamic tracing).
//
// A trace scope (BeginTrace/EndTrace) brackets one instance of a launch
// sequence the caller believes repeats — one solver iteration, one GMRES
// restart cycle. The runtime memoizes the dependence analysis of the
// sequence and, once it has proven the sequence really does repeat,
// replays the memoized edges instead of re-running the interval-set
// interference analysis:
//
//	instance 1 (record):    full analysis; fingerprint every launch
//	                        (name + region-class refs).
//	instance 2 (calibrate): full analysis; validate each launch against
//	                        the fingerprint and capture its dependence
//	                        edges as trace-relative offsets.
//	instance 3+ (replay):   validate each launch, splice the memoized
//	                        edges in directly — zero analysis scans.
//
// Two executions are needed before replay because the edges of the
// first instance point at whatever preceded the trace (initialization
// code), not at a previous instance of itself; only from the second
// instance onward do the edges take their steady-state, offset-stable
// shape.
//
// Regions in a fingerprint are classified rather than matched by ID,
// because solver iterations create fresh scratch regions (dot-product
// partials, deferred scalars) on every instance:
//
//	rcStable: a long-lived region (solution, workspace vectors) that
//	          must reappear with the same ID.
//	rcCur:    the j-th region created during the instance itself
//	          (ID above the BeginTrace watermark), in first-appearance
//	          order.
//	rcPrev:   the j-th region created during the *previous* instance —
//	          how a CG step reads the r·r scalar produced one iteration
//	          earlier.
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
// the template end to end, and no foreign task was launched in between
// (gapless adjacency, checked with the global task-ID counter). Any
// gap — a convergence-check residual recomputation, a checkpoint, a
// different trace key — silently demotes the next instance to full
// analysis, and any fingerprint mismatch mid-instance falls back to
// analysis for the rest of the instance and invalidates the template.
// A foreign launch landing inside an instance (another session of the
// same runtime: task IDs are global) is the same mismatch: the
// instance's tasks are no longer base … base+n-1, which is what every
// internal and prev offset assumes.
// Correctness therefore never depends on the caller scoping traces
// correctly; a wrong scope only costs performance.
//
// Replayed launches still append their accesses to the dependence
// history (and apply the writer-shadowing shrink), so the history stays
// exact at every task boundary: a mid-instance fallback or a foreign
// launch right after a replayed instance sees precisely the history a
// fully analyzed execution would have produced. What replay skips is
// the expensive part — conflict scans, interval intersections, byte
// accounting — which is what Stats.AnalysisScans counts.

import (
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// Region classes in a fingerprint.
const (
	rcStable = iota // long-lived region, matched by exact ID
	rcCur           // j-th region created during the current instance
	rcPrev          // j-th region created during the previous instance
)

// refTmpl is the fingerprint of one region reference.
type refTmpl struct {
	class  int
	region region.ID // rcStable: the exact ID
	idx    int       // rcCur/rcPrev: first-appearance index
	field  string
	subset index.IntervalSet
	priv   region.Privilege
}

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
	refs []refTmpl
	deps []depTmpl
}

// traceTmpl is the memoized state of one trace key.
type traceTmpl struct {
	tasks   []taskTmpl
	hasDeps bool // true once an instance calibrated every task's edges

	// Bookkeeping about the most recent completed instance, consulted by
	// the next BeginTrace to decide adjacency.
	lastOK    bool // it matched the fingerprint end to end
	lastBase  int64
	lastLen   int
	lastFresh []region.ID // its fresh regions, first-appearance order

	// freshBufs double-buffers the fresh-region storage so steady-state
	// replay allocates nothing: lastFresh aliases the buffer the previous
	// instance filled, and the next instance appends into the other one.
	// An instance's lastFresh is consumed (copied into prevIdx) at the
	// following BeginTrace, so two buffers always suffice.
	freshBufs [2][]region.ID
	flip      int
}

// Trace modes of an active instance.
const (
	trRecord    = iota // full analysis; (re)build the fingerprint
	trCalibrate        // full analysis; validate and capture edges
	trReplay           // validate and splice memoized edges
)

// activeTrace is the state of the instance currently between BeginTrace
// and EndTrace, guarded by the session's mu. A session keeps a single
// recycled activeTrace (at most one instance is open at a time) so a trace scope
// itself costs no allocation on the replay path; its maps are cleared,
// not rebuilt, between instances.
type activeTrace struct {
	key  string
	tmpl *traceTmpl
	mode int

	base      int64     // ID of the instance's first task
	n         int       // tasks launched so far in this instance
	watermark region.ID // region-ID watermark at BeginTrace

	fresh    []region.ID       // fresh regions, first-appearance order
	freshIdx map[region.ID]int // inverse of fresh
	prevIdx  map[region.ID]int // previous instance's fresh regions

	cand   []taskTmpl // fingerprint being rebuilt (record/calibrate)
	failed bool       // a mismatch demoted the rest of the instance
}

// freshClass returns the class of a region reference within the active
// instance, assigning first-appearance indices to newly created regions.
func (at *activeTrace) classify(id region.ID) (class, idx int) {
	if id > at.watermark {
		j, ok := at.freshIdx[id]
		if !ok {
			if at.freshIdx == nil {
				at.freshIdx = make(map[region.ID]int, 8)
			}
			j = len(at.fresh)
			at.fresh = append(at.fresh, id)
			at.freshIdx[id] = j
		}
		return rcCur, j
	}
	if j, ok := at.prevIdx[id]; ok {
		return rcPrev, j
	}
	return rcStable, 0
}

// fingerprint builds the refTmpl list for a launch under the active
// instance's region classification.
func (at *activeTrace) fingerprint(spec TaskSpec) taskTmpl {
	t := taskTmpl{name: spec.Name, host: spec.Host}
	for _, ref := range spec.Refs {
		class, idx := at.classify(ref.Region)
		rt := refTmpl{
			class: class, field: ref.Field,
			subset: ref.Subset, priv: ref.Priv,
		}
		if class == rcStable {
			rt.region = ref.Region
		} else {
			rt.idx = idx
		}
		t.refs = append(t.refs, rt)
	}
	return t
}

// refsCompatible reports whether a freshly observed fingerprint matches
// a template task.
//
// One divergence is tolerated while calibrating (never while replaying):
// a template ref recorded as rcStable may be observed as rcPrev. The
// recording instance saw a scratch region created by pre-trace code
// (e.g. CG's initial r·r scalar, made during solver setup), which in
// steady state is a fresh region of the previous instance. Accepting the
// upgrade is safe in calibrate mode because the edges being captured
// come from this instance's real analysis, and the candidate — which
// records the ref as rcPrev — replaces the template; replay instances
// then validate strictly against rcPrev. In replay mode a calibrated
// template's rcStable refs name genuinely durable regions, so observing
// rcPrev there is a real structural change and must fall back.
func (at *activeTrace) refsCompatible(tref refTmpl, cref refTmpl) bool {
	tclass, tidx := tref.class, tref.idx
	if tclass != cref.class || tref.field != cref.field || tref.priv != cref.priv {
		if tclass == rcStable && cref.class == rcPrev && at.mode != trReplay &&
			tref.field == cref.field && tref.priv == cref.priv {
			return tref.subset.Equal(cref.subset)
		}
		return false
	}
	if tclass == rcStable && tref.region != cref.region {
		return false
	}
	if tclass != rcStable && tidx != cref.idx {
		return false
	}
	return tref.subset.Equal(cref.subset)
}

// taskCompatible checks a whole launch fingerprint against a template
// task.
func (at *activeTrace) taskCompatible(t taskTmpl, c taskTmpl) bool {
	if t.name != c.name || t.host != c.host || len(t.refs) != len(c.refs) {
		return false
	}
	for i := range t.refs {
		if !at.refsCompatible(t.refs[i], c.refs[i]) {
			return false
		}
	}
	return true
}

// captureDeps converts an analyzed launch's absolute edges into
// trace-relative template edges. Called only in calibrate mode, where
// the previous adjacent instance matched the template, so any edge at
// or above prevBase is offset-stable.
func captureDeps(deps []int64, bytes []int64, base, prevBase int64) []depTmpl {
	out := make([]depTmpl, len(deps))
	for i, d := range deps {
		switch {
		case d >= base:
			out[i] = depTmpl{kind: depInternal, off: int(d - base), bytes: bytes[i]}
		case d >= prevBase:
			out[i] = depTmpl{kind: depPrev, off: int(d - prevBase), bytes: bytes[i]}
		default:
			out[i] = depTmpl{kind: depAncient, abs: d, bytes: bytes[i]}
		}
	}
	return out
}

// replayCompatible validates one launch directly against a template task
// without materializing a candidate fingerprint — the replay-path
// equivalent of fingerprint+taskCompatible, minus their allocations.
// Replay validation is strict (no stable→prev upgrade), so a field-level
// comparison against the raw spec suffices. Classification side effects
// (first-appearance registration of fresh regions) are identical to the
// fingerprint path for every ref up to the first mismatch; after a
// mismatch the instance is demoted to analysis, so partial registration
// cannot corrupt a later replay.
func (at *activeTrace) replayCompatible(t *taskTmpl, spec TaskSpec) bool {
	if t.name != spec.Name || t.host != spec.Host || len(t.refs) != len(spec.Refs) {
		return false
	}
	for i := range t.refs {
		tref := &t.refs[i]
		ref := &spec.Refs[i]
		if tref.field != ref.Field || tref.priv != ref.Priv {
			return false
		}
		class, idx := at.classify(ref.Region)
		if class != tref.class {
			return false
		}
		if class == rcStable {
			if tref.region != ref.Region {
				return false
			}
		} else if idx != tref.idx {
			return false
		}
		if !tref.subset.Equal(ref.Subset) {
			return false
		}
	}
	return true
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

// traceObserve classifies one launch under the session's active trace
// and decides whether it can be spliced. On a successful replay match it
// sets ts.splice and fills the task's own dep/byte buffers; otherwise
// the launch proceeds to full analysis. Caller holds s.mu.
func (s *Session) traceObserve(spec TaskSpec, ts *taskState) {
	at := s.trace
	pos := at.n
	at.n++
	// Offsets address the instance as base … base+n-1. Another session's
	// launch inside it shifts every later ID, so from here on a spliced
	// or captured offset would name the wrong task.
	gapless := ts.id == at.base+int64(pos)

	if at.mode == trReplay && !at.failed {
		if gapless && pos < len(at.tmpl.tasks) {
			t := &at.tmpl.tasks[pos]
			if at.replayCompatible(t, spec) {
				ts.deps, ts.bytes = spliceDepsInto(
					t.deps, at.base, len(at.tmpl.tasks), ts.deps[:0], ts.bytes[:0])
				ts.splice = true
				return
			}
		}
		// Mismatch, an ID gap, or an instance longer than the template:
		// fall back to full analysis for the rest of the instance and
		// drop the template — it no longer describes this launch
		// sequence.
		at.failed = true
		s.rt.stats.traceFallbacks.Add(1)
		delete(s.traces, at.key)
		return
	}

	// Record / calibrate: full analysis runs; build the candidate
	// fingerprint, and in calibrate mode keep validating against the
	// template so EndTrace knows whether captured edges are trustworthy.
	c := at.fingerprint(spec)
	at.cand = append(at.cand, c)
	if at.mode == trCalibrate && !at.failed {
		if !gapless || pos >= len(at.tmpl.tasks) || !at.taskCompatible(at.tmpl.tasks[pos], c) {
			at.failed = true
		}
	}
}

// traceRecordAnalyzed stores an analyzed launch's edges into the
// candidate template (calibrate mode). Caller holds s.mu since the
// launch's traceObserve, so the launch is the instance's latest.
func (s *Session) traceRecordAnalyzed(deps, bytes []int64) {
	at := s.trace
	pos := at.n - 1
	if at.mode != trCalibrate || at.failed || pos >= len(at.cand) {
		return
	}
	prevBase := at.base - int64(at.tmpl.lastLen)
	at.cand[pos].deps = captureDeps(deps, bytes, at.base, prevBase)
}
