package solvers

import (
	"testing"

	"kdrsolvers/internal/core"
)

// CheckpointSol/RestoreSol land host-side writes in the middle of a
// memoized, actively-splicing trace ("cg.step" replays after a few
// iterations). The restore must not desynchronize the template: the
// runtime either keeps replaying (the restore happens on a quiescent
// runtime, so every spliced dependence is already satisfied) or falls
// back to full analysis and re-records — and either way the computed
// iterates are bitwise identical to the untraced run of the same
// checkpoint/restore/restart sequence.
func TestTraceCheckpointRestoreMidSplice(t *testing.T) {
	a, b := sdcProblem()
	run := func(tracing bool) []float64 {
		p := planFor(a, b, 4)
		p.SetTracing(tracing)
		s := NewCG(p)
		RunIterations(s, 6) // enough instances to memoize and replay
		p.Drain()
		ckpt := p.CheckpointSol()
		RunIterations(s, 4)
		p.Drain()
		p.RestoreSol(ckpt) // mid-splice host-side write
		// The restore desynchronized the recurrence (r, p) from x; restart
		// from it exactly as a resilient driver would before iterating on.
		s.restart()
		RunIterations(s, 6)
		p.Drain()
		if tracing {
			st := p.Runtime().Stats()
			if st.TraceHits == 0 {
				t.Fatal("trace replay never engaged — the mid-splice scenario is vacuous")
			}
		}
		return append([]float64(nil), p.VecData(core.SOL, 0)...)
	}
	want := run(false)
	got := run(true)
	if d := maxAbsDiff(want, got); d != 0 {
		t.Fatalf("traced run diverges from untraced run by %g after mid-splice restore", d)
	}
}
