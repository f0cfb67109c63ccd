package core

import (
	"fmt"
	"math"
	"sync"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// Algorithm-based fault tolerance (ABFT) for silent data corruption.
//
// Threat model: a soft error flips bits in a vector piece *after* the
// producing task computed it (the injector's bitflip/scale kinds model
// exactly this), so no in-task self-check of the producer can see it —
// only an independent invariant carried alongside the data can.
//
// The invariant is a per-(component, piece) checksum: one float64 slot
// per piece of every planner vector, holding Σᵢ vᵢ over the piece as of
// the last write. Writers maintain the slots through the *operation's
// algebra*, not by re-summing their output:
//
//   - zero:     chk ← 0
//   - copy:     chk_d ← chk_s
//   - scal:     chk ← α·chk
//   - axpy:     chk_d ← chk_d + α·chk_s
//   - xpay:     chk_d ← chk_s + α·chk_d
//   - SpMV:     chk += w·x with w the operator's column-checksum vector
//               (wⱼ = Σ_{i∈piece} Aᵢⱼ, precomputed per (operator, piece))
//
// so a corrupted slot value and a corrupted data value cannot cancel. The
// five vector rows are applied by one kernel, the sweep (fusedops.go),
// update by update in a sweep's order whether it holds one operation or
// many; the product applies the last row (matmul.go, whose zero fills of
// pieces no operator writes apply the first). Readers (sweep piece tasks,
// for every vector whose incoming data they read, and product tasks for
// the operands of the dots they carry) re-sum the data they read, compare
// against the slot
// within a relative tolerance, raise an SDCAlarm on mismatch, and refresh
// the slot with the measured sum — the refresh bounds the rounding drift
// of the recurrence maintenance to the few operations between consecutive
// verifications. A vector a sweep overwrites before reading (a copy or
// zero dst) is not verified: its stale data is about to be discarded.
//
// The forward SpMV additionally self-checks in-task: Σ(y over the write
// set) must equal w·x up to rounding, the classic ABFT checksummed SpMV.
// Every dot, single, batched or carried by a product, carries a per-piece
// guard slot (the sum of
// the piece's leaf partials, recomputed bitwise-identically before the
// reduction's first fold), so corruption of the partials between partial and combine
// is caught exactly.
//
// Everything here is opt-in via EnableSDCDetection; with detection off,
// no extra region references, passes, or allocations exist anywhere.
//
// Detection floor: a flip in the low mantissa bits of one entry changes
// Σv by a relative amount far below any tolerance that survives honest
// rounding drift. Such corruptions are undetectable by summation ABFT —
// and numerically harmless at the same order; the recovery layer's
// verified residuals (a convergence claim, the drift test at every
// checkpoint) bound their effect on the returned solution.

// SDCAlarm records one detected checksum violation.
type SDCAlarm struct {
	// Task is the name of the task that detected the mismatch.
	Task string
	// Vec is the planner vector whose piece failed verification, and Slot
	// its global piece index (eachSlot order).
	Vec  VecID
	Slot int
	// Expected is the maintained checksum, Got the sum measured from the
	// data, and Scale the magnitude the tolerance was scaled by.
	Expected, Got, Scale float64
}

func (a SDCAlarm) String() string {
	return fmt.Sprintf("sdc: %s vec %d piece %d: checksum %g, data sums to %g (scale %g)",
		a.Task, a.Vec, a.Slot, a.Expected, a.Got, a.Scale)
}

// SDCMonitor collects checksum alarms from concurrently executing tasks.
// All methods are safe for concurrent use.
type SDCMonitor struct {
	mu     sync.Mutex
	alarms []SDCAlarm
	total  int64
}

func (m *SDCMonitor) report(a SDCAlarm) {
	m.mu.Lock()
	m.alarms = append(m.alarms, a)
	m.total++
	m.mu.Unlock()
}

// Count returns the total number of alarms raised so far (including
// already-taken ones).
func (m *SDCMonitor) Count() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Alarms returns a copy of the pending (un-taken) alarms.
func (m *SDCMonitor) Alarms() []SDCAlarm {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SDCAlarm(nil), m.alarms...)
}

// Take drains and returns the pending alarms. Resilient drivers poll it
// once per iteration and recover from whatever it reports.
func (m *SDCMonitor) Take() []SDCAlarm {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.alarms
	m.alarms = nil
	return out
}

// colCheck is one (operator, output piece)'s sparse column-checksum
// vector: Σ over the piece's rows of each matrix column, stored sparse.
type colCheck struct {
	idx []int64
	val []float64
}

// sdcState is the planner's detection bookkeeping.
type sdcState struct {
	mon *SDCMonitor
	// chk[id] is vector id's checksum region (one slot per piece in
	// eachSlot order), parallel to Planner.vecs.
	chk []*region.Region
	// colchk[op][color] is the forward product's column checksum.
	colchk [][]colCheck
}

// sdcTol is the relative verification tolerance. It rides far above the
// rounding drift the recurrence maintenance accumulates between
// verifications, and far below any exponent- or high-mantissa-bit
// corruption of a well-scaled entry.
const sdcTol = 1e-7

// EnableSDCDetection turns on checksummed kernels for this planner and
// returns the alarm monitor. Every existing vector gets a checksum region
// seeded from its current data, and every operator gets per-piece column
// checksums for the ABFT SpMV; workspaces allocated later join
// automatically. The call requires a
// finalized real-mode planner and a quiescent runtime; calling it again
// returns the same monitor. Detection is observation-only — alarms are
// recorded, never acted on — recovery policy lives in the solver layer.
func (p *Planner) EnableSDCDetection() *SDCMonitor {
	p.mustBeFinalized()
	if p.virtual {
		panic("core: SDC detection requires a real planner")
	}
	if p.sdc != nil {
		return p.sdc.mon
	}
	s := &sdcState{mon: &SDCMonitor{}}
	p.sdc = s
	for id := range p.vecs {
		p.sdcAddVec(VecID(id))
	}
	s.colchk = make([][]colCheck, len(p.ops))
	for oi := range p.ops {
		s.colchk[oi] = p.buildColChecks(&p.ops[oi])
	}
	return s.mon
}

// sdcOn reports whether checksummed kernels are active.
func (p *Planner) sdcOn() bool { return p.sdc != nil && !p.virtual }

// shapePieces returns the total piece count of a shape.
func (p *Planner) shapePieces(shape Shape) int {
	total := 0
	for _, c := range p.comps(shape) {
		total += c.part.NumColors()
	}
	return total
}

// sdcAddVec creates (and seeds) the checksum region of one vector.
func (p *Planner) sdcAddVec(id VecID) {
	s := p.sdc
	for len(s.chk) <= int(id) {
		s.chk = append(s.chk, nil)
	}
	v := p.vecs[id]
	total := p.shapePieces(v.shape)
	reg := region.New(fmt.Sprintf("chk%d", id), index.NewSpace(fmt.Sprintf("chk%d", id), int64(total)))
	s.chk[id] = reg
	p.seedChecksum(id)
}

// seedChecksum recomputes a vector's checksum slots host-side from its
// current data. The runtime must be quiescent.
func (p *Planner) seedChecksum(id VecID) {
	v, comps := p.vecComps(id)
	out := p.sdc.chk[id].Data()
	eachSlot(comps, func(ci, slot int, subset index.IntervalSet) {
		d := v.regs[ci].Data()
		var sum float64
		subset.EachInterval(func(iv index.Interval) {
			for i := iv.Lo; i <= iv.Hi; i++ {
				sum += d[i]
			}
		})
		out[slot] = sum
	})
}

// buildColChecks computes the forward column-checksum vectors of one
// operator: for each output piece, w = Aᵀ·1 over the piece's write set,
// sparsified. w·x then predicts Σ of the piece's SpMV contribution.
func (p *Planner) buildColChecks(op *opEntry) []colCheck {
	outPart := p.rhs[op.rhsIdx].part
	domain := p.sol[op.solIdx].space.Size()
	rng := p.rhs[op.rhsIdx].space.Size()
	out := make([]colCheck, outPart.NumColors())
	ind := make([]float64, rng)
	w := make([]float64, domain)
	for color := range out {
		kset := op.kpart.Piece(color)
		outSet := op.outImage.Piece(color)
		if kset.Empty() || outSet.Empty() {
			continue
		}
		outSet.EachInterval(func(iv index.Interval) {
			for i := iv.Lo; i <= iv.Hi; i++ {
				ind[i] = 1
			}
		})
		for j := range w {
			w[j] = 0
		}
		op.mat.MultiplyAddTPart(w, ind, kset)
		var cc colCheck
		for j, wj := range w {
			if wj != 0 {
				cc.idx = append(cc.idx, int64(j))
				cc.val = append(cc.val, wj)
			}
		}
		out[color] = cc
		outSet.EachInterval(func(iv index.Interval) {
			for i := iv.Lo; i <= iv.Hi; i++ {
				ind[i] = 0
			}
		})
	}
	return out
}

// chkRef builds the region reference for n consecutive checksum slots.
func (p *Planner) chkRef(id VecID, slot, n int, priv region.Privilege) region.Ref {
	return region.Ref{
		Region: p.sdc.chk[id].ID(), Subset: index.Span(int64(slot), int64(slot+n-1)), Priv: priv,
	}
}

// chkData returns a vector's checksum slot storage.
func (p *Planner) chkData(id VecID) []float64 { return p.sdc.chk[id].Data() }

// verifySlot compares a measured piece sum against the maintained
// checksum, raises an alarm on mismatch, and refreshes the slot with the
// measured value (bounding recurrence drift to the span between
// verifications). abs is Σ|vᵢ|, the magnitude the tolerance scales by.
func verifySlot(mon *SDCMonitor, task string, id VecID, slot int, chk []float64, sum, abs float64) {
	expected := chk[slot]
	scale := abs + math.Abs(expected) + 1
	if diff := math.Abs(expected - sum); diff > sdcTol*scale || diff != diff {
		mon.report(SDCAlarm{Task: task, Vec: id, Slot: slot, Expected: expected, Got: sum, Scale: scale})
	}
	chk[slot] = sum
}

// sumPiece computes Σv and Σ|v| of one piece.
func sumPiece(d []float64, subset index.IntervalSet) (sum, abs float64) {
	subset.EachInterval(func(iv index.Interval) {
		for i := iv.Lo; i <= iv.Hi; i++ {
			sum += d[i]
			abs += math.Abs(d[i])
		}
	})
	return sum, abs
}

// nthPoint returns the k-th point (0-based) of an interval set.
func nthPoint(s index.IntervalSet, k int64) int64 {
	var out int64 = -1
	var seen int64
	s.EachInterval(func(iv index.Interval) {
		if out >= 0 {
			return
		}
		n := iv.Hi - iv.Lo + 1
		if k < seen+n {
			out = iv.Lo + (k - seen)
		}
		seen += n
	})
	return out
}

// corruptTarget is one writable (data, subset) pair of a task, exposed to
// the fault injector's data-corruption hook.
type corruptTarget struct {
	data   []float64
	subset index.IntervalSet
}

// corruptHook builds a TaskSpec.Corrupt callback over the task's writable
// points: the injection's Pos picks one element across the concatenated
// targets and CorruptValue mangles it in place. The hook runs after the
// task body, inside the task's declared write privileges.
func corruptHook(targets ...corruptTarget) func(fault.Injection) {
	return func(inj fault.Injection) {
		var total int64
		for _, t := range targets {
			total += t.subset.Size()
		}
		if total == 0 {
			return
		}
		k := int64(inj.Pos * float64(total))
		if k >= total {
			k = total - 1
		}
		for _, t := range targets {
			sz := t.subset.Size()
			if k < sz {
				i := nthPoint(t.subset, k)
				t.data[i] = inj.CorruptValue(t.data[i])
				return
			}
			k -= sz
		}
	}
}

// faultHooks reports whether per-launch corruption hooks should be built:
// only when an injector is installed, so clean runs pay nothing.
func (p *Planner) faultHooks() bool {
	return !p.virtual && p.sess.FaultsActive()
}
