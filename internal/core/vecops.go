package core

import (
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// The solver-facing vector operations of Figure 6. Each logical operation
// becomes one task per launch group of the component's canonical
// partition (launchGroups: one per piece wherever a piece holds a grain
// of points), placed on the owning processor of its first piece. Real
// planners perform the arithmetic; virtual planners record only costs.
// Zero, Copy, Scal, Axpy, Xpay and Dot are single-operation calls of the
// one sweep kernel, FusedSweep (fusedops.go), which derives each task's
// privileges, retryability, checksum handling and cost from how the
// operation uses its vectors: the overwriting zero and copy and the
// read-only dot.partial are Retryable (the runtime may re-execute them
// after a transient failure); the read-modify-write scal, axpy and xpay
// are not — a partial first attempt would double-apply, so their failures
// escalate to the solver's checkpoint/restart layer instead.
//
// With SDC detection on (see sdc.go) every operation also maintains the
// per-piece checksum slots of the vectors it writes and verifies, in a
// pre-pass, the checksums of the vectors whose data it reads.

// pieceRef builds a region reference for one piece of one vector
// component.
func pieceRef(reg *region.Region, subset index.IntervalSet, priv region.Privilege) region.Ref {
	return region.Ref{Region: reg.ID(), Subset: subset, Priv: priv}
}

// launchGrain is the fewest points one launched task should hold. Below
// it the runtime's fixed cost per task (about 2.7 µs wall on the benchmark
// host) exceeds the sweep kernel's cost per piece (about 0.7 ns a point),
// so the planner launches adjacent pieces together; the fit is recorded
// in EXPERIMENTS.md ("Launch grain").
const launchGrain = 4096

// pieceGroup is one unit of launch: a run of adjacent colors of one
// component's canonical partition that together hold at least a grain of
// points (the last run of a component holds whatever is left). The unit
// of data stays the piece: a group's one task declares the union of its
// members' subsets and runs the per-piece kernel body once per member in
// color order, so checksum slots, dot partials and the arithmetic are
// those of the per-piece launch. A group of one is that launch exactly.
type pieceGroup struct {
	lo     int                 // first member color
	slot   int                 // global piece slot of color lo; members' slots follow
	proc   int                 // owner of the first member
	pieces []index.IntervalSet // the members' canonical pieces, in color order
	subset index.IntervalSet   // their union
}

// runWith wraps a per-piece kernel body that reads scalars as the body
// of the group's task: the task evaluates each scalar once, before its
// first piece, and hands every piece the values.
func (g *pieceGroup) runWith(scalars []*Scalar, body func(subset index.IntervalSet, slot int, vals []float64)) func() float64 {
	return func() float64 {
		vals := make([]float64, len(scalars))
		for i, s := range scalars {
			vals[i] = s.value()
		}
		for i, subset := range g.pieces {
			body(subset, g.slot+i, vals)
		}
		return 0
	}
}

// launchGroups returns the units of launch of every component of a shape.
// Two kinds of launch keep one task per piece, whatever the pieces hold:
// a virtual planner's (each task models one simulated processor's share,
// so coarsening would change the simulated figures) and, with perPiece
// set, a session with an active fault injector's (a fault plan addresses
// and corrupts or retries one piece task). The groups are rebuilt only
// when that choice changes.
func (p *Planner) launchGroups(shape Shape, perPiece bool) [][]pieceGroup {
	grain := p.grain
	if p.virtual || perPiece {
		grain = 0
	}
	c := &p.groups[shape]
	if c.byComp != nil && c.grain == grain {
		return c.byComp
	}
	comps := p.comps(shape)
	c.grain, c.byComp = grain, make([][]pieceGroup, len(comps))
	slot := 0
	for ci, comp := range comps {
		pieces := comp.part.Pieces()
		for lo := 0; lo < len(pieces); {
			hi, subset := lo+1, pieces[lo]
			for hi < len(pieces) && subset.Size() < grain {
				subset = subset.Union(pieces[hi])
				hi++
			}
			c.byComp[ci] = append(c.byComp[ci], pieceGroup{
				lo: lo, slot: slot + lo, proc: comp.procs[lo],
				pieces: pieces[lo:hi], subset: subset,
			})
			lo = hi
		}
		slot += len(pieces)
	}
	return c.byComp
}

// eachSlot walks the canonical pieces host-side in slot order (checksum
// seeding). Launches go through launchGroups.
func eachSlot(comps []component, fn func(ci, slot int, subset index.IntervalSet)) {
	slot := 0
	for ci, c := range comps {
		for _, subset := range c.part.Pieces() {
			fn(ci, slot, subset)
			slot++
		}
	}
}

// Zero sets dst to the zero vector.
func (p *Planner) Zero(dst VecID) {
	p.FusedSweep([]VecUpdate{{Kind: UpdZero, Dst: dst}}, nil)
}

// Copy performs dst ← src componentwise.
func (p *Planner) Copy(dst, src VecID) {
	if dst != src {
		p.FusedSweep([]VecUpdate{{Kind: UpdCopy, Dst: dst, Src: src}}, nil)
	}
}

// Scal performs dst ← α·dst.
func (p *Planner) Scal(dst VecID, alpha *Scalar) {
	p.FusedSweep([]VecUpdate{{Kind: UpdScal, Dst: dst, Alpha: alpha}}, nil)
}

// Axpy performs dst ← dst + α·src.
func (p *Planner) Axpy(dst VecID, alpha *Scalar, src VecID) {
	p.FusedSweep([]VecUpdate{{Kind: UpdAxpy, Dst: dst, Alpha: alpha, Src: src}}, nil)
}

// Xpay performs dst ← src + α·dst.
func (p *Planner) Xpay(dst VecID, alpha *Scalar, src VecID) {
	p.FusedSweep([]VecUpdate{{Kind: UpdXpay, Dst: dst, Alpha: alpha, Src: src}}, nil)
}

// Dot computes the inner product v·w as a deferred scalar. The piece
// owners compute the partials of their 64-point leaves; the leaves fold
// pairwise in index order — in the first reader on a real planner, in a
// reduction task on processor 0 paying the machine's allreduce cost on a
// virtual one — so the value does not depend on the pieces. This is the
// global synchronization point of every Krylov iteration.
func (p *Planner) Dot(v, w VecID) *Scalar {
	return p.FusedSweep(nil, []DotPair{{V: v, W: w}})[0]
}

// AxpyConst performs dst ← dst + α·src for a compile-time α.
func (p *Planner) AxpyConst(dst VecID, alpha float64, src VecID) {
	p.Axpy(dst, p.Constant(alpha), src)
}
