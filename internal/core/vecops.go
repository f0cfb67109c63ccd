package core

import (
	"math"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// The solver-facing vector operations of Figure 6. Each logical operation
// becomes one task per launch group of the component's canonical
// partition (launchGroups: one per piece wherever a piece holds a grain
// of points), placed on the owning processor of its first piece. Real
// planners perform the arithmetic; virtual planners record only costs.
// Copy and Scal build their tasks here and Zero through the product's
// zeroPieces (write-discard privilege, retryability and their own cost
// models set them apart); Axpy, Xpay and Dot are single-operation calls
// of the one sweep kernel, FusedSweep (fusedops.go).
//
// Tasks whose bodies are idempotent — they fully overwrite their outputs
// and read nothing they write (zero, copy, dot.partial) — are
// marked Retryable so the runtime may re-execute them after a transient
// failure. Read-modify-write bodies (scal, axpy, xpay) are not: a partial
// first attempt would double-apply, so their failures escalate to the
// solver's checkpoint/restart layer instead.
//
// With SDC detection on (see sdc.go) every operation also maintains the
// per-piece checksum slots of the vectors it writes and verifies the
// checksums of the vectors it reads. Copy and Scal fold the sums into the
// pass they already make; a sweep verifies in a pre-pass.

// pieceRef builds a region reference for one piece of one vector
// component.
func pieceRef(reg *region.Region, subset index.IntervalSet, priv region.Privilege) region.Ref {
	return region.Ref{Region: reg.ID(), Field: "v", Subset: subset, Priv: priv}
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

// run wraps a per-piece kernel body as the body of the group's task.
func (g *pieceGroup) run(body func(subset index.IntervalSet, slot int)) func() float64 {
	return func() float64 {
		for i, subset := range g.pieces {
			body(subset, g.slot+i)
		}
		return 0
	}
}

// runWith is run for a body that reads scalars: the task evaluates each
// one once, before its first piece, and hands every piece the values.
func (g *pieceGroup) runWith(scalars []*Scalar, body func(subset index.IntervalSet, slot int, vals []float64)) func() float64 {
	return func() float64 {
		vals := make([]float64, len(scalars))
		for i, s := range scalars {
			vals[i] = s.eval()
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
// seeding, piece restore). Launches go through launchGroups.
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
	p.mustBeFinalized()
	dv := p.vecs[dst]
	for ci, groups := range p.launchGroups(dv.shape, p.faultHooks()) {
		for gi := range groups {
			g := &groups[gi]
			p.zeroPieces(dv.regs[ci], g.subset, g.proc, dst, g.slot, len(g.pieces))
		}
	}
	p.flushBatch()
}

// Copy performs dst ← src componentwise.
func (p *Planner) Copy(dst, src VecID) {
	p.mustBeFinalized()
	if dst == src {
		return
	}
	p.checkCompatible(dst, src)
	dv, sv := p.vecs[dst], p.vecs[src]
	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chkD, chkS []float64
	var mon *SDCMonitor
	var tol float64
	if sdc {
		chkD, chkS = p.chkData(dst), p.chkData(src)
		mon, tol = p.sdc.mon, p.sdc.tol
	}
	for ci, groups := range p.launchGroups(dv.shape, hooks) {
		var body func(subset index.IntervalSet, slot int)
		if !p.virtual {
			d, s := dv.regs[ci].Field("v"), sv.regs[ci].Field("v")
			body = func(subset index.IntervalSet, slot int) {
				if !sdc {
					subset.EachInterval(func(iv index.Interval) {
						copy(d[iv.Lo:iv.Hi+1], s[iv.Lo:iv.Hi+1])
					})
					return
				}
				var sum, abs float64
				subset.EachInterval(func(iv index.Interval) {
					for i := iv.Lo; i <= iv.Hi; i++ {
						v := s[i]
						d[i] = v
						sum += v
						abs += math.Abs(v)
					}
				})
				verifySlot(mon, tol, "copy", src, slot, chkS, sum, abs)
				chkD[slot] = sum
			}
		}
		for gi := range groups {
			g := &groups[gi]
			spec := taskrt.TaskSpec{
				Name: "copy", Proc: g.proc, Piece: g.slot + 1,
				Cost: p.mach.CopyCost(g.subset.Size()),
				Refs: []region.Ref{
					pieceRef(dv.regs[ci], g.subset, region.WriteDiscard),
					pieceRef(sv.regs[ci], g.subset, region.ReadOnly),
				},
				Retryable: true,
			}
			if body != nil {
				spec.Run = g.run(body)
			}
			if sdc {
				spec.Refs = append(spec.Refs,
					p.chkRef(dst, g.slot, len(g.pieces), region.WriteDiscard),
					p.chkRef(src, g.slot, len(g.pieces), region.ReadWrite))
			}
			if hooks {
				spec.Corrupt = corruptHook(corruptTarget{dv.regs[ci].Field("v"), g.subset})
			}
			p.batch(spec)
		}
	}
	p.flushBatch()
}

// Scal performs dst ← α·dst.
func (p *Planner) Scal(dst VecID, alpha *Scalar) {
	p.mustBeFinalized()
	dv := p.vecs[dst]
	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chkD []float64
	var mon *SDCMonitor
	var tol float64
	if sdc {
		chkD = p.chkData(dst)
		mon, tol = p.sdc.mon, p.sdc.tol
	}
	alphas := []*Scalar{alpha}
	for ci, groups := range p.launchGroups(dv.shape, hooks) {
		var body func(subset index.IntervalSet, slot int, a []float64)
		if !p.virtual {
			d := dv.regs[ci].Field("v")
			body = func(subset index.IntervalSet, slot int, a []float64) {
				av := a[0]
				if !sdc {
					subset.EachInterval(func(iv index.Interval) {
						for i := iv.Lo; i <= iv.Hi; i++ {
							d[i] *= av
						}
					})
					return
				}
				var sum, abs float64
				subset.EachInterval(func(iv index.Interval) {
					for i := iv.Lo; i <= iv.Hi; i++ {
						v := d[i]
						sum += v
						abs += math.Abs(v)
						d[i] = av * v
					}
				})
				verifySlot(mon, tol, "scal", dst, slot, chkD, sum, abs)
				chkD[slot] = av * sum
			}
		}
		for gi := range groups {
			g := &groups[gi]
			spec := taskrt.TaskSpec{
				Name: "scal", Proc: g.proc, Piece: g.slot + 1,
				Cost: p.mach.ScalCost(g.subset.Size()),
				Refs: []region.Ref{pieceRef(dv.regs[ci], g.subset, region.ReadWrite)},
			}
			for _, l := range alpha.leaves {
				spec.Refs = append(spec.Refs, l.ref)
			}
			if body != nil {
				spec.Run = g.runWith(alphas, body)
			}
			if sdc {
				spec.Refs = append(spec.Refs, p.chkRef(dst, g.slot, len(g.pieces), region.ReadWrite))
			}
			if hooks {
				spec.Corrupt = corruptHook(corruptTarget{dv.regs[ci].Field("v"), g.subset})
			}
			p.batch(spec)
		}
	}
	p.flushBatch()
}

// Axpy performs dst ← dst + α·src.
func (p *Planner) Axpy(dst VecID, alpha *Scalar, src VecID) {
	p.FusedSweep([]VecUpdate{{Kind: UpdAxpy, Dst: dst, Alpha: alpha, Src: src}}, nil)
}

// Xpay performs dst ← src + α·dst.
func (p *Planner) Xpay(dst VecID, alpha *Scalar, src VecID) {
	p.FusedSweep([]VecUpdate{{Kind: UpdXpay, Dst: dst, Alpha: alpha, Src: src}}, nil)
}

// Dot computes the inner product v·w as a deferred scalar. Per-piece
// partial dots run on the piece owners; the partials combine in
// deterministic (color) order — in every reader on a real planner, in a
// reduction task on processor 0 paying the machine's allreduce cost on a
// virtual one. This is the global synchronization point of every Krylov
// iteration.
func (p *Planner) Dot(v, w VecID) *Scalar {
	return p.FusedSweep(nil, []DotPair{{V: v, W: w}})[0]
}

// AxpyConst and friends are conveniences over constant scalars.

// AxpyConst performs dst ← dst + α·src for a compile-time α.
func (p *Planner) AxpyConst(dst VecID, alpha float64, src VecID) {
	p.Axpy(dst, p.Constant(alpha), src)
}

// ScalConst performs dst ← α·dst for a compile-time α.
func (p *Planner) ScalConst(dst VecID, alpha float64) {
	p.Scal(dst, p.Constant(alpha))
}
