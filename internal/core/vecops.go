package core

import (
	"math"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// The solver-facing vector operations of Figure 6. Each logical operation
// becomes one task per component piece (an index launch over the
// canonical partition), placed on the piece's owning processor. Real
// planners perform the arithmetic; virtual planners record only costs.
// Copy and Scal build their tasks here and Zero through the product's
// zeroPiece (write-discard privilege, retryability and their own cost
// models set them apart); Axpy, Xpay and Dot are single-operation calls
// of the one sweep kernel, FusedSweep (fusedops.go).
//
// Tasks whose bodies are idempotent — they fully overwrite their outputs
// and read nothing they write (zero, copy, dot.partial, dot.reduce) — are
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

// eachPiece iterates the canonical pieces of the dst components.
func eachPiece(comps []component, fn func(ci, color int, subset index.IntervalSet, proc int)) {
	for ci, c := range comps {
		for color := 0; color < c.part.NumColors(); color++ {
			fn(ci, color, c.part.Piece(color), c.procs[color])
		}
	}
}

// Zero sets dst to the zero vector.
func (p *Planner) Zero(dst VecID) {
	p.mustBeFinalized()
	dv, dc := p.vecComps(dst)
	slot := 0
	eachPiece(dc, func(ci, color int, subset index.IntervalSet, proc int) {
		p.zeroPiece(dv.regs[ci], subset, proc, dst, slot, true)
		slot++
	})
	p.flushBatch()
}

// Copy performs dst ← src componentwise.
func (p *Planner) Copy(dst, src VecID) {
	p.mustBeFinalized()
	if dst == src {
		return
	}
	p.checkCompatible(dst, src)
	dv, dc := p.vecComps(dst)
	sv := p.vecs[src]
	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chkD, chkS []float64
	var mon *SDCMonitor
	var tol float64
	if sdc {
		chkD, chkS = p.chkData(dst), p.chkData(src)
		mon, tol = p.sdc.mon, p.sdc.tol
	}
	slot := 0
	eachPiece(dc, func(ci, color int, subset index.IntervalSet, proc int) {
		mySlot := slot
		slot++
		var run func() float64
		if !p.virtual {
			d, s := dv.regs[ci].Field("v"), sv.regs[ci].Field("v")
			run = func() float64 {
				if !sdc {
					subset.EachInterval(func(iv index.Interval) {
						copy(d[iv.Lo:iv.Hi+1], s[iv.Lo:iv.Hi+1])
					})
					return 0
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
				verifySlot(mon, tol, "copy", src, mySlot, chkS, sum, abs)
				chkD[mySlot] = sum
				return 0
			}
		}
		spec := taskrt.TaskSpec{
			Name: "copy", Proc: proc, Piece: mySlot + 1,
			Cost: p.mach.CopyCost(subset.Size()),
			Refs: []region.Ref{
				pieceRef(dv.regs[ci], subset, region.WriteDiscard),
				pieceRef(sv.regs[ci], subset, region.ReadOnly),
			},
			Run: run, Retryable: true,
		}
		if sdc {
			spec.Refs = append(spec.Refs,
				p.chkRef(dst, mySlot, region.WriteDiscard),
				p.chkRef(src, mySlot, region.ReadWrite))
		}
		if hooks {
			spec.Corrupt = corruptHook(corruptTarget{dv.regs[ci].Field("v"), subset})
		}
		p.batch(spec)
	})
	p.flushBatch()
}

// Scal performs dst ← α·dst.
func (p *Planner) Scal(dst VecID, alpha *Scalar) {
	p.mustBeFinalized()
	dv, dc := p.vecComps(dst)
	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chkD []float64
	var mon *SDCMonitor
	var tol float64
	if sdc {
		chkD = p.chkData(dst)
		mon, tol = p.sdc.mon, p.sdc.tol
	}
	slot := 0
	eachPiece(dc, func(ci, color int, subset index.IntervalSet, proc int) {
		mySlot := slot
		slot++
		var run func() float64
		if !p.virtual {
			d := dv.regs[ci].Field("v")
			a := alpha.reg.Field("s")
			run = func() float64 {
				av := a[0]
				if !sdc {
					subset.EachInterval(func(iv index.Interval) {
						for i := iv.Lo; i <= iv.Hi; i++ {
							d[i] *= av
						}
					})
					return 0
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
				verifySlot(mon, tol, "scal", dst, mySlot, chkD, sum, abs)
				chkD[mySlot] = av * sum
				return 0
			}
		}
		spec := taskrt.TaskSpec{
			Name: "scal", Proc: proc, Piece: mySlot + 1,
			Cost: p.mach.ScalCost(subset.Size()),
			Refs: []region.Ref{
				pieceRef(dv.regs[ci], subset, region.ReadWrite),
				alpha.ref(region.ReadOnly),
			},
			Run: run,
		}
		if sdc {
			spec.Refs = append(spec.Refs, p.chkRef(dst, mySlot, region.ReadWrite))
		}
		if hooks {
			spec.Corrupt = corruptHook(corruptTarget{dv.regs[ci].Field("v"), subset})
		}
		p.batch(spec)
	})
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
// partial dots run on the piece owners; a reduction task on processor 0
// then combines the partials in deterministic (color) order, paying the
// machine's allreduce cost. This is the global synchronization point of
// every Krylov iteration.
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
