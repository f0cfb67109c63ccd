package core

import (
	"math"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// Matmul computes dst ← A_total · src (Section 4.1): for every operator
// quadruple (K_ℓ, A_ℓ, i_ℓ, j_ℓ) a multiply-add y_{j_ℓ} ← A_ℓ x_{i_ℓ} +
// y_{j_ℓ} is launched per output piece. The first task writing each
// output piece takes write-discard privilege and zeroes the piece inline
// (no separate zero pass costs bandwidth); later tasks into the same
// piece carry reduction privileges, so the runtime's interference
// analysis serializes exactly the conflicting pairs and everything else
// overlaps. Output pieces no operator touches are zeroed explicitly
// (the empty sum of equation 8).
//
// With SDC detection on this is the checksummed SpMV: each forward
// multiply-add also evaluates its precomputed column-checksum prediction
// w·x, compares it against the contribution it actually wrote (the ABFT
// invariant Σ(A x)|piece = (Aᵀ1)·x), and maintains the dst piece
// checksums. Adjoint and preconditioner products maintain the checksums
// from their computed output without the independent w·x cross-check.
// Source-halo pieces are not re-verified here — solver sources are
// recurrence vectors whose checksums the vector sweeps verify each
// iteration.
//
// dst must be range-shaped-compatible and src domain-shaped-compatible
// with the system (interchangeable for square systems).
func (p *Planner) Matmul(dst, src VecID) {
	p.mustBeFinalized()
	p.checkMatmulShapes(p.vecs[dst], p.vecs[src])
	p.runMultiOp(p.ops, dst, src, false, false)
}

// MatmulT computes dst ← A_totalᵀ · src: the adjoint product, partitioned
// by the domain components' canonical partitions.
func (p *Planner) MatmulT(dst, src VecID) {
	p.mustBeFinalized()
	p.checkMatmulTShapes(p.vecs[dst], p.vecs[src])
	p.runMultiOp(p.ops, dst, src, true, false)
}

// PSolve computes dst ← P_total · src, applying the user-supplied
// preconditioner components. It panics when no preconditioner was added.
func (p *Planner) PSolve(dst, src VecID) {
	p.mustBeFinalized()
	if !p.HasPreconditioner() {
		panic("core: PSolve without a preconditioner")
	}
	p.runMultiOp(p.pre, dst, src, false, true)
}

// opTarget describes where one operator writes and reads for a forward or
// adjoint pass.
func opTarget(op *opEntry, adjoint, pre bool) (outIdx, inIdx int, kpart, inHalo, outImage index.Partition) {
	switch {
	case pre:
		return op.solIdx, op.rhsIdx, op.kpart, op.inHalo, op.outImage
	case adjoint:
		return op.solIdx, op.rhsIdx, op.kpartT, op.inHaloT, op.outImageT
	default:
		return op.rhsIdx, op.solIdx, op.kpart, op.inHalo, op.outImage
	}
}

// runMultiOp launches the decomposed product over an operator set. Every
// point of the output vector is zeroed exactly once before any
// multiply-add touches it: the operator that first reaches a point zeroes
// it inline (write-discard when its whole write set is fresh), and points
// no operator writes get explicit zero tasks (the empty sum of
// equation 8).
func (p *Planner) runMultiOp(ops []opEntry, dst, src VecID, adjoint, pre bool) {
	dv, sv := p.vecs[dst], p.vecs[src]
	outComps := p.rhs
	if adjoint || pre {
		outComps = p.sol
	}
	// covered[comp][color] accumulates the points already written in this
	// product; wrote tracks whether any task (checksum-wise, the slot
	// writer) reached the piece yet.
	covered := make([][]index.IntervalSet, len(outComps))
	wrote := make([][]bool, len(outComps))
	compOff := make([]int, len(outComps))
	off := 0
	for i, c := range outComps {
		covered[i] = make([]index.IntervalSet, c.part.NumColors())
		wrote[i] = make([]bool, c.part.NumColors())
		compOff[i] = off
		off += c.part.NumColors()
	}
	name := "matmul"
	if adjoint {
		name = "matmulT"
	} else if pre {
		name = "psolve"
	}
	sdc := p.sdcOn()
	for oi := range ops {
		op := &ops[oi]
		outIdx, inIdx, kpart, inHalo, outImage := opTarget(op, adjoint, pre)
		outComp := outComps[outIdx]
		outReg, inReg := dv.regs[outIdx], sv.regs[inIdx]
		for color := 0; color < outComp.part.NumColors(); color++ {
			kset := kpart.Piece(color)
			outSet := outImage.Piece(color)
			if kset.Empty() || outSet.Empty() {
				continue
			}
			fresh := outSet.Subtract(covered[outIdx][color])
			covered[outIdx][color] = covered[outIdx][color].Union(outSet)
			var cc *colCheck
			if sdc && !adjoint && !pre {
				if cols := p.sdc.colchk[oi]; color < len(cols) && cols[color].idx != nil {
					cc = &cols[color]
				}
			}
			p.launchMultiplyAdd(name, oi, color, op, outReg, inReg,
				outComp, kset, inHalo.Piece(color), outSet, fresh, adjoint, pre,
				dst, compOff[outIdx]+color, !wrote[outIdx][color], cc)
			wrote[outIdx][color] = true
		}
	}
	// Zero whatever no operator wrote.
	for ci, c := range outComps {
		for color := 0; color < c.part.NumColors(); color++ {
			rest := c.part.Piece(color).Subtract(covered[ci][color])
			if !rest.Empty() {
				p.zeroPiece(dv.regs[ci], rest, c.procs[color],
					dst, compOff[ci]+color, !wrote[ci][color])
				wrote[ci][color] = true
			}
		}
	}
	// The whole product — every operator's multiply-adds plus the
	// explicit zero fills — submits as one fused batch.
	p.flushBatch()
}

// launchMultiplyAdd launches one multiply-add task for one output piece of
// one operator. outSet is the task's true write set; fresh is the part of
// it no earlier operator wrote, which the task zeroes inline before
// accumulating. A fully fresh write set takes write-discard privilege;
// any overlap with earlier writers takes reduction privilege, which the
// runtime orders. first marks the checksum-slot initializer of the piece
// in this product; cc, when non-nil, is the forward product's
// column-checksum vector for the ABFT cross-check.
func (p *Planner) launchMultiplyAdd(name string, opIdx, color int, op *opEntry,
	outReg, inReg *region.Region, outComp component,
	kset, inSet, outSet, fresh index.IntervalSet, adjoint, pre bool,
	dst VecID, slot int, first bool, cc *colCheck) {

	proc := outComp.procs[color]
	if !pre && p.mmProc != nil {
		if q := p.mmProc(opIdx, color); q >= 0 {
			proc = q
		}
	}
	priv := region.ReduceSum
	if fresh.Equal(outSet) {
		priv = region.WriteDiscard
	}
	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chk []float64
	var mon *SDCMonitor
	var tol float64
	if sdc {
		chk = p.chkData(dst)
		mon, tol = p.sdc.mon, p.sdc.tol
	}
	var run func() float64
	if !p.virtual {
		y := outReg.Field("v")
		x := inReg.Field("v")
		mat := op.mat
		ks, fr, os := kset, fresh, outSet
		wd := priv == region.WriteDiscard
		run = func() float64 {
			var before float64
			if sdc && !wd {
				// A reduction task folds into earlier writers' data; its own
				// contribution is the sum delta over its write set.
				before, _ = sumPiece(y, os)
			}
			fr.EachInterval(func(iv index.Interval) {
				for i := iv.Lo; i <= iv.Hi; i++ {
					y[i] = 0
				}
			})
			if adjoint {
				mat.MultiplyAddTPart(y, x, ks)
			} else {
				mat.MultiplyAddPart(y, x, ks)
			}
			if sdc {
				after, abs := sumPiece(y, os)
				contrib := after - before
				if cc != nil {
					// The checksummed SpMV invariant: the contribution this
					// task wrote must match the column-checksum prediction
					// w·x computed from independent data.
					var wx float64
					for t, j := range cc.idx {
						wx += cc.val[t] * x[j]
					}
					scale := abs + math.Abs(wx) + 1
					if diff := math.Abs(wx - contrib); diff > tol*scale || diff != diff {
						mon.report(SDCAlarm{
							Task: "matmul.abft", Vec: dst, Slot: slot,
							Expected: wx, Got: contrib, Scale: scale,
						})
					}
				}
				if first {
					chk[slot] = contrib
				} else {
					chk[slot] += contrib
				}
			}
			return 0
		}
	}
	spec := taskrt.TaskSpec{
		Name: name, Proc: proc, Piece: slot + 1,
		Cost: p.mach.SpMVCost(kset.Size(), outSet.Size()),
		Refs: []region.Ref{
			pieceRef(outReg, outSet, priv),
			pieceRef(inReg, inSet, region.ReadOnly),
		},
		Run: run,
		// A write-discard multiply-add zeroes its whole write set before
		// accumulating, so re-execution is safe; a reduction into data
		// earlier operators wrote is not, and neither is a checksum-slot
		// accumulation (chk[slot] += contrib would double-apply).
		Retryable: priv == region.WriteDiscard && (!sdc || first),
	}
	if sdc {
		chkPriv := region.ReadWrite
		if first {
			chkPriv = region.WriteDiscard
		}
		spec.Refs = append(spec.Refs, p.chkRef(dst, slot, chkPriv))
	}
	if hooks {
		spec.Corrupt = corruptHook(corruptTarget{outReg.Field("v"), outSet})
	}
	p.batch(spec)
}

// zeroPiece launches a zero-fill of one piece (or the remainder of one).
// When it is the piece's first checksum writer in a product — no operator
// touched the piece at all — it also zeroes the checksum slot.
func (p *Planner) zeroPiece(reg *region.Region, subset index.IntervalSet, proc int,
	dst VecID, slot int, first bool) {

	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chk []float64
	if sdc {
		chk = p.chkData(dst)
	}
	var run func() float64
	if !p.virtual {
		d := reg.Field("v")
		run = func() float64 {
			subset.EachInterval(func(iv index.Interval) {
				for i := iv.Lo; i <= iv.Hi; i++ {
					d[i] = 0
				}
			})
			if sdc && first {
				chk[slot] = 0
			}
			return 0
		}
	}
	spec := taskrt.TaskSpec{
		Name: "zero", Proc: proc, Piece: slot + 1,
		Cost: p.mach.Blas1Cost(subset.Size()),
		Refs: []region.Ref{pieceRef(reg, subset, region.WriteDiscard)},
		Run:  run, Retryable: true,
	}
	if sdc && first {
		spec.Refs = append(spec.Refs, p.chkRef(dst, slot, region.WriteDiscard))
	}
	if hooks {
		spec.Corrupt = corruptHook(corruptTarget{reg.Field("v"), subset})
	}
	p.batch(spec)
}

// checkMatmulShapes panics unless dst matches the range components and
// src the domain components.
func (p *Planner) checkMatmulShapes(dv, sv vec) {
	if len(dv.regs) != len(p.rhs) || len(sv.regs) != len(p.sol) {
		panic("core: Matmul vector component counts do not match the system")
	}
	for j, c := range p.rhs {
		if dv.regs[j].Space().Size() != c.space.Size() {
			panic("core: Matmul destination shape mismatch")
		}
	}
	for i, c := range p.sol {
		if sv.regs[i].Space().Size() != c.space.Size() {
			panic("core: Matmul source shape mismatch")
		}
	}
}

// checkMatmulTShapes panics unless dst matches the domain components and
// src the range components.
func (p *Planner) checkMatmulTShapes(dv, sv vec) {
	if len(dv.regs) != len(p.sol) || len(sv.regs) != len(p.rhs) {
		panic("core: MatmulT vector component counts do not match the system")
	}
	for i, c := range p.sol {
		if dv.regs[i].Space().Size() != c.space.Size() {
			panic("core: MatmulT destination shape mismatch")
		}
	}
	for j, c := range p.rhs {
		if sv.regs[j].Space().Size() != c.space.Size() {
			panic("core: MatmulT source shape mismatch")
		}
	}
}
