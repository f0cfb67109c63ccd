package core

import (
	"math"
	"slices"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// Matmul computes dst ← A_total · src (Section 4.1): for every operator
// quadruple (K_ℓ, A_ℓ, i_ℓ, j_ℓ) a multiply-add y_{j_ℓ} ← A_ℓ x_{i_ℓ} +
// y_{j_ℓ} is launched per output piece (per launch group of small pieces). The first task writing each
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
//
// The product carries the dots of its output: each pair in dots becomes
// one deferred scalar, returned in pair order. When every output piece
// has a single writer — one task that computes the whole piece, as with
// one operator component — that task also computes the pairs' leaf
// partials over the piece it just wrote, reading the other operands'
// pieces, so the dots cost no launch and no second pass over a vector
// still in cache. Otherwise, and on virtual planners, with SDC detection
// or with a fault injector active, the pairs launch as a dot sweep
// after the product (tasks named matmul.dots, or psolve.dots), whose
// checksum pre-pass verifies the operands. Both compute the canonical
// dot (fusedops.go), so the scalars carry the same bits either way.
func (p *Planner) Matmul(dst, src VecID, dots ...DotPair) []*Scalar {
	p.mustBeFinalized()
	p.checkMatmulShapes(p.vecs[dst], p.vecs[src])
	return p.runMultiOp(p.ops, dst, src, false, false, dots)
}

// MatmulT computes dst ← A_totalᵀ · src: the adjoint product, partitioned
// by the domain components' canonical partitions. The first call derives
// the adjoint co-partitions.
func (p *Planner) MatmulT(dst, src VecID) {
	p.mustBeFinalized()
	p.checkMatmulTShapes(p.vecs[dst], p.vecs[src])
	p.deriveAdjoint()
	p.runMultiOp(p.ops, dst, src, true, false, nil)
}

// PSolve computes dst ← P_total · src, applying the user-supplied
// preconditioner components, and carries the dots of its output as
// Matmul does. It panics when no preconditioner was added.
func (p *Planner) PSolve(dst, src VecID, dots ...DotPair) []*Scalar {
	p.mustBeFinalized()
	if !p.HasPreconditioner() {
		panic("core: PSolve without a preconditioner")
	}
	return p.runMultiOp(p.pre, dst, src, false, true, dots)
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
// equation 8). Each operator launches one multiply-add per launch group of
// its output component (launchGroups), covering the group's output pieces
// in color order. It returns the scalars of the dot pairs the product
// carries (Matmul).
func (p *Planner) runMultiOp(ops []opEntry, dst, src VecID, adjoint, pre bool, dots []DotPair) []*Scalar {
	dv, sv := p.vecs[dst], p.vecs[src]
	outShape := RhsShape
	if adjoint || pre {
		outShape = SolShape
	}
	outComps := p.comps(outShape)
	sdc, hooks := p.sdcOn(), p.faultHooks()
	outGroups := p.launchGroups(outShape, hooks)
	var rd *riders
	if len(dots) > 0 && !p.virtual && !sdc && !hooks && p.soleWriters(ops, outShape, adjoint, pre) {
		rd = p.newRiders(dst, outShape, dots)
	}
	// covered[comp][color] accumulates the points already written in this
	// product; wrote tracks whether any task (checksum-wise, the slot
	// writer) reached the piece yet.
	covered := make([][]index.IntervalSet, len(outComps))
	wrote := make([][]bool, len(outComps))
	for i, c := range outComps {
		covered[i] = make([]index.IntervalSet, c.part.NumColors())
		wrote[i] = make([]bool, c.part.NumColors())
	}
	name := "matmul"
	if adjoint {
		name = "matmulT"
	} else if pre {
		name = "psolve"
	}
	for oi := range ops {
		op := &ops[oi]
		outIdx, inIdx, kpart, inHalo, outImage := opTarget(op, adjoint, pre)
		for gi := range outGroups[outIdx] {
			g := &outGroups[outIdx][gi]
			members := make([]mulMember, 0, len(g.pieces))
			var inSet index.IntervalSet
			for i := range g.pieces {
				color := g.lo + i
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
				members = append(members, mulMember{
					kset: kset, outSet: outSet, fresh: fresh, slot: g.slot + i,
					fold: !fresh.Equal(outSet), first: !wrote[outIdx][color], cc: cc,
				})
				inSet = unionInto(inSet, inHalo.Piece(color))
				wrote[outIdx][color] = true
			}
			if len(members) > 0 {
				p.launchMultiplyAdd(name, oi, g, op, outIdx, dv.regs[outIdx], sv.regs[inIdx],
					members, inSet, adjoint, pre, dst, rd)
			}
		}
	}
	// Zero whatever no operator wrote: one fill per run of adjacent members
	// of a group that have such points and agree on whether the fill is the
	// piece's first checksum writer.
	for ci, groups := range outGroups {
		for gi := range groups {
			g := &groups[gi]
			var rest index.IntervalSet // the open run's points
			var start, n int           // its first member and its length
			var first bool
			fill := func() {
				if n > 0 {
					slots := 0
					if first {
						slots = n
					}
					p.zeroPieces(dv.regs[ci], rest, outComps[ci].procs[g.lo+start],
						dst, g.slot+start, slots)
				}
				rest, n = index.IntervalSet{}, 0
			}
			for i, piece := range g.pieces {
				r := piece.Subtract(covered[ci][g.lo+i])
				f := !wrote[ci][g.lo+i]
				if r.Empty() || f != first {
					fill()
				}
				if r.Empty() {
					continue
				}
				if n == 0 {
					start, first = i, f
				}
				rest = unionInto(rest, r)
				n++
			}
			fill()
		}
	}
	// The whole product — every operator's multiply-adds plus the
	// explicit zero fills — submits as one fused batch.
	futs := p.flushBatch()
	if len(dots) == 0 {
		return nil
	}
	_, reduceName := sweepNames(nil, dots)
	if rd == nil {
		// The carried dots' own sweep is named for the product, so a
		// graph comparison can tell it from a solver's Dot or DotBatch.
		return p.sweep(name+".dots", reduceName, nil, dots)
	}
	// A riding product has no zero fills: its tasks are the batch.
	for i := range rd.awaits {
		rd.awaits[i].Future = futs[i]
	}
	return p.dotLeaves(reduceName, rd.buf, &scalarLeaf{awaits: rd.awaits}, outShape, len(dots), false)
}

// riders are the dot pairs a product's tasks compute over the output
// pieces they write: per output component, the pairs' operands and the
// regions other than the output the tasks must declare a read of; the
// memory the leaf partials go to (newPartials); and, one per task, the
// awaits of the pairs' readers.
type riders struct {
	operands [][][2][]float64 // [component][pair] {v, w}
	reads    [][]*region.Region
	buf      *[]float64
	leaves   *leafMap
	awaits   []taskrt.Await
}

// newRiders prepares a product's tasks to carry dots over the output
// vector dst of the given shape, or returns nil when they cannot. Every
// operand must share dst's component structure and number its leaves as
// dst's shape does — the same shape, or two partitions cut at leaf
// boundaries — so a riding dot sums the leaves a sweep would.
func (p *Planner) newRiders(dst VecID, shape Shape, dots []DotPair) *riders {
	lm := p.leafMap(shape)
	for _, d := range dots {
		for _, id := range [2]VecID{d.V, d.W} {
			p.checkCompatible(dst, id)
			if s := p.vecs[id].shape; s != shape && !(lm.aligned() && p.leafMap(s).aligned()) {
				return nil
			}
		}
	}
	comps := len(p.vecs[dst].regs)
	rd := &riders{
		operands: make([][][2][]float64, comps),
		reads:    make([][]*region.Region, comps),
		buf:      p.newPartials(shape, len(dots), false),
		leaves:   lm,
		awaits:   make([]taskrt.Await, 0, p.shapePieces(shape)),
	}
	for ci := range comps {
		for _, d := range dots {
			v, w := p.vecs[d.V].regs[ci], p.vecs[d.W].regs[ci]
			rd.operands[ci] = append(rd.operands[ci], [2][]float64{v.Data(), w.Data()})
			for _, r := range [2]*region.Region{v, w} {
				if r != p.vecs[dst].regs[ci] && !slices.Contains(rd.reads[ci], r) {
					rd.reads[ci] = append(rd.reads[ci], r)
				}
			}
		}
	}
	return rd
}

// soleWriters reports whether every nonempty output piece of a product
// is written whole by exactly one multiply-add member, the one task that
// may then compute dots over it. Partitions are fixed once the planner
// is finalized, so the answer is kept per direction.
func (p *Planner) soleWriters(ops []opEntry, outShape Shape, adjoint, pre bool) bool {
	dir := 0
	if adjoint {
		dir = 1
	} else if pre {
		dir = 2
	}
	if c := p.sole[dir]; c != 0 {
		return c > 0
	}
	comps := p.comps(outShape)
	writers := make([][]int, len(comps))
	for ci, c := range comps {
		writers[ci] = make([]int, c.part.NumColors())
	}
	ok := true
	for oi := range ops {
		outIdx, _, kpart, _, outImage := opTarget(&ops[oi], adjoint, pre)
		for color := range writers[outIdx] {
			if kpart.Piece(color).Empty() || outImage.Piece(color).Empty() {
				continue
			}
			writers[outIdx][color]++
			ok = ok && outImage.Piece(color).Equal(comps[outIdx].part.Piece(color))
		}
	}
	for ci, c := range comps {
		for color, n := range writers[ci] {
			ok = ok && (n == 1 || n == 0 && c.part.Piece(color).Empty())
		}
	}
	p.sole[dir] = -1
	if ok {
		p.sole[dir] = 1
	}
	return ok
}

// unionInto returns acc ∪ s, sharing s's storage when acc is empty (a
// group of one declares its member's own sets).
func unionInto(acc, s index.IntervalSet) index.IntervalSet {
	if acc.Empty() {
		return s
	}
	return acc.Union(s)
}

// mulMember is one output piece's share of a multiply-add task. outSet is
// the member's true write set; fresh is the part of it no earlier operator
// wrote, which the task zeroes inline before accumulating. fold marks a
// member that accumulates into earlier writers' data (fresh ≠ outSet);
// first marks the checksum-slot initializer of the piece in this product;
// cc, when non-nil, is the forward product's column-checksum vector for
// the ABFT cross-check.
type mulMember struct {
	kset, outSet, fresh index.IntervalSet
	slot                int
	fold, first         bool
	cc                  *colCheck
}

// launchMultiplyAdd launches one multiply-add task of one operator over
// the output pieces of one launch group. A
// task whose members' write sets are all fresh takes write-discard
// privilege over their union; all folding takes reduction privilege,
// which the runtime orders; a mix takes read-write. With riders (each
// member then writes its whole piece and is its only writer) the task
// also reads the other operands' pieces and computes the pairs' leaf
// partials over every member once its multiply-add is done.
func (p *Planner) launchMultiplyAdd(name string, opIdx int, g *pieceGroup, op *opEntry,
	outIdx int, outReg, inReg *region.Region,
	members []mulMember, inSet index.IntervalSet, adjoint, pre bool, dst VecID, rd *riders) {

	proc := g.proc
	if !pre && p.mmProc != nil {
		if q := p.mmProc(opIdx, g.lo); q >= 0 {
			proc = q
		}
	}
	var outSet index.IntervalSet
	var ksize int64
	folds, firsts := 0, 0
	for i := range members {
		m := &members[i]
		outSet = unionInto(outSet, m.outSet)
		ksize += m.kset.Size()
		if m.fold {
			folds++
		}
		if m.first {
			firsts++
		}
	}
	priv := region.ReadWrite
	switch folds {
	case 0:
		priv = region.WriteDiscard
	case len(members):
		priv = region.ReduceSum
	}
	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chk []float64
	var mon *SDCMonitor
	if sdc {
		chk = p.chkData(dst)
		mon = p.sdc.mon
	}
	var dots [][2][]float64 // the riders' operands in the output component
	var reads []*region.Region
	if rd != nil {
		dots, reads = rd.operands[outIdx], rd.reads[outIdx]
	}
	refs := make([]region.Ref, 0, 3+len(reads))
	refs = append(refs, pieceRef(outReg, outSet, priv), pieceRef(inReg, inSet, region.ReadOnly))
	for _, r := range reads {
		refs = append(refs, pieceRef(r, outSet, region.ReadOnly))
	}
	var run func() float64
	if !p.virtual {
		y := outReg.Data()
		x := inReg.Data()
		mat := op.mat
		run = func() float64 {
			for i := range members {
				m := &members[i]
				for _, iv := range m.fresh.Intervals() {
					clear(y[iv.Lo : iv.Hi+1])
				}
				var before float64
				if sdc && m.fold {
					// A folding member adds to earlier writers' data; its own
					// contribution is the sum delta over its write set (taken
					// once the fresh part holds zeros, not last product's data).
					before, _ = sumPiece(y, m.outSet)
				}
				if adjoint {
					mat.MultiplyAddTPart(y, x, m.kset)
				} else {
					mat.MultiplyAddPart(y, x, m.kset)
				}
				for j, d := range dots {
					for _, iv := range m.outSet.Intervals() {
						leafDots(d[0], d[1], iv, (*rd.buf)[rd.leaves.partial(j, outIdx, iv.Lo):])
					}
				}
				if !sdc {
					continue
				}
				after, abs := sumPiece(y, m.outSet)
				contrib := after - before
				if m.cc != nil {
					// The checksummed SpMV invariant: the contribution this
					// member wrote must match the column-checksum prediction
					// w·x computed from independent data.
					var wx float64
					for t, j := range m.cc.idx {
						wx += m.cc.val[t] * x[j]
					}
					scale := abs + math.Abs(wx) + 1
					if diff := math.Abs(wx - contrib); diff > sdcTol*scale || diff != diff {
						mon.report(SDCAlarm{
							Task: "matmul.abft", Vec: dst, Slot: m.slot,
							Expected: wx, Got: contrib, Scale: scale,
						})
					}
				}
				if m.first {
					chk[m.slot] = contrib
				} else {
					chk[m.slot] += contrib
				}
			}
			return 0
		}
	}
	lo, hi := members[0].slot, members[len(members)-1].slot
	cost := p.mach.SpMVCost(ksize, outSet.Size())
	for range dots {
		cost += p.mach.DotCost(outSet.Size())
	}
	spec := taskrt.TaskSpec{
		Name: name, Proc: proc, Piece: lo + 1,
		Cost: cost, Refs: refs, Run: run,
		// A write-discard multiply-add zeroes its whole write set before
		// accumulating, so re-execution is safe; a reduction into data
		// earlier operators wrote is not, and neither is a checksum-slot
		// accumulation (chk[slot] += contrib would double-apply).
		Retryable: priv == region.WriteDiscard && (!sdc || firsts == len(members)),
	}
	if sdc {
		// Write-discard only when the task initializes every slot it spans.
		chkPriv := region.ReadWrite
		if firsts == hi-lo+1 {
			chkPriv = region.WriteDiscard
		}
		spec.Refs = append(spec.Refs, p.chkRef(dst, lo, hi-lo+1, chkPriv))
	}
	if hooks {
		spec.Corrupt = corruptHook(corruptTarget{outReg.Data(), outSet})
	}
	if rd == nil {
		p.batch(spec)
		return
	}
	// The riders' readers await the task for its members' partials.
	rd.awaits = append(rd.awaits, taskrt.Await{Bytes: int64(8 * len(dots) * len(g.pieces))})
	p.specBuf = append(p.specBuf, spec)
}

// zeroPieces launches a zero-fill of a launch group's pieces (or of their
// remainders). slots > 0 makes it the first checksum writer, in this
// product, of that many pieces from slot on — no operator touched them at
// all — so it also zeroes their checksum slots.
func (p *Planner) zeroPieces(reg *region.Region, subset index.IntervalSet, proc int,
	dst VecID, slot, slots int) {

	sdc, hooks := p.sdcOn(), p.faultHooks()
	var chk []float64
	if sdc && slots > 0 {
		chk = p.chkData(dst)[slot : slot+slots]
	}
	var run func() float64
	if !p.virtual {
		d := reg.Data()
		run = func() float64 {
			subset.EachInterval(func(iv index.Interval) {
				for i := iv.Lo; i <= iv.Hi; i++ {
					d[i] = 0
				}
			})
			clear(chk)
			return 0
		}
	}
	spec := taskrt.TaskSpec{
		Name: "zero", Proc: proc, Piece: slot + 1,
		Cost: p.mach.Blas1Cost(subset.Size()),
		Refs: []region.Ref{pieceRef(reg, subset, region.WriteDiscard)},
		Run:  run, Retryable: true,
	}
	if chk != nil {
		spec.Refs = append(spec.Refs, p.chkRef(dst, slot, slots, region.WriteDiscard))
	}
	if hooks {
		spec.Corrupt = corruptHook(corruptTarget{reg.Data(), subset})
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
