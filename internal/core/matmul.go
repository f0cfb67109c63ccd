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
// y_{j_ℓ} is launched per output piece (per launch group of small pieces,
// in every mode: launchGroups). The first task writing each
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
// one operator component — that task also runs the dot sweep's body over
// each piece it just wrote (sweepBody), reading the other operands'
// pieces, so the dots cost no launch and no second pass over a vector
// still in cache. The body is the sweep's in every mode: with SDC
// detection on it verifies the other operands' checksums first and
// writes the piece's guard slot, and a fault injector's corruption may
// land in the partials. Otherwise (several writers to a piece, or a
// virtual planner) the pairs launch as a dot sweep after the product
// (tasks named matmul.dots, or psolve.dots). Both compute the canonical
// dot (fusedops.go), so the scalars carry the same bits either way.
func (p *Planner) Matmul(dst, src VecID, dots ...DotPair) []*Scalar {
	p.mustBeFinalized()
	checkShapes("Matmul", p.vecs[dst], p.vecs[src], p.rhs, p.sol)
	return p.runMultiOp(p.ops, dst, src, "matmul", false, false, dots)
}

// MatmulT computes dst ← A_totalᵀ · src: the adjoint product, partitioned
// by the domain components' canonical partitions. The first call derives
// the adjoint co-partitions.
func (p *Planner) MatmulT(dst, src VecID) {
	p.mustBeFinalized()
	checkShapes("MatmulT", p.vecs[dst], p.vecs[src], p.sol, p.rhs)
	p.deriveAdjoint()
	p.runMultiOp(p.ops, dst, src, "matmulT", true, false, nil)
}

// PSolve computes dst ← P_total · src, applying the user-supplied
// preconditioner components, and carries the dots of its output as
// Matmul does. It panics when no preconditioner was added.
func (p *Planner) PSolve(dst, src VecID, dots ...DotPair) []*Scalar {
	p.mustBeFinalized()
	if !p.HasPreconditioner() {
		panic("core: PSolve without a preconditioner")
	}
	return p.runMultiOp(p.pre, dst, src, "psolve", false, true, dots)
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

// runMultiOp launches one call of a product's site (launch.go) and returns
// the scalars of the dot pairs the product carries (Matmul): with riders,
// from the partials its tasks write into the call's memory; otherwise from
// a dot sweep of their own, named for the product.
func (p *Planner) runMultiOp(ops []opEntry, dst, src VecID, name string, adjoint, pre bool, dots []DotPair) []*Scalar {
	t := p.site(name, dst, src, nil, dots, func() *launchTmpl {
		return p.buildProduct(ops, dst, src, name, adjoint, pre, dots)
	})
	var c *launchCall
	var buf *[]float64
	if t.k > 0 {
		buf = p.newPartials(t.shape, t.k, t.sdc)
		c = &launchCall{out: *buf}
	}
	futs := p.launch(t, c, nil)
	switch {
	case len(dots) == 0:
		return nil
	case t.k == 0:
		// The carried dots' own sweep is named for the product, so a graph
		// comparison can tell it from a solver's Dot or DotBatch.
		_, reduceName := sweepNames(nil, dots)
		return p.sweep(name+".dots", reduceName, nil, dots)
	}
	return p.dotResults(t, futs, buf)
}

// buildProduct builds the template of a product's site over an operator
// set. Every point of the output vector is zeroed exactly once before any
// multiply-add touches it: the operator that first reaches a point zeroes
// it inline (write-discard when its whole write set is fresh), and points
// no operator writes get explicit zero tasks (the empty sum of equation
// 8). Each operator launches one multiply-add per launch group of its
// output component (launchGroups), covering the group's output pieces in
// color order.
func (p *Planner) buildProduct(ops []opEntry, dst, src VecID, name string, adjoint, pre bool, dots []DotPair) *launchTmpl {
	dv, sv := p.vecs[dst], p.vecs[src]
	outShape := RhsShape
	if adjoint || pre {
		outShape = SolShape
	}
	outComps := p.comps(outShape)
	outGroups := p.launchGroups(outShape)
	t := &launchTmpl{shape: outShape, sdc: p.sdcOn(), hooks: p.faultHooks()}
	pr := &product{launchTmpl: t, name: name, dst: dst, adjoint: adjoint, pre: pre}
	if len(dots) > 0 && !p.virtual && p.soleWriters(ops, outShape, adjoint, pre) {
		pr.rd = p.newRiders(pr, outShape, dots)
	}
	if pr.rd != nil {
		t.k = len(dots)
		_, t.reduce = sweepNames(nil, dots)
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
				if t.sdc && !adjoint && !pre {
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
				p.addMultiplyAdd(pr, oi, g, op, outIdx, dv.regs[outIdx], sv.regs[inIdx], members, inSet)
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
					p.addZeroFill(pr, dv.regs[ci], rest, outComps[ci].procs[g.lo+start], g.slot+start, n, first)
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
	// The whole product — every operator's multiply-adds plus the explicit
	// zero fills — submits as one batch.
	return t
}

// product is what the tasks of one product's template share while it is
// built.
type product struct {
	*launchTmpl
	name         string
	dst          VecID
	adjoint, pre bool
	rd           *riders
}

// riders are the k dot pairs a product's tasks compute over the output
// pieces they write: the operands other than the output, which the tasks
// read (and with detection on verify); per output component, the dot
// sweep's body bound to them (sweepBody); and the bytes of a piece's
// partials and guard, what an edge to the pairs' readers carries.
type riders struct {
	k          int
	pieceBytes int64
	vecs       []sweepVec
	bodies     []kernelBody
	leaves     *leafMap
}

// newRiders prepares a product's tasks to carry dots over its output of
// the given shape, or returns nil when they cannot. Every operand must
// share the output's component structure and number its leaves as the
// output's shape does — the same shape, or two partitions cut at leaf
// boundaries — so a riding dot sums the leaves a sweep would.
func (p *Planner) newRiders(pr *product, shape Shape, dots []DotPair) *riders {
	vecs, _ := p.sweepOperands(nil, dots)
	p.checkCompatible(pr.dst, vecs[0].id)
	lm := p.leafMap(shape)
	for _, v := range vecs {
		if s := p.vecs[v.id].shape; s != shape && !(lm.aligned() && p.leafMap(s).aligned()) {
			return nil
		}
	}
	// The task has just written the output and its checksum slot; the
	// body verifies the operands it only reads.
	vecs = slices.DeleteFunc(vecs, func(v sweepVec) bool { return v.id == pr.dst })
	rd := &riders{k: len(dots), pieceBytes: int64(8 * len(dots)), vecs: vecs, leaves: lm}
	if pr.sdc {
		rd.pieceBytes += 8
	}
	for ci := range p.vecs[pr.dst].regs {
		rd.bodies = append(rd.bodies, p.sweepBody(pr.name, ci, lm, nil, dots, vecs, nil))
	}
	return rd
}

// soleWriters reports whether every nonempty output piece of a product
// is written whole by exactly one multiply-add member, the one task that
// may then compute dots over it.
func (p *Planner) soleWriters(ops []opEntry, outShape Shape, adjoint, pre bool) bool {
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

// addMultiplyAdd adds one multiply-add task of one operator over the
// output pieces of one launch group. A task whose members' write sets are
// all fresh takes write-discard privilege over their union; all folding
// takes reduction privilege, which the runtime orders; a mix takes
// read-write. With riders (each member then writes its whole piece and is
// its only writer) the task also reads the other operands' pieces and runs
// the riders' body over every member once its multiply-add is done,
// writing the partials into the call's memory.
func (p *Planner) addMultiplyAdd(pr *product, opIdx int, g *pieceGroup, op *opEntry,
	outIdx int, outReg, inReg *region.Region, members []mulMember, inSet index.IntervalSet) {

	tt := tmplTask{op: -1, color: g.lo}
	if !pr.pre {
		tt.op = opIdx
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
	dst, sdc, adjoint, rd := pr.dst, pr.sdc, pr.adjoint, pr.rd
	var chk []float64
	var mon *SDCMonitor
	if sdc {
		chk = p.chkData(dst)
		mon = p.sdc.mon
	}
	lo, hi := members[0].slot, members[len(members)-1].slot+1
	cost := p.mach.SpMVCost(ksize, outSet.Size())
	var body kernelBody
	var vecs []sweepVec // the riders' operands other than the output
	if rd != nil {
		body, vecs = rd.bodies[outIdx], rd.vecs
		for range rd.k {
			cost += p.mach.DotCost(outSet.Size())
		}
		tt.bytes = rd.pieceBytes * int64(len(g.pieces))
	}
	// The output, the input, the operands, and with detection on their
	// checksum slots.
	refs := make([]region.Ref, 0, 3+2*len(vecs))
	refs = append(refs, pieceRef(outReg, outSet, priv), pieceRef(inReg, inSet, region.ReadOnly))
	for _, v := range vecs {
		refs = append(refs, pieceRef(p.vecs[v.id].regs[outIdx], outSet, region.ReadOnly))
	}
	if !p.virtual {
		y := outReg.Data()
		x := inReg.Data()
		mat := op.mat
		tt.body = func(c *launchCall) float64 {
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
				if body != nil {
					body(m.outSet, m.slot, nil, c.out)
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
	spec := taskrt.TaskSpec{
		Name: pr.name, Proc: g.proc, Pieces: [2]int{lo, hi},
		Cost: cost, Refs: refs,
		// A write-discard multiply-add zeroes its whole write set before
		// accumulating, so re-execution is safe; a reduction into data
		// earlier operators wrote is not, and neither is a checksum-slot
		// accumulation (chk[slot] += contrib would double-apply).
		Retryable: priv == region.WriteDiscard && (!sdc || firsts == len(members)),
		// The riders' readers await the task for its members' partials
		// (and guards); the plain product's futures are never read.
		Detached: rd == nil,
	}
	if sdc {
		// Write-discard only when the task initializes every slot it spans.
		chkPriv := region.ReadWrite
		if firsts == hi-lo {
			chkPriv = region.WriteDiscard
		}
		spec.Refs = append(spec.Refs, p.chkRef(dst, lo, hi-lo, chkPriv))
		// Verification refreshes the riders' operands' slots, as a
		// sweep's does.
		for _, v := range vecs {
			spec.Refs = append(spec.Refs, p.chkRef(v.id, lo, hi-lo, region.ReadWrite))
		}
	}
	if pr.hooks {
		tt.targets = []corruptTarget{{outReg.Data(), outSet}}
		if rd != nil {
			tt.span = rd.leaves.span(rd.k, outIdx, g, sdc)
		}
	}
	pr.add(spec, tt)
}

// addZeroFill adds a zero-fill of n pieces of a launch group from slot on
// (or of their remainders). first makes it the pieces' first checksum
// writer in this product — no operator touched them at all — so it also
// zeroes their checksum slots.
func (p *Planner) addZeroFill(pr *product, reg *region.Region, subset index.IntervalSet, proc, slot, n int, first bool) {
	var chk []float64
	if pr.sdc && first {
		chk = p.chkData(pr.dst)[slot : slot+n]
	}
	tt := tmplTask{op: -1}
	if !p.virtual {
		d := reg.Data()
		tt.body = func(*launchCall) float64 {
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
		Name: "zero", Proc: proc, Pieces: [2]int{slot, slot + n},
		Cost:      p.mach.Blas1Cost(subset.Size()),
		Refs:      []region.Ref{pieceRef(reg, subset, region.WriteDiscard)},
		Retryable: true, Detached: true,
	}
	if chk != nil {
		spec.Refs = append(spec.Refs, p.chkRef(pr.dst, slot, n, region.WriteDiscard))
	}
	if pr.hooks {
		tt.targets = []corruptTarget{{reg.Data(), subset}}
	}
	pr.add(spec, tt)
}

// checkShapes panics unless dst matches the components out and src the
// components in (the range and domain components for Matmul, the other
// way round for MatmulT); op names the operation.
func checkShapes(op string, dv, sv vec, out, in []component) {
	if len(dv.regs) != len(out) || len(sv.regs) != len(in) {
		panic("core: " + op + " vector component counts do not match the system")
	}
	for j, c := range out {
		if dv.regs[j].Space().Size() != c.space.Size() {
			panic("core: " + op + " destination shape mismatch")
		}
	}
	for i, c := range in {
		if sv.regs[i].Space().Size() != c.space.Size() {
			panic("core: " + op + " source shape mismatch")
		}
	}
}
