package core

import (
	"math"
	"slices"
	"sync"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// The vector-sweep kernel. FusedSweep is the only code that launches an
// axpy, an xpay or a dot: it applies k updates to a piece in one task
// visit and folds any number of dot products into a single tree
// reduction — one partial task per piece computing every requested dot.
// The combine is not a task on a real planner: every reader of a dot folds
// the partials itself (see Scalar), where a virtual planner launches one
// combine task for all the sweep's dots, the allreduce the simulator
// charges. Planner.Axpy, Xpay and Dot (vecops.go) are its one-operation
// calls and keep their task names; a solver that issues them separately
// sweeps the same pieces once per operation and synchronizes on every dot,
// and the fused solver steps collapse both costs ("Hardware-Oriented
// Krylov Methods for HPC").
//
// Numerics are preserved exactly where the paper's solvers need them
// preserved: updates execute in argument order inside each piece (the
// same order separate launches would impose through their region
// dependences), so a fused sweep is bitwise identical to the sequence of
// single-operation sweeps; dots accumulate per piece and then combine in
// piece order, batched or not, wherever the combine runs.
//
// Sweep tasks launch through the ordinary Launch path with ordinary
// region references, so they are traced, memoized, and replayed by the
// runtime's trace templates like any other task.
//
// With SDC detection on, each piece task first verifies the incoming
// checksum of every vector it reads — update dsts, update sources and dot
// operands, one extra read pass per distinct vector — then maintains the
// dst checksums through the update recurrences, and finally writes a
// per-piece guard slot — the sum of the piece's dot partials — that the
// reduction's first fold recomputes bitwise-identically, so corruption
// anywhere in a solver's working set or reduction scratch surfaces within
// one iteration.

// UpdateKind selects the recurrence form of one fused vector update.
type UpdateKind int

const (
	// UpdAxpy is dst ← dst + α·src.
	UpdAxpy UpdateKind = iota
	// UpdXpay is dst ← src + α·dst.
	UpdXpay
)

// VecUpdate is one update of a fused sweep. Neg applies −α without a
// separate negation task (IEEE negation is exact, so the result is
// bitwise identical to an axpy against a negated scalar).
type VecUpdate struct {
	Kind  UpdateKind
	Dst   VecID
	Alpha *Scalar
	Neg   bool
	Src   VecID
}

// DotPair names one inner product v·w of a batched reduction.
type DotPair struct{ V, W VecID }

// FusedUpdate applies the updates in order, visiting each piece once:
// one task per piece performs every update instead of one task per
// (update, piece). Updates may chain — a later update reading a dst an
// earlier one wrote sees the written value, exactly as the equivalent
// sequence of Axpy/Xpay calls would.
func (p *Planner) FusedUpdate(ups ...VecUpdate) {
	p.FusedSweep(ups, nil)
}

// DotBatch computes the inner products of every pair with one partial
// task per piece (computing all the pairs' partials) and one combine
// total, so k simultaneous dot products pay a single reduction barrier.
// The returned scalars are in pair order.
func (p *Planner) DotBatch(pairs ...DotPair) []*Scalar {
	return p.FusedSweep(nil, pairs)
}

// sweepVec is one distinct vector of a sweep; written is set when any
// update writes it.
type sweepVec struct {
	id      VecID
	written bool
}

// sweepOperands validates a sweep and returns its distinct vectors (in
// first-use order) and distinct coefficient scalars. Every vector must
// share the component structure of the first, whose canonical pieces the
// sweep iterates. Both lists hold a handful of entries, so membership is
// a linear scan — no per-sweep map.
func (p *Planner) sweepOperands(ups []VecUpdate, dots []DotPair) ([]sweepVec, []*Scalar) {
	vecs := make([]sweepVec, 0, 2*(len(ups)+len(dots)))
	add := func(id VecID, written bool) {
		for i := range vecs {
			if vecs[i].id == id {
				vecs[i].written = vecs[i].written || written
				return
			}
		}
		if len(vecs) > 0 {
			p.checkCompatible(vecs[0].id, id)
		}
		vecs = append(vecs, sweepVec{id, written})
	}
	alphas := make([]*Scalar, 0, len(ups))
	for _, u := range ups {
		if u.Alpha == nil {
			panic("core: VecUpdate requires a scalar coefficient")
		}
		add(u.Dst, true)
		add(u.Src, false)
		if !slices.Contains(alphas, u.Alpha) {
			alphas = append(alphas, u.Alpha)
		}
	}
	for _, d := range dots {
		add(d.V, false)
		add(d.W, false)
	}
	return vecs, alphas
}

// sweepNames returns the task names of a sweep's piece tasks and of its
// combine (a virtual planner's combine task, a real one's guard alarms). A
// sweep of exactly one operation keeps that operation's name — the
// vocabulary fault plans (name=axpy|dot.partial), profiles and the
// benchmark's task classes are written in.
func sweepNames(ups []VecUpdate, dots []DotPair) (piece, reduce string) {
	switch {
	case len(ups) == 1 && len(dots) == 0 && ups[0].Kind == UpdAxpy:
		return "axpy", ""
	case len(ups) == 1 && len(dots) == 0:
		return "xpay", ""
	case len(ups) == 0 && len(dots) == 1:
		return "dot.partial", "dot.reduce"
	case len(dots) == 0:
		return "fused.update", ""
	case len(ups) == 0:
		return "dot.batch", "dot.batchreduce"
	}
	return "fused.updatedot", "dot.batchreduce"
}

// FusedSweep is the one vector-sweep kernel: it applies the updates in
// order and then computes the dot pairs over the updated values, one
// task per piece, followed by a single combine when dots are requested.
// It returns one deferred scalar per dot pair (nil slice when dots is
// empty). At least one update or dot is required.
//
// All vectors must share the component structure of the first dst (or
// first dot operand); the sweep iterates that vector's canonical pieces.
func (p *Planner) FusedSweep(ups []VecUpdate, dots []DotPair) []*Scalar {
	p.mustBeFinalized()
	if len(ups) == 0 && len(dots) == 0 {
		panic("core: FusedSweep needs at least one update or dot pair")
	}
	vecs, alphas := p.sweepOperands(ups, dots)
	var leaves []scalarLeaf
	for _, a := range alphas {
		leaves = addLeaves(leaves, a)
	}
	shape := p.vecs[vecs[0].id].shape
	sdc, hooks := p.sdcOn(), p.faultHooks()
	name, reduceName := sweepNames(ups, dots)

	// One scratch slot per (piece, dot), piece-major, so each partial
	// task writes one contiguous span. With detection on each piece gets
	// one extra guard slot holding the sum of its partials.
	k := len(dots)
	stride := k
	if sdc && k > 0 {
		stride = k + 1
	}
	total := p.shapePieces(shape)
	var scratch *region.Region
	if k > 0 {
		space := index.NewSpace("dotscratch", int64(total*stride))
		if p.virtual {
			scratch = region.NewVirtual("dotscratch", space)
		} else {
			scratch = region.New("dotscratch", space, "s")
		}
	}
	nrefs := len(vecs) + len(leaves)
	if k > 0 {
		nrefs++
	}
	if sdc {
		nrefs += len(vecs)
	}

	for ci, groups := range p.launchGroups(shape, hooks) {
		// The arithmetic is bound once per component, not once per task.
		var body func(subset index.IntervalSet, slot int, alpha []float64)
		if !p.virtual {
			body = p.sweepBody(name, ci, scratch, stride, ups, dots, vecs, alphas)
		}
		for gi := range groups {
			g := &groups[gi]
			var span index.IntervalSet // the members' scratch slots
			if k > 0 {
				span = index.Span(int64(g.slot*stride), int64((g.slot+len(g.pieces))*stride)-1)
			}
			// Each distinct vector is declared once, read-write when any
			// update writes it.
			refs := make([]region.Ref, 0, nrefs)
			for _, v := range vecs {
				priv := region.ReadOnly
				if v.written {
					priv = region.ReadWrite
				}
				refs = append(refs, pieceRef(p.vecs[v.id].regs[ci], g.subset, priv))
			}
			for _, l := range leaves {
				refs = append(refs, l.ref)
			}
			if k > 0 {
				refs = append(refs, region.Ref{Region: scratch.ID(), Field: "s", Subset: span, Priv: region.WriteDiscard})
			}
			if sdc {
				// Verification refreshes the slot, so even a pure source's
				// checksum is read-write.
				for _, v := range vecs {
					refs = append(refs, p.chkRef(v.id, g.slot, len(g.pieces), region.ReadWrite))
				}
			}
			size := g.subset.Size()
			var cost float64
			for range ups {
				cost += p.mach.AxpyCost(size)
			}
			for range dots {
				cost += p.mach.DotCost(size)
			}
			spec := taskrt.TaskSpec{
				Name: name, Proc: g.proc, Piece: g.slot + 1,
				Cost: cost, Refs: refs,
				// A sweep with updates read-modify-writes its dsts, so a
				// partial first attempt would double-apply; a pure dot sweep
				// overwrites its scratch slots and is idempotent.
				Retryable: len(ups) == 0,
				// A real dot's readers wait on its partial tasks' futures.
				Detached: k == 0 || p.virtual,
			}
			if body != nil {
				spec.Run = g.runWith(alphas, body)
			}
			if hooks {
				var targets []corruptTarget
				for _, v := range vecs {
					if v.written {
						targets = append(targets, corruptTarget{p.vecs[v.id].regs[ci].Field("v"), g.subset})
					}
				}
				if k > 0 {
					targets = append(targets, corruptTarget{scratch.Field("s"), span})
				}
				spec.Corrupt = corruptHook(targets...)
			}
			p.specBuf = append(p.specBuf, spec)
		}
	}
	futs := p.flushBatch()

	if k == 0 {
		return nil
	}
	partials := []scalarLeaf{{futs: futs, ref: region.Ref{
		Region: scratch.ID(), Field: "s",
		Subset: index.Span(0, int64(total*stride)-1), Priv: region.ReadOnly,
	}}}
	if p.virtual {
		return p.batchReduce(reduceName, partials, k)
	}
	return p.dotLeaves(reduceName, scratch.Field("s"), partials, total, stride, k)
}

// sweepBody binds a sweep's real-mode arithmetic to the storage of one
// component; the component's tasks share the result, each calling it once
// per piece it covers. A call runs the checksum verification pre-pass
// (detection only), the updates in order with checksum maintenance, then
// the dot partials into the piece's scratch slots slot·stride..+k-1 (and
// the guard slot after them when detection is on). alpha holds the values
// of the sweep's distinct coefficients, in sweepOperands order.
func (p *Planner) sweepBody(name string, ci int, scratch *region.Region, stride int,
	ups []VecUpdate, dots []DotPair, vecs []sweepVec, alphas []*Scalar) func(subset index.IntervalSet, slot int, alpha []float64) {

	type boundUpdate struct {
		kind   UpdateKind
		neg    bool
		d, s   []float64
		a      int       // index of the coefficient in alpha
		cd, cs []float64 // checksum slots of dst and src (nil without sdc)
	}
	sdc := p.sdcOn()
	mon, tol := (*SDCMonitor)(nil), 0.0
	if sdc {
		mon, tol = p.sdc.mon, p.sdc.tol
	}
	bu := make([]boundUpdate, len(ups))
	for i, u := range ups {
		bu[i] = boundUpdate{
			kind: u.Kind, neg: u.Neg,
			d: p.vecs[u.Dst].regs[ci].Field("v"),
			s: p.vecs[u.Src].regs[ci].Field("v"),
			a: slices.Index(alphas, u.Alpha),
		}
		if sdc {
			bu[i].cd = p.chkData(u.Dst)
			bu[i].cs = p.chkData(u.Src)
		}
	}
	type boundChk struct {
		id  VecID
		d   []float64
		chk []float64
	}
	var bv []boundChk
	if sdc {
		bv = make([]boundChk, len(vecs))
		for i, v := range vecs {
			bv[i] = boundChk{id: v.id, d: p.vecs[v.id].regs[ci].Field("v"), chk: p.chkData(v.id)}
		}
	}
	type boundDot struct{ v, w []float64 }
	bd := make([]boundDot, len(dots))
	for j, d := range dots {
		bd[j] = boundDot{
			v: p.vecs[d.V].regs[ci].Field("v"),
			w: p.vecs[d.W].regs[ci].Field("v"),
		}
	}
	var out []float64
	if scratch != nil {
		out = scratch.Field("s")
	}
	guard := sdc && len(dots) > 0
	k := int64(len(dots))
	return func(subset index.IntervalSet, slot int, alpha []float64) {
		base := int64(slot * stride)
		// Verify every vector this sweep reads against its incoming
		// checksum, before touching anything: a corruption planted
		// anywhere in a solver's recurrence set since the last sweep
		// alarms here.
		for _, c := range bv {
			sum, abs := sumPiece(c.d, subset)
			verifySlot(mon, tol, name, c.id, slot, c.chk, sum, abs)
		}
		for _, u := range bu {
			av := alpha[u.a]
			if u.neg {
				av = -av
			}
			d, s := u.d, u.s
			switch u.kind {
			case UpdAxpy:
				subset.EachInterval(func(iv index.Interval) {
					for i := iv.Lo; i <= iv.Hi; i++ {
						d[i] += av * s[i]
					}
				})
				if u.cd != nil {
					u.cd[slot] += av * u.cs[slot]
				}
			case UpdXpay:
				subset.EachInterval(func(iv index.Interval) {
					for i := iv.Lo; i <= iv.Hi; i++ {
						d[i] = s[i] + av*d[i]
					}
				})
				if u.cd != nil {
					u.cd[slot] = u.cs[slot] + av*u.cd[slot]
				}
			}
		}
		var gsum float64
		for j, d := range bd {
			var sum float64
			v, w := d.v, d.w
			subset.EachInterval(func(iv index.Interval) {
				for i := iv.Lo; i <= iv.Hi; i++ {
					sum += v[i] * w[i]
				}
			})
			out[base+int64(j)] = sum
			gsum += sum
		}
		if guard {
			out[base+k] = gsum
		}
	}
}

// batchReduce launches a virtual planner's one combine task for a sweep's
// k dots, reading the partials and writing all k output scalars: one
// allreduce instead of k. The scalars share its future.
func (p *Planner) batchReduce(name string, partials []scalarLeaf, k int) []*Scalar {
	outs := make([]*Scalar, k)
	refs := leafRefs(partials)
	for j := range outs {
		var w region.Ref
		outs[j], w, _ = p.newScalar("dot")
		refs = append(refs, w)
	}
	fut := p.sess.Launch(taskrt.TaskSpec{
		Name: name,
		// One tree reduction regardless of k: the scalars ride the same
		// allreduce message, the MPI_Allreduce the real machine pays.
		Cost: p.mach.AllReduceTime(),
		Refs: refs, Retryable: true,
	})
	for _, s := range outs {
		s.produced(fut)
	}
	return outs
}

// dotLeaves returns a real planner's k dot results over the scratch
// partials in: each folds its per-piece partials in slot order, the
// combine task's arithmetic, wherever it is read. With detection on, the
// reduction's first fold recomputes every piece's guard sum — partials
// were written and summed in the same order, so any corruption of the
// scratch makes the bitwise comparison fail — and alarms as name.
func (p *Planner) dotLeaves(name string, in []float64, partials []scalarLeaf, pieces, stride, k int) []*Scalar {
	guard := stride > k
	var once sync.Once
	check := func() {
		for pc := 0; pc < pieces; pc++ {
			var g float64
			for j := 0; j < k; j++ {
				g += in[pc*stride+j]
			}
			if got := in[pc*stride+k]; got != g || math.IsNaN(g) {
				p.sdc.mon.report(SDCAlarm{
					Task: name, Vec: -1, Slot: pc,
					Expected: got, Got: g, Scale: math.Abs(g),
				})
			}
		}
	}
	outs := make([]*Scalar, k)
	for j := range outs {
		outs[j] = &Scalar{leaves: partials, durable: true, eval: func() float64 {
			if guard {
				once.Do(check)
			}
			var sum float64
			for pc := 0; pc < pieces; pc++ {
				sum += in[pc*stride+j]
			}
			return sum
		}}
	}
	return outs
}
