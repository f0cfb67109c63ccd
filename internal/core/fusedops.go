package core

import (
	"math"
	"slices"
	"sync"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// The vector-sweep kernel. FusedSweep is the only code that launches an
// axpy, xpay, copy, scal, zero or dot (a product's own zero fills aside,
// matmul.go): it applies k updates to a piece in one task visit and folds
// any number of dot products into a single tree reduction — one partial
// task per piece computing every requested dot. The combine is not a task
// on a real planner: every reader of a dot folds the partials itself (see
// Scalar), where a virtual planner launches one combine task for all the
// sweep's dots, the allreduce the simulator charges. Planner.Axpy, Xpay,
// Copy, Scal, Zero and Dot (vecops.go) are its one-operation calls and
// keep their task names; a solver that issues them separately sweeps the
// same pieces once per operation and synchronizes on every dot, and the
// fused solver steps collapse both costs ("Hardware-Oriented Krylov
// Methods for HPC").
//
// Numerics are preserved exactly where the paper's solvers need them
// preserved: updates execute in argument order inside each piece (the
// same order separate launches would impose through their region
// dependences), so a fused sweep is bitwise identical to the sequence of
// single-operation sweeps; dots accumulate per piece and then combine in
// piece order, batched or not, wherever the combine runs.
//
// A piece task makes one pass over the piece per update, and a dot rides
// the pass of the update that last writes one of its operands: right
// after that pass writes d[i] it adds v[i]·w[i], which no later update
// changes. The dot's terms are the ones a separate pass after the updates
// would add, in the same ascending order, so the partial is bitwise the
// same while its operands are read from memory one time fewer. A pass
// carries at most one dot; the others, and dots over vectors no update
// writes, keep a pass of their own after the updates.
//
// Every per-vector decision of a task follows from how the sweep uses the
// vector. One whose first use overwrites it (the dst of a copy or zero) is
// write-discard, checksum slot included, and its incoming data is not
// verified; one that is read and then written is read-write; one that is
// only read is read-only. A task is retryable exactly when no vector is
// read-write: it then reads nothing it writes, so a partial first attempt
// cannot double-apply. Its cost is the sum of its updates' and dots' own.
// These rules reproduce each one-operation task the planner ever launched.
//
// Sweep tasks launch through the ordinary Launch path with ordinary
// region references, so they are traced, memoized, and replayed by the
// runtime's trace templates like any other task.
//
// With SDC detection on, each piece task first verifies the incoming
// checksum of every vector whose data it reads — update dsts, update
// sources and dot operands, one extra read pass per distinct vector —
// then maintains the dst checksums through the update recurrences, and
// finally writes a per-piece guard slot — the sum of the piece's dot
// partials — that the reduction's first fold recomputes
// bitwise-identically, so corruption anywhere in a solver's working set
// or in the dot partials surfaces within one iteration.

// UpdateKind selects the recurrence form of one fused vector update.
type UpdateKind int

const (
	// UpdAxpy is dst ← dst + α·src.
	UpdAxpy UpdateKind = iota
	// UpdXpay is dst ← src + α·dst.
	UpdXpay
	// UpdCopy is dst ← src; it takes no coefficient.
	UpdCopy
	// UpdScal is dst ← α·dst; it reads no source.
	UpdScal
	// UpdZero is dst ← 0; it takes neither.
	UpdZero
)

// updNames are the task names of one-update sweeps.
var updNames = [...]string{UpdAxpy: "axpy", UpdXpay: "xpay", UpdCopy: "copy", UpdScal: "scal", UpdZero: "zero"}

// hasSrc reports whether an update of kind k reads a source vector.
func (k UpdateKind) hasSrc() bool { return k == UpdAxpy || k == UpdXpay || k == UpdCopy }

// scaled reports whether an update of kind k takes a coefficient.
func (k UpdateKind) scaled() bool { return k == UpdAxpy || k == UpdXpay || k == UpdScal }

// cost is the machine model's time for one update of kind k over n points.
func (k UpdateKind) cost(m machine.Machine, n int64) float64 {
	switch k {
	case UpdCopy:
		return m.CopyCost(n)
	case UpdScal:
		return m.ScalCost(n)
	case UpdZero:
		return m.Blas1Cost(n)
	}
	return m.AxpyCost(n)
}

// VecUpdate is one update of a fused sweep. Alpha is required by the
// kinds that scale (axpy, xpay, scal) and Src by those that read a source
// (axpy, xpay, copy); the others ignore them. Neg applies −α without a
// separate negation task (IEEE negation is exact, so the result is
// bitwise identical to an update against a negated scalar).
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
// sequence of single-operation calls would.
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

// Gram computes the Gram matrix G[i][j] = vs[i]·vs[j] of a basis with a
// single batched reduction: one partial task per piece computing every
// distinct pair, one combine total. The s-step methods fold all
// their inner products into this call — the one global synchronization
// of an s-iteration block. The returned matrix is symmetric (the lower
// triangle aliases the upper triangle's scalars).
func (p *Planner) Gram(vs ...VecID) [][]*Scalar {
	if len(vs) == 0 {
		panic("core: Gram of an empty basis")
	}
	pairs := make([]DotPair, 0, len(vs)*(len(vs)+1)/2)
	for i := range vs {
		for j := i; j < len(vs); j++ {
			pairs = append(pairs, DotPair{V: vs[i], W: vs[j]})
		}
	}
	flat := p.DotBatch(pairs...)
	g := make([][]*Scalar, len(vs))
	for i := range g {
		g[i] = make([]*Scalar, len(vs))
	}
	k := 0
	for i := range vs {
		for j := i; j < len(vs); j++ {
			g[i][j] = flat[k]
			g[j][i] = flat[k]
			k++
		}
	}
	return g
}

// sweepVec is one distinct vector of a sweep and the privilege the
// sweep's use of it needs: write-discard when its first use overwrites it,
// read-write when it is read and then written, read-only otherwise.
type sweepVec struct {
	id   VecID
	priv region.Privilege
}

// sweepOperands validates a sweep and returns its distinct vectors (in
// first-use order) and distinct coefficient scalars. Every vector must
// share the component structure of the first, whose canonical pieces the
// sweep iterates. Both lists hold a handful of entries, so membership is
// a linear scan — no per-sweep map.
func (p *Planner) sweepOperands(ups []VecUpdate, dots []DotPair) ([]sweepVec, []*Scalar) {
	vecs := make([]sweepVec, 0, 2*(len(ups)+len(dots)))
	use := func(id VecID, priv region.Privilege) {
		for i := range vecs {
			if vecs[i].id == id {
				if vecs[i].priv == region.ReadOnly && priv != region.ReadOnly {
					vecs[i].priv = region.ReadWrite
				}
				return
			}
		}
		if len(vecs) > 0 {
			p.checkCompatible(vecs[0].id, id)
		}
		vecs = append(vecs, sweepVec{id, priv})
	}
	alphas := make([]*Scalar, 0, len(ups))
	for _, u := range ups {
		// A copy or zero overwrites its dst without reading it (a copy onto
		// its own source reads it); the other kinds read what they update.
		dst := region.ReadWrite
		if u.Kind == UpdZero || u.Kind == UpdCopy && u.Src != u.Dst {
			dst = region.WriteDiscard
		}
		use(u.Dst, dst)
		if u.Kind.hasSrc() {
			use(u.Src, region.ReadOnly)
		}
		if !u.Kind.scaled() {
			continue
		}
		if u.Alpha == nil {
			panic("core: VecUpdate requires a scalar coefficient")
		}
		if !slices.Contains(alphas, u.Alpha) {
			alphas = append(alphas, u.Alpha)
		}
	}
	for _, d := range dots {
		use(d.V, region.ReadOnly)
		use(d.W, region.ReadOnly)
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
	case len(ups) == 1 && len(dots) == 0:
		return updNames[ups[0].Kind], ""
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
	var leaves []*scalarLeaf
	for _, a := range alphas {
		leaves = addLeaves(leaves, a)
	}
	awaits := leafAwaits(leaves) // every task of the sweep awaits the same futures
	shape := p.vecs[vecs[0].id].shape
	sdc, hooks := p.sdcOn(), p.faultHooks()
	name, reduceName := sweepNames(ups, dots)

	// One partial slot per (piece, dot), piece-major, so each partial
	// task writes one contiguous span. With detection on each piece gets
	// one extra guard slot holding the sum of its partials. The slots are
	// plain memory the sweep's scalars hold: their readers await the
	// partial tasks.
	k := len(dots)
	stride := k
	if sdc && k > 0 {
		stride = k + 1
	}
	total := p.shapePieces(shape)
	var partials []float64
	var partialAwaits []taskrt.Await // one per partial task; futures set after the launch
	if k > 0 {
		partialAwaits = make([]taskrt.Await, 0, total)
		if !p.virtual {
			partials = make([]float64, total*stride)
		}
	}
	nrefs := len(vecs)
	if sdc {
		nrefs += len(vecs)
	}
	// A task that writes nothing it reads cannot double-apply a partial
	// first attempt; one with a read-write vector can.
	retry := !slices.ContainsFunc(vecs, func(v sweepVec) bool { return v.priv == region.ReadWrite })

	for ci, groups := range p.launchGroups(shape, hooks) {
		// The arithmetic is bound once per component, not once per task.
		var body func(subset index.IntervalSet, slot int, alpha []float64)
		if !p.virtual {
			body = p.sweepBody(name, ci, partials, stride, ups, dots, vecs, alphas)
		}
		for gi := range groups {
			g := &groups[gi]
			if k > 0 {
				// A reader receives the members' partial slots from the task.
				partialAwaits = append(partialAwaits, taskrt.Await{Bytes: int64(8 * stride * len(g.pieces))})
			}
			// Each distinct vector is declared once, under its use's privilege.
			refs := make([]region.Ref, 0, nrefs)
			for _, v := range vecs {
				refs = append(refs, pieceRef(p.vecs[v.id].regs[ci], g.subset, v.priv))
			}
			if sdc {
				// Verification refreshes the slot, so even a pure source's
				// checksum is read-write; an overwritten vector's is not read.
				for _, v := range vecs {
					priv := region.ReadWrite
					if v.priv == region.WriteDiscard {
						priv = region.WriteDiscard
					}
					refs = append(refs, p.chkRef(v.id, g.slot, len(g.pieces), priv))
				}
			}
			size := g.subset.Size()
			var cost float64
			for _, u := range ups {
				cost += u.Kind.cost(p.mach, size)
			}
			for range dots {
				cost += p.mach.DotCost(size)
			}
			spec := taskrt.TaskSpec{
				Name: name, Proc: g.proc, Piece: g.slot + 1,
				Cost: cost, Refs: refs, Awaits: awaits, Retryable: retry,
				// A dot's readers await its partial tasks' futures.
				Detached: k == 0,
			}
			if body != nil {
				spec.Run = g.runWith(alphas, body)
			}
			if hooks {
				var targets []corruptTarget
				for _, v := range vecs {
					if v.priv != region.ReadOnly {
						targets = append(targets, corruptTarget{p.vecs[v.id].regs[ci].Data(), g.subset})
					}
				}
				if k > 0 {
					span := index.Span(int64(g.slot*stride), int64((g.slot+len(g.pieces))*stride)-1)
					targets = append(targets, corruptTarget{partials, span})
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
	for i := range partialAwaits {
		partialAwaits[i].Future = futs[i]
	}
	leaf := &scalarLeaf{awaits: partialAwaits}
	if p.virtual {
		return p.batchReduce(reduceName, leaf, k)
	}
	return p.dotLeaves(reduceName, partials, leaf, total, stride, k)
}

// sweepBody binds a sweep's real-mode arithmetic to the storage of one
// component; the component's tasks share the result, each calling it once
// per piece it covers. A call runs the checksum verification pre-pass
// (detection only), the updates in order with checksum maintenance —
// each pass computing the dot that rides it — then the remaining dots,
// writing every partial into the piece's slots of out, slot·stride..+k-1
// (and the guard slot after them when detection is on). alpha holds the
// values of the sweep's distinct coefficients, in sweepOperands order.
func (p *Planner) sweepBody(name string, ci int, out []float64, stride int,
	ups []VecUpdate, dots []DotPair, vecs []sweepVec, alphas []*Scalar) func(subset index.IntervalSet, slot int, alpha []float64) {

	type boundUpdate struct {
		kind   UpdateKind
		neg    bool
		d, s   []float64 // s is nil for a kind without a source
		a      int       // index of the coefficient in alpha, -1 for none
		dot    int       // index of the dot its pass computes, -1 for none
		cd, cs []float64 // checksum slots of dst and src (nil without sdc)
	}
	sdc := p.sdcOn()
	var mon *SDCMonitor
	if sdc {
		mon = p.sdc.mon
	}
	bu := make([]boundUpdate, len(ups))
	for i, u := range ups {
		bu[i] = boundUpdate{
			kind: u.Kind, neg: u.Neg,
			d:   p.vecs[u.Dst].regs[ci].Data(),
			a:   slices.Index(alphas, u.Alpha),
			dot: -1,
		}
		if sdc {
			bu[i].cd = p.chkData(u.Dst)
		}
		if u.Kind.hasSrc() {
			bu[i].s = p.vecs[u.Src].regs[ci].Data()
			if sdc {
				bu[i].cs = p.chkData(u.Src)
			}
		}
	}
	type boundChk struct {
		id  VecID
		d   []float64
		chk []float64
	}
	var bv []boundChk // the vectors whose incoming data the sweep reads
	for _, v := range vecs {
		if sdc && v.priv != region.WriteDiscard {
			bv = append(bv, boundChk{id: v.id, d: p.vecs[v.id].regs[ci].Data(), chk: p.chkData(v.id)})
		}
	}
	type boundDot struct {
		v, w  []float64
		fused bool // computed in the pass of its operands' last writer
	}
	bd := make([]boundDot, len(dots))
	for j, d := range dots {
		bd[j] = boundDot{
			v: p.vecs[d.V].regs[ci].Data(),
			w: p.vecs[d.W].regs[ci].Data(),
		}
		// The dot rides the pass of the last update writing an operand,
		// unless an earlier dot already rides it.
		last := -1
		for i, u := range ups {
			if u.Dst == d.V || u.Dst == d.W {
				last = i
			}
		}
		if last >= 0 && bu[last].dot < 0 {
			bu[last].dot, bd[j].fused = j, true
		}
	}
	guard := sdc && len(dots) > 0
	k := int64(len(dots))
	return func(subset index.IntervalSet, slot int, alpha []float64) {
		base := int64(slot * stride)
		ivs := subset.Intervals()
		// Verify every vector this sweep reads against its incoming
		// checksum, before touching anything: a corruption planted
		// anywhere in a solver's recurrence set since the last sweep
		// alarms here.
		for _, c := range bv {
			sum, abs := sumPiece(c.d, subset)
			verifySlot(mon, name, c.id, slot, c.chk, sum, abs)
		}
		for _, u := range bu {
			var av float64
			if u.a >= 0 {
				av = alpha[u.a]
				if u.neg {
					av = -av
				}
			}
			var v, w []float64
			if u.dot >= 0 {
				v, w = bd[u.dot].v, bd[u.dot].w
			}
			var sum float64
			for _, iv := range ivs {
				sum = sweepRun(u.kind, av, u.d, u.s, v, w, iv, sum)
			}
			if u.dot >= 0 {
				out[base+int64(u.dot)] = sum
			}
			if u.cd == nil {
				continue
			}
			switch u.kind {
			case UpdAxpy:
				u.cd[slot] += av * u.cs[slot]
			case UpdXpay:
				u.cd[slot] = u.cs[slot] + av*u.cd[slot]
			case UpdCopy:
				u.cd[slot] = u.cs[slot]
			case UpdScal:
				u.cd[slot] *= av
			case UpdZero:
				u.cd[slot] = 0
			}
		}
		var gsum float64
		for j, d := range bd {
			if !d.fused {
				var sum float64
				for _, iv := range ivs {
					vs := d.v[iv.Lo : iv.Hi+1]
					ws := d.w[iv.Lo : iv.Hi+1][:len(vs)]
					for i := range vs {
						sum += vs[i] * ws[i]
					}
				}
				out[base+int64(j)] = sum
			}
			gsum += out[base+int64(j)]
		}
		if guard {
			out[base+k] = gsum
		}
	}
}

// sweepRun applies one update of kind k with coefficient av to d over
// the interval iv, reading the source s, and returns sum plus v[i]·w[i]
// over iv, each term added right after d[i] is written; v is nil when the
// pass computes no dot. The loops run on resliced slices of one length, so
// they carry no per-element bounds check.
func sweepRun(k UpdateKind, av float64, d, s, v, w []float64, iv index.Interval, sum float64) float64 {
	lo, hi := iv.Lo, iv.Hi+1
	ds := d[lo:hi]
	if v == nil {
		switch k {
		case UpdAxpy:
			ss := s[lo:hi][:len(ds)]
			for i := range ds {
				ds[i] += av * ss[i]
			}
		case UpdXpay:
			ss := s[lo:hi][:len(ds)]
			for i := range ds {
				ds[i] = ss[i] + av*ds[i]
			}
		case UpdCopy:
			copy(ds, s[lo:hi])
		case UpdScal:
			for i := range ds {
				ds[i] *= av
			}
		case UpdZero:
			clear(ds)
		}
		return sum
	}
	vs, ws := v[lo:hi][:len(ds)], w[lo:hi][:len(ds)]
	switch k {
	case UpdAxpy:
		ss := s[lo:hi][:len(ds)]
		for i := range ds {
			ds[i] += av * ss[i]
			sum += vs[i] * ws[i]
		}
	case UpdXpay:
		ss := s[lo:hi][:len(ds)]
		for i := range ds {
			ds[i] = ss[i] + av*ds[i]
			sum += vs[i] * ws[i]
		}
	case UpdCopy:
		ss := s[lo:hi][:len(ds)]
		for i := range ds {
			ds[i] = ss[i]
			sum += vs[i] * ws[i]
		}
	case UpdScal:
		for i := range ds {
			ds[i] *= av
			sum += vs[i] * ws[i]
		}
	case UpdZero:
		for i := range ds {
			ds[i] = 0
			sum += vs[i] * ws[i]
		}
	}
	return sum
}

// batchReduce launches a virtual planner's one combine task for a sweep's
// k dots, awaiting the partial tasks and computing all k output scalars:
// one allreduce instead of k. The scalars share its future.
func (p *Planner) batchReduce(name string, partials *scalarLeaf, k int) []*Scalar {
	fut := p.sess.Launch(taskrt.TaskSpec{
		Name: name,
		// One tree reduction regardless of k: the scalars ride the same
		// allreduce message, the MPI_Allreduce the real machine pays.
		Cost:   p.mach.AllReduceTime(),
		Awaits: partials.awaits, Retryable: true,
	})
	outs := make([]*Scalar, k)
	for j := range outs {
		outs[j] = p.taskScalar(fut)
	}
	return outs
}

// dotLeaves returns a real planner's k dot results over the partials in,
// which the tasks of leaf write: each folds its per-piece partials in slot
// order, the combine task's arithmetic, wherever it is read. With
// detection on, the reduction's first fold recomputes every piece's guard
// sum — partials were written and summed in the same order, so any
// corruption of them makes the bitwise comparison fail — and alarms as
// name.
func (p *Planner) dotLeaves(name string, in []float64, leaf *scalarLeaf, pieces, stride, k int) []*Scalar {
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
	leaves := []*scalarLeaf{leaf}
	outs := make([]*Scalar, k)
	for j := range outs {
		outs[j] = &Scalar{leaves: leaves, durable: true, eval: func() float64 {
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
