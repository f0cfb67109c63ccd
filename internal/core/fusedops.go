package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// on a real planner: the first reader of a dot folds the partials and
// every later reader reads the memoized sum (see Scalar), where a virtual
// planner launches one combine task for all the sweep's dots, the
// allreduce the simulator charges. Planner.Axpy, Xpay, Copy, Scal, Zero
// and Dot (vecops.go) are its one-operation calls and keep their task
// names; a solver that issues them separately sweeps the same pieces once
// per operation and synchronizes on every dot, and the fused solver steps
// collapse both costs ("Hardware-Oriented Krylov Methods for HPC").
//
// A dot is a function of its vectors, whatever the pieces: the canonical
// dot over a component of n points sums leaves of DotLeaf points, each
// with four interleaved accumulators (leafDots), and then folds the
// ⌈n/DotLeaf⌉ leaf partials pairwise in index order (pairwiseSum; the
// components' leaves follow one another). A piece task writes the
// partials of its own leaves, and since a partition cut at multiples of
// DotLeaf splits no leaf, every such partition and launch grouping gives
// the same bits. A piece boundary inside a leaf still works — each side
// sums its fragment as a leaf of its own — but the answer then depends
// on the cut. One leaf sum serves the three places a dot runs: a sweep's
// own pass and a product that carries the dots of its output (matmul.go,
// through the sweep's body) call leafDots, and the pass of an axpy or
// xpay that a dot rides adds the same terms in the same order as it
// writes them (rideRun).
//
// Updates are preserved exactly where the paper's solvers need them
// preserved: they execute in argument order inside each piece (the same
// order separate launches would impose through their region
// dependences), so a fused sweep is bitwise identical to the sequence of
// single-operation sweeps.
//
// A piece task makes one pass over the piece per update, and a dot rides
// the pass of the update that last writes one of its operands: the pass
// adds each point's v·w term right after writing the point, which no
// later update changes (rideRun), so the dot's operands are read from
// memory one time fewer and the partial is the same. A pass carries at
// most one dot; the others, and dots over vectors no update writes, keep
// a pass of their own after the updates.
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
// finally writes a per-piece guard slot — the sum of the piece's leaf
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
	name, reduceName := sweepNames(ups, dots)
	return p.sweep(name, reduceName, ups, dots)
}

// sweep launches one call of FusedSweep's site under the given piece and
// combine task names (launch.go): the call's coefficients, the futures
// they are computed from and, for dots, the memory their partials go to.
func (p *Planner) sweep(name, reduceName string, ups []VecUpdate, dots []DotPair) []*Scalar {
	t := p.site(name, 0, 0, ups, dots, func() *launchTmpl {
		return p.buildSweep(name, reduceName, ups, dots)
	})
	var c *launchCall
	var leafBuf [4]*scalarLeaf
	leaves := leafBuf[:0]
	if t.perCall() {
		c = &launchCall{}
		c.alphas = c.inline[:0]
		for _, i := range t.alphaOf {
			a := ups[i].Alpha
			if a == nil {
				panic("core: VecUpdate requires a scalar coefficient")
			}
			c.alphas = append(c.alphas, a)
			leaves = addLeaves(leaves, a)
		}
	}
	// Every task of the sweep awaits the same futures.
	awaits := leafAwaits(leaves)
	var buf *[]float64
	if t.k > 0 && !p.virtual {
		buf = p.newPartials(t.shape, t.k, t.sdc)
		c.out = *buf
	}
	futs := p.launch(t, c, awaits)
	if t.k == 0 {
		return nil
	}
	return p.dotResults(t, futs, buf)
}

// buildSweep builds the template of a sweep's site from its first call.
func (p *Planner) buildSweep(name, reduceName string, ups []VecUpdate, dots []DotPair) *launchTmpl {
	vecs, alphas := p.sweepOperands(ups, dots)
	shape := p.vecs[vecs[0].id].shape
	sdc := p.sdcOn()
	t := &launchTmpl{k: len(dots), shape: shape, reduce: reduceName, sdc: sdc, hooks: p.faultHooks()}
	for _, a := range alphas {
		t.alphaOf = append(t.alphaOf, slices.IndexFunc(ups, func(u VecUpdate) bool { return u.Kind.scaled() && u.Alpha == a }))
	}

	// The partials are plain memory the sweep's scalars hold (newPartials);
	// their readers await the partial tasks. An edge to a reader carries a
	// piece's k values, and its guard when detection is on.
	k := len(dots)
	stride := k
	if sdc && k > 0 {
		stride = k + 1
	}
	lm := p.leafMap(shape)
	nrefs := len(vecs)
	if sdc {
		nrefs += len(vecs)
	}
	// A task that writes nothing it reads cannot double-apply a partial
	// first attempt; one with a read-write vector can.
	retry := !slices.ContainsFunc(vecs, func(v sweepVec) bool { return v.priv == region.ReadWrite })

	for ci, groups := range p.launchGroups(shape) {
		// The arithmetic is bound once per component, not once per task.
		var body kernelBody
		if !p.virtual {
			body = p.sweepBody(name, ci, lm, ups, dots, vecs, alphas)
		}
		for gi := range groups {
			g := &groups[gi]
			tt := tmplTask{op: -1, bytes: int64(8 * stride * len(g.pieces))}
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
				Name: name, Proc: g.proc, Pieces: [2]int{g.slot, g.slot + len(g.pieces)},
				Cost: cost, Refs: refs, Retryable: retry,
				// A dot's readers await its partial tasks' futures.
				Detached: k == 0,
			}
			if body != nil {
				tt.body = func(c *launchCall) float64 {
					for i, subset := range g.pieces {
						body(subset, g.slot+i, c.alphas, c.out)
					}
					return 0
				}
			}
			if t.hooks {
				for _, v := range vecs {
					if v.priv != region.ReadOnly {
						tt.targets = append(tt.targets, corruptTarget{p.vecs[v.id].regs[ci].Data(), g.subset})
					}
				}
				if k > 0 {
					tt.span = lm.span(k, ci, g, sdc)
				}
			}
			t.add(spec, tt)
		}
	}
	return t
}

// sweepBody binds a sweep's real-mode arithmetic to the storage of one
// component; the component's tasks share the result, each calling it once
// per piece it covers. A call runs the checksum verification pre-pass
// (detection only), the updates in order with checksum maintenance —
// each pass computing the dot that rides it — then the remaining dots,
// writing the piece's leaf partials into out (and its guard slot when
// detection is on). alpha holds the sweep's distinct coefficients, in
// sweepOperands order, and out is one call's memory (launchCall). A
// product's tasks call the body of a dots-only sweep for the dots they
// carry (newRiders).
func (p *Planner) sweepBody(name string, ci int, lm *leafMap,
	ups []VecUpdate, dots []DotPair, vecs []sweepVec, alphas []*Scalar) kernelBody {

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
	k := len(dots)
	return func(subset index.IntervalSet, slot int, alpha []*Scalar, out []float64) {
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
				av = alpha[u.a].value()
				if u.neg {
					av = -av
				}
			}
			for _, iv := range ivs {
				if u.dot < 0 {
					sweepRun(u.kind, av, u.d, u.s, iv.Lo, iv.Hi+1)
					continue
				}
				d := bd[u.dot]
				rideRun(u.kind, av, u.d, u.s, d.v, d.w, iv, out[lm.partial(u.dot, ci, iv.Lo):])
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
		for j, d := range bd {
			if !d.fused {
				for _, iv := range ivs {
					leafDots(d.v, d.w, iv, out[lm.partial(j, ci, iv.Lo):])
				}
			}
		}
		if guard {
			out[lm.guard(k, slot)] = lm.guardSum(out, k, ci, subset)
		}
	}
}

// kernelBody is a sweep's arithmetic over one piece of a component.
type kernelBody func(subset index.IntervalSet, slot int, alpha []*Scalar, out []float64)

// sweepRun applies one update of kind k with coefficient av to d[lo:hi],
// reading the source s. The loops run on resliced slices of one length,
// so they carry no per-element bounds check.
func sweepRun(k UpdateKind, av float64, d, s []float64, lo, hi int64) {
	ds := d[lo:hi]
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
}

// DotLeaf is the number of points in a leaf of the canonical dot. A
// partition whose cuts fall on multiples of it (index.AlignedPartition)
// gives every dot, and so every solve, the bits of the one-piece run.
const DotLeaf = 64

// leafDots writes the canonical leaf partials of v·w over iv into out,
// one per leaf fragment, in index order: point i of a fragment goes to
// accumulator i mod 4, and the four combine as (a₀+a₁)+(a₂+a₃). Four
// independent chains hide the latency of the floating-point add that a
// single running sum waits on at every point.
func leafDots(v, w []float64, iv index.Interval, out []float64) {
	for lo, at := iv.Lo, 0; lo <= iv.Hi; at++ {
		hi := leafEnd(lo, iv.Hi)
		if hi-lo == DotLeaf {
			out[at] = leafDot(leaf(v, lo), leaf(w, lo))
		} else {
			out[at] = fragDot(v[lo:hi], w[lo:hi])
		}
		lo = hi
	}
}

// leaf returns the whole leaf of x that starts at lo.
func leaf(x []float64, lo int64) *[DotLeaf]float64 { return (*[DotLeaf]float64)(x[lo : lo+DotLeaf]) }

// leafDot is leafDots' sum over one whole leaf; the fixed length leaves
// its loop without bounds checks.
func leafDot(v, w *[DotLeaf]float64) float64 {
	var a0, a1, a2, a3 float64
	for i := 0; i <= DotLeaf-4; i += 4 {
		a0 += v[i] * w[i]
		a1 += v[i+1] * w[i+1]
		a2 += v[i+2] * w[i+2]
		a3 += v[i+3] * w[i+3]
	}
	return (a0 + a1) + (a2 + a3)
}

// fragDot is leafDots' sum over a fragment shorter than a leaf.
func fragDot(v, w []float64) float64 {
	var a [4]float64
	for i := range v {
		a[i%4] += v[i] * w[i]
	}
	return (a[0] + a[1]) + (a[2] + a[3])
}

// leafEnd returns the end (exclusive) of the leaf fragment that starts at
// lo within an interval ending at hi (inclusive).
func leafEnd(lo, hi int64) int64 { return min(hi+1, (lo/DotLeaf+1)*DotLeaf) }

// rideRun applies one update of kind k with coefficient av to d over iv
// and writes the leaf partials of v·w over the updated values into out,
// leafDots' sums. Over a whole leaf, axpy and xpay — the updates
// solvers' dots ride — add a point's term right after writing the point,
// in leafDot's order, so the operands are read once; other kinds and
// shorter fragments update and then sum.
func rideRun(k UpdateKind, av float64, d, s, v, w []float64, iv index.Interval, out []float64) {
	if k != UpdAxpy && k != UpdXpay {
		sweepRun(k, av, d, s, iv.Lo, iv.Hi+1)
		leafDots(v, w, iv, out)
		return
	}
	for lo, at := iv.Lo, 0; lo <= iv.Hi; at++ {
		hi := leafEnd(lo, iv.Hi)
		switch {
		case hi-lo < DotLeaf:
			sweepRun(k, av, d, s, lo, hi)
			out[at] = fragDot(v[lo:hi], w[lo:hi])
		case k == UpdAxpy:
			out[at] = rideAxpy(av, leaf(d, lo), leaf(s, lo), leaf(v, lo), leaf(w, lo))
		default:
			out[at] = rideXpay(av, leaf(d, lo), leaf(s, lo), leaf(v, lo), leaf(w, lo))
		}
		lo = hi
	}
}

// rideAxpy is d ← d + av·s over one leaf, returning leafDot(v, w) of the
// result.
func rideAxpy(av float64, d, s, v, w *[DotLeaf]float64) float64 {
	var a0, a1, a2, a3 float64
	for i := 0; i <= DotLeaf-4; i += 4 {
		d[i] += av * s[i]
		a0 += v[i] * w[i]
		d[i+1] += av * s[i+1]
		a1 += v[i+1] * w[i+1]
		d[i+2] += av * s[i+2]
		a2 += v[i+2] * w[i+2]
		d[i+3] += av * s[i+3]
		a3 += v[i+3] * w[i+3]
	}
	return (a0 + a1) + (a2 + a3)
}

// rideXpay is d ← s + av·d over one leaf, returning leafDot(v, w) of the
// result.
func rideXpay(av float64, d, s, v, w *[DotLeaf]float64) float64 {
	var a0, a1, a2, a3 float64
	for i := 0; i <= DotLeaf-4; i += 4 {
		d[i] = s[i] + av*d[i]
		a0 += v[i] * w[i]
		d[i+1] = s[i+1] + av*d[i+1]
		a1 += v[i+1] * w[i+1]
		d[i+2] = s[i+2] + av*d[i+2]
		a2 += v[i+2] * w[i+2]
		d[i+3] = s[i+3] + av*d[i+3]
		a3 += v[i+3] * w[i+3]
	}
	return (a0 + a1) + (a2 + a3)
}

// leafCount returns the number of leaf fragments in iv.
func leafCount(iv index.Interval) int { return int(iv.Hi/DotLeaf-iv.Lo/DotLeaf) + 1 }

// pairwiseSum returns the pairwise sum of a, folding it in place: each
// level adds neighbours (a[2i] + a[2i+1]) and carries an odd last entry
// up unchanged, until one value is left. The tree is a function of
// len(a) alone.
func pairwiseSum(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	for n := len(a); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			a[i] = a[2*i] + a[2*i+1]
		}
		if n%2 == 1 {
			a[n/2] = a[n-1]
		}
	}
	return a[0]
}

// leafMap numbers the leaf fragments of one shape's vectors in index
// order, component after component. A fragment starts at each multiple
// of DotLeaf and at each piece interval start off one (cuts), so an
// aligned partition numbers exactly the ⌈n/DotLeaf⌉ leaves of each
// component, whatever its piece count.
type leafMap struct {
	base  []int     // each component's first leaf
	cuts  [][]int64 // each component's unaligned piece starts, ascending
	total int       // the shape's fragment count L
}

// leafMap returns the shape's leaf numbering, built on first use (the
// partitions are fixed once the planner is finalized).
func (p *Planner) leafMap(shape Shape) *leafMap {
	m := &p.leaves[shape]
	if m.base != nil {
		return m
	}
	for _, c := range p.comps(shape) {
		var cuts []int64
		for _, piece := range c.part.Pieces() {
			for _, iv := range piece.Intervals() {
				if iv.Lo%DotLeaf != 0 {
					cuts = append(cuts, iv.Lo)
				}
			}
		}
		slices.Sort(cuts)
		m.base = append(m.base, m.total)
		m.cuts = append(m.cuts, cuts)
		m.total += int((c.space.Size()+DotLeaf-1)/DotLeaf) + len(cuts)
	}
	return m
}

// aligned reports whether no piece cuts a leaf: every partition of the
// components that does not numbers their leaves alike.
func (m *leafMap) aligned() bool {
	return !slices.ContainsFunc(m.cuts, func(c []int64) bool { return len(c) > 0 })
}

// newPartials returns the memory of k dots' partials over a shape: dot
// j's leaf partials fill [j·L, (j+1)·L), and with guards one slot per
// piece follows. Every partial, and the guard of every nonempty piece, is
// written by the task of its piece before any reader folds, so memory a
// folded batch gave back (dotBatch) is reused as it is.
func (p *Planner) newPartials(shape Shape, k int, guards bool) *[]float64 {
	n := k * p.leafMap(shape).total
	if guards {
		n += p.shapePieces(shape)
	}
	if b, ok := p.partials.Get().(*[]float64); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]float64, n)
	return &b
}

// partial returns the index of dot j's partial of the fragment starting
// at point lo of component ci: the fragments that start before lo are
// the multiples of DotLeaf below it and the cuts below it.
func (m *leafMap) partial(j, ci int, lo int64) int {
	cut, _ := slices.BinarySearch(m.cuts[ci], lo)
	return j*m.total + m.base[ci] + int((lo+DotLeaf-1)/DotLeaf) + cut
}

// guard returns the index of piece slot's guard in a batch of k dots.
func (m *leafMap) guard(k, slot int) int { return k*m.total + slot }

// guardSum returns the sum of one piece's leaf partials over k dots, in
// the order the piece task and the reduction's check both add them.
func (m *leafMap) guardSum(buf []float64, k, ci int, subset index.IntervalSet) float64 {
	var g float64
	for j := 0; j < k; j++ {
		for _, iv := range subset.Intervals() {
			at := m.partial(j, ci, iv.Lo)
			for _, x := range buf[at : at+leafCount(iv)] {
				g += x
			}
		}
	}
	return g
}

// span returns the indices a launch group's task writes in a batch of k
// dots' partials (and guards): what a fault plan may corrupt.
func (m *leafMap) span(k, ci int, g *pieceGroup, guards bool) index.IntervalSet {
	var s index.IntervalSet
	for j := 0; j < k; j++ {
		for _, piece := range g.pieces {
			for _, iv := range piece.Intervals() {
				at := int64(m.partial(j, ci, iv.Lo))
				s.AddInterval(index.Interval{Lo: at, Hi: at + int64(leafCount(iv)) - 1})
			}
		}
	}
	if guards {
		lo := int64(m.guard(k, g.slot))
		s.AddInterval(index.Interval{Lo: lo, Hi: lo + int64(len(g.pieces)) - 1})
	}
	return s
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

// checkGuards recomputes every nonempty piece's guard sum over a batch of
// k dots' partials and alarms as name where it differs from the guard
// slot the piece's task wrote (a product writes none for an empty piece).
func (p *Planner) checkGuards(name string, buf []float64, shape Shape, k int) {
	m := p.leafMap(shape)
	eachSlot(p.comps(shape), func(ci, slot int, subset index.IntervalSet) {
		g := m.guardSum(buf, k, ci, subset)
		if got := buf[m.guard(k, slot)]; !subset.Empty() && (got != g || math.IsNaN(g)) {
			p.sdc.mon.report(SDCAlarm{
				Task: name, Vec: -1, Slot: slot,
				Expected: got, Got: g, Scale: math.Abs(g),
			})
		}
	})
}

// dotBatch is what the k dots of one call share: the tasks their
// partials come from (leaf), the memory the partials live in, which goes
// back to pool when the last of them has folded, and the guard check
// (verify, nil without detection) that runs once, before any fold.
type dotBatch struct {
	leaf   scalarLeaf
	leaves [1]*scalarLeaf
	buf    *[]float64
	pool   *sync.Pool
	left   atomic.Int32 // dots not folded yet
	check  sync.Once
	verify func()
}

// dotSum is a real planner's dot before its first reader folds it: its
// leaf partials and the batch it belongs to.
type dotSum struct {
	partials []float64
	batch    *dotBatch
}

// fold sums the partials pairwise, the batch's guard check first, and
// gives the batch's memory back when it is the batch's last fold.
func (d *dotSum) fold() float64 {
	b := d.batch
	if b.verify != nil {
		b.check.Do(b.verify)
	}
	sum := pairwiseSum(d.partials)
	d.partials = nil
	if b.left.Add(-1) == 0 {
		b.pool.Put(b.buf)
	}
	return sum
}
