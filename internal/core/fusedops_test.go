package core

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// fusedTestPlanner builds a real single-operator planner over a 2D
// stencil with deterministic non-trivial vector contents and two
// workspaces to update.
func fusedTestPlanner(n int64, pieces int) (p *Planner, a, b VecID) {
	sol := make([]float64, n)
	rhs := make([]float64, n)
	for i := range sol {
		sol[i] = float64(i%13)/7 - 0.5
		rhs[i] = float64((i*11)%17)/5 + 0.25
	}
	p = NewPlanner(Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(sol, index.EqualPartition(index.NewSpace("D", n), pieces))
	ri := p.AddRHSVector(rhs, index.EqualPartition(index.NewSpace("R", n), pieces))
	p.AddOperator(sparse.Laplacian2D(n/8, 8), si, ri)
	p.Finalize()
	a = p.AllocateWorkspace(SolShape)
	b = p.AllocateWorkspace(RhsShape)
	p.Copy(a, SOL)
	p.Copy(b, RHS)
	return p, a, b
}

// bitwiseEqual reports whether two slices are identical bit for bit
// (no tolerance: fused sweeps must reproduce the unfused arithmetic
// exactly).
func bitwiseEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestFusedUpdateBitwiseMatchesUnfused(t *testing.T) {
	// The same chained update sequence — axpy into a, then an xpay on a
	// reading the axpy's result, then an independent axpy into b — run
	// as separate launches and as one fused sweep.
	const n, pieces = 64, 4
	pu, au, bu := fusedTestPlanner(n, pieces)
	alpha, gamma := pu.Constant(0.75), pu.Constant(-1.25)
	pu.Axpy(au, alpha, RHS)
	pu.Xpay(au, gamma, SOL)
	pu.Axpy(bu, pu.Neg(alpha), SOL)
	pu.Drain()

	pf, af, bf := fusedTestPlanner(n, pieces)
	alpha, gamma = pf.Constant(0.75), pf.Constant(-1.25)
	pf.FusedUpdate(
		VecUpdate{Kind: UpdAxpy, Dst: af, Alpha: alpha, Src: RHS},
		VecUpdate{Kind: UpdXpay, Dst: af, Alpha: gamma, Src: SOL},
		VecUpdate{Kind: UpdAxpy, Dst: bf, Alpha: alpha, Neg: true, Src: SOL},
	)
	pf.Drain()

	if !bitwiseEqual(pu.VecData(au, 0), pf.VecData(af, 0)) {
		t.Error("fused chained axpy/xpay differs bitwise from unfused launches")
	}
	if !bitwiseEqual(pu.VecData(bu, 0), pf.VecData(bf, 0)) {
		t.Error("fused negated axpy differs bitwise from Axpy(Neg(alpha))")
	}
}

func TestDotBatchMatchesIndividualDots(t *testing.T) {
	const n, pieces = 96, 3
	pu, au, bu := fusedTestPlanner(n, pieces)
	want := []float64{
		pu.Dot(au, bu).Value(),
		pu.Dot(au, au).Value(),
		pu.Dot(bu, RHS).Value(),
	}
	pu.Drain()

	pf, af, bf := fusedTestPlanner(n, pieces)
	got := pf.DotBatch(DotPair{af, bf}, DotPair{af, af}, DotPair{bf, RHS})
	pf.Drain()
	for i, w := range want {
		g := got[i].Value()
		// Partials accumulate per piece and combine in piece order on
		// both paths, so the batch is exact here; the contract only
		// promises 1e-10 relative for reordered reductions.
		if relDiff(g, w) > 1e-10 {
			t.Errorf("dot %d: batch %g vs individual %g", i, g, w)
		}
		// One reduction: every dot of the batch folds the same partials.
		if len(got[i].leaves) != 1 || got[i].leaves[0] != got[0].leaves[0] {
			t.Errorf("dot %d reads %d leaves, want the batch's one set of partial tasks", i, len(got[i].leaves))
		}
	}
}

func TestGramMatchesIndividualDots(t *testing.T) {
	const n, pieces = 96, 3
	p, a, _ := fusedTestPlanner(n, pieces)
	b := p.AllocateWorkspace(RhsShape)
	p.Matmul(b, RHS)
	vs := []VecID{RHS, a, b}
	g := p.Gram(vs...)
	want := make([][]*Scalar, len(vs))
	for i := range vs {
		want[i] = make([]*Scalar, len(vs))
		for j := range vs {
			want[i][j] = p.Dot(vs[i], vs[j])
		}
	}
	p.Drain()
	for i := range vs {
		for j := range vs {
			if g[i][j].Value() != want[i][j].Value() {
				t.Errorf("G[%d][%d] = %g, individual dot %g", i, j,
					g[i][j].Value(), want[i][j].Value())
			}
			if g[i][j] != g[j][i] {
				t.Errorf("G[%d][%d] and G[%d][%d] are distinct scalars", i, j, j, i)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if b > m || -b > m {
		m = b
		if m < 0 {
			m = -m
		}
	}
	return d / m
}

func TestAxpyDotAndXpayDotMatchUnfused(t *testing.T) {
	const n, pieces = 64, 4
	pu, au, bu := fusedTestPlanner(n, pieces)
	alpha := pu.Constant(-0.375)
	pu.Axpy(au, alpha, RHS)
	wantAxpy := pu.Dot(au, au).Value()
	pu.Xpay(bu, alpha, SOL)
	wantXpay := pu.Dot(bu, au).Value()
	pu.Drain()

	pf, af, bf := fusedTestPlanner(n, pieces)
	alpha = pf.Constant(-0.375)
	gotAxpy := pf.FusedSweep(
		[]VecUpdate{{Kind: UpdAxpy, Dst: af, Alpha: alpha, Src: RHS}},
		[]DotPair{{af, af}})[0].Value()
	gotXpay := pf.FusedSweep(
		[]VecUpdate{{Kind: UpdXpay, Dst: bf, Alpha: alpha, Src: SOL}},
		[]DotPair{{bf, af}})[0].Value()
	pf.Drain()

	if !bitwiseEqual(pu.VecData(au, 0), pf.VecData(af, 0)) ||
		!bitwiseEqual(pu.VecData(bu, 0), pf.VecData(bf, 0)) {
		t.Error("axpy+dot / xpay+dot sweeps differ bitwise from unfused launches")
	}
	if relDiff(gotAxpy, wantAxpy) > 1e-10 || relDiff(gotXpay, wantXpay) > 1e-10 {
		t.Errorf("fused dots differ: axpy %g vs %g, xpay %g vs %g",
			gotAxpy, wantAxpy, gotXpay, wantXpay)
	}
}

func TestFusedVirtualRealGraphEquivalence(t *testing.T) {
	// The virtual-mode contract extends to fused kernels: identical
	// graphs with and without real storage.
	real, virt := buildBoth(t, func(p *Planner) {
		setupSystem(p, 64, 4)
		w := p.AllocateWorkspace(SolShape)
		alpha := p.Constant(2)
		p.FusedUpdate(
			VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: alpha, Src: RHS},
			VecUpdate{Kind: UpdXpay, Dst: w, Alpha: alpha, Neg: true, Src: SOL},
		)
		d := p.DotBatch(DotPair{w, w}, DotPair{w, RHS})
		p.FusedSweep(
			[]VecUpdate{{Kind: UpdAxpy, Dst: w, Alpha: d[0], Src: SOL}},
			[]DotPair{{w, RHS}})
	})
	if !contractedEqual(t, real, virt) {
		t.Fatal("fused-op graphs differ between real and virtual planners")
	}
}

func TestFusedSweepLaunchCounts(t *testing.T) {
	// The headline accounting: k updates and d dots over P pieces launch
	// P tasks fused on a real planner (the readers combine the partials)
	// and P + 1 on a virtual one (P sweeps + one combine), versus
	// k·P + d·(P+1) unfused.
	const pieces = 4
	for want, virtual := range map[int64]bool{pieces: false, pieces + 1: true} {
		p := NewPlanner(Config{Machine: machine.Lassen(2), Virtual: virtual})
		p.grain = 0 // the ledger counts per-piece launches
		setupSystem(p, 64, pieces)
		a, b := p.AllocateWorkspace(SolShape), p.AllocateWorkspace(RhsShape)
		p.FusedSweep([]VecUpdate{
			{Kind: UpdAxpy, Dst: a, Alpha: p.Constant(1), Src: RHS},
			{Kind: UpdAxpy, Dst: b, Alpha: p.Constant(2), Src: SOL},
		}, []DotPair{{a, a}, {a, b}, {b, b}})
		p.Drain()
		if got := p.Runtime().Stats().Launched; got != want {
			t.Errorf("virtual=%v: fused sweep launched %d tasks, want %d", virtual, got, want)
		}
	}
}

func TestFusedSweepValidation(t *testing.T) {
	p, a, _ := fusedTestPlanner(32, 2)
	for name, fn := range map[string]func(){
		"empty":          func() { p.FusedSweep(nil, nil) },
		"nil alpha":      func() { p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: a, Src: RHS}) },
		"scal nil alpha": func() { p.FusedUpdate(VecUpdate{Kind: UpdScal, Dst: a}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	p.Drain()
}

func TestConcurrentDotBatchLaunches(t *testing.T) {
	// Many DotBatch rounds launched back to back without draining: the
	// partial tasks of round i+1 must be correctly ordered against round
	// i's readers through the shared vectors, and scalars sharing one
	// sweep's partials must be race-free under the -race CI run. Several planners
	// run concurrently to exercise cross-runtime isolation too.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, a, b := fusedTestPlanner(64, 4)
			var batches [][]*Scalar
			for i := 0; i < 20; i++ {
				d := p.DotBatch(DotPair{a, b}, DotPair{b, b})
				// Interleave an update so later batches see new values.
				p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: a, Alpha: d[0], Src: b})
				batches = append(batches, d)
			}
			p.Drain()
			prev := batches[0][0].Value()
			changed := false
			for _, d := range batches[1:] {
				if v := d[0].Value(); v != prev {
					changed = true
					prev = v
				}
			}
			if !changed {
				t.Error("interleaved updates never changed the batched dots")
			}
		}()
	}
	wg.Wait()
}

// The task names a sweep launches under are an interface: fault plans
// filter on them (-faults name=axpy|dot.partial), profiles group by them,
// and the benchmark sorts tasks into its vector/reduce classes by them.
// A single-operation sweep keeps the operation's name; only genuinely
// fused sweeps get the fused.* / dot.batch* names. Costs are the machine
// model's, identically on real and virtual planners; the scalar tasks
// (combines and scalar arithmetic) exist on virtual planners only.
func TestSweepTaskVocabulary(t *testing.T) {
	const n, pieces = 64, 4
	m := machine.Lassen(2)
	axpy, dot := m.AxpyCost(n/pieces), m.DotCost(n/pieces)
	type class struct {
		count  int
		cost   float64 // -1: not a sweep task, cost not pinned here
		scalar bool    // virtual planners only
	}
	for _, tc := range []struct {
		name string
		step func(p *Planner, w []VecID)
		want map[string]class
	}{
		{"cg", func(p *Planner, w []VecID) {
			q, pv, r := w[0], w[1], w[2]
			p.Matmul(q, pv)
			alpha := p.Div(p.Constant(1), p.Dot(pv, q))
			res := p.FusedSweep([]VecUpdate{
				{Kind: UpdAxpy, Dst: SOL, Alpha: alpha, Src: pv},
				{Kind: UpdAxpy, Dst: r, Alpha: alpha, Neg: true, Src: q},
			}, []DotPair{{r, r}})[0]
			p.Xpay(pv, p.Div(res, p.Constant(1)), r)
		}, map[string]class{
			"matmul": {pieces, -1, false}, "div": {2, 0, true},
			"dot.partial": {pieces, dot, false}, "dot.reduce": {1, m.AllReduceTime(), true},
			"fused.updatedot": {pieces, axpy + axpy + dot, false}, "dot.batchreduce": {1, m.AllReduceTime(), true},
			"xpay": {pieces, axpy, false},
		}},
		{"bicg", func(p *Planner, w []VecID) {
			q, pv, r, qt, pt, rt := w[0], w[1], w[2], w[3], w[4], w[5]
			p.Matmul(q, pv)
			p.MatmulT(qt, pt)
			alpha := p.Div(p.Constant(1), p.Dot(pt, q))
			p.Axpy(SOL, alpha, pv)
			p.Axpy(r, p.Neg(alpha), q)
			p.Axpy(rt, p.Neg(alpha), qt)
			beta := p.Div(p.Dot(rt, r), p.Constant(1))
			p.Xpay(pv, beta, r)
			p.Xpay(pt, beta, rt)
			p.Dot(r, r)
		}, map[string]class{
			"matmul": {pieces, -1, false}, "matmulT": {pieces, -1, false}, "div": {2, 0, true}, "neg": {2, 0, true},
			"dot.partial": {3 * pieces, dot, false}, "dot.reduce": {3, m.AllReduceTime(), true},
			"axpy": {3 * pieces, axpy, false}, "xpay": {2 * pieces, axpy, false},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var graphs [2]taskrt.Graph
			for vi, virtual := range []bool{false, true} {
				p := NewPlanner(Config{Machine: m, Virtual: virtual})
				p.grain = 0 // the ledger counts per-piece launches
				setupSystem(p, n, pieces)
				w := make([]VecID, 6)
				for i := range w {
					w[i] = p.AllocateWorkspace(SolShape)
				}
				p.Session().BeginTrace("step")
				tc.step(p, w)
				p.Session().EndTrace()
				p.Drain()
				graphs[vi] = p.Runtime().Graph()
				got := map[string]int{}
				for _, nd := range graphs[vi].Nodes {
					got[nd.Name]++
					want, ok := tc.want[nd.Name]
					if !ok {
						t.Errorf("virtual=%v: unexpected task name %q", virtual, nd.Name)
					} else if want.cost >= 0 && nd.Cost != want.cost {
						t.Errorf("virtual=%v: %s cost %g, want %g", virtual, nd.Name, nd.Cost, want.cost)
					}
				}
				for name, want := range tc.want {
					if want.scalar && !virtual {
						want.count = 0
					}
					if got[name] != want.count {
						t.Errorf("virtual=%v: %d %s task(s), want %d", virtual, got[name], name, want.count)
					}
				}
			}
			if !contractedEqual(t, graphs[0], graphs[1]) {
				t.Error("the real graph is not the virtual graph with its scalar tasks contracted")
			}
		})
	}
}

// A dot is as good as its partial tasks: when one fails for good (a
// permanent panic, no retries), Value reports NaN and every task reading
// the dot is poisoned instead of running on a garbage partial. The four
// 16-point pieces launch as one group, so the plan's piece 2 names the
// one partial task, and the one axpy task reads the dot.
func TestFailedPartialPoisonsDotReaders(t *testing.T) {
	const pieces = 4
	p, a, _ := fusedTestPlanner(64, pieces)
	p.Drain()
	before := append([]float64(nil), p.VecData(a, 0)...)
	p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{
		Seed: 1, PanicRate: 1, Sticky: true, Names: []string{"dot.partial"}, Pieces: []int{2},
	}))
	d := p.Dot(SOL, RHS)
	p.Axpy(a, p.Div(d, p.Constant(3)), RHS)
	p.Drain()
	if v := d.Value(); !math.IsNaN(v) {
		t.Errorf("Dot = %g with a failed partial task, want NaN", v)
	}
	st := p.Session().Stats()
	groups := int64(len(p.launchGroups(SolShape)[0]))
	if st.Failed != 1 || st.Poisoned != groups {
		t.Errorf("%d failed, %d poisoned tasks; want the one partial and the %d axpy tasks reading the dot",
			st.Failed, st.Poisoned, groups)
	}
	if !bitwiseEqual(before, p.VecData(a, 0)) {
		t.Error("a poisoned axpy wrote its destination")
	}
}

// parentSpecs is what Copy, Scal and Zero launched, per launch group of
// dst, when each built its own tasks, before they became one-update
// sweeps: the contract the sweep's privilege, retry and cost rules
// reproduce.
func parentSpecs(p *Planner, kind UpdateKind, dst, src VecID, alpha *Scalar) []taskrt.TaskSpec {
	sdc := p.sdcOn()
	var specs []taskrt.TaskSpec
	for ci, groups := range p.launchGroups(p.vecs[dst].shape) {
		for _, g := range groups {
			n, size, d := len(g.pieces), g.subset.Size(), p.vecs[dst].regs[ci]
			spec := taskrt.TaskSpec{Proc: g.proc, Pieces: [2]int{g.slot, g.slot + n}, Detached: true}
			switch kind {
			case UpdCopy:
				spec.Name, spec.Cost, spec.Retryable = "copy", p.mach.CopyCost(size), true
				spec.Refs = []region.Ref{
					pieceRef(d, g.subset, region.WriteDiscard),
					pieceRef(p.vecs[src].regs[ci], g.subset, region.ReadOnly),
				}
				if sdc {
					spec.Refs = append(spec.Refs, p.chkRef(dst, g.slot, n, region.WriteDiscard), p.chkRef(src, g.slot, n, region.ReadWrite))
				}
			case UpdScal:
				spec.Name, spec.Cost = "scal", p.mach.ScalCost(size)
				spec.Refs = []region.Ref{pieceRef(d, g.subset, region.ReadWrite)}
				spec.Awaits = leafAwaits(alpha.leaves)
				if sdc {
					spec.Refs = append(spec.Refs, p.chkRef(dst, g.slot, n, region.ReadWrite))
				}
			case UpdZero:
				spec.Name, spec.Cost, spec.Retryable = "zero", p.mach.Blas1Cost(size), true
				spec.Refs = []region.Ref{pieceRef(d, g.subset, region.WriteDiscard)}
				if sdc {
					spec.Refs = append(spec.Refs, p.chkRef(dst, g.slot, n, region.WriteDiscard))
				}
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// Copy, Scal and Zero are one-update sweeps, and each launches exactly the
// task it launched when it built its own: name, processor, piece, cost,
// the refs in order under the same privileges (write-discard on a copy or
// zero dst and its checksum slot), the awaited futures of its scalar,
// retryability and detachment — on real
// and virtual planners, with SDC detection and fault hooks on and off.
// The specs are read from the planner's batch: its session is closed, so
// each launch panics before the batch is consumed.
func TestOneUpdateSweepsLaunchTheirOperationsTasks(t *testing.T) {
	for _, c := range []struct {
		name                   string
		virtual, sdc, injector bool
	}{
		{"virtual", true, false, false},
		{"real", false, false, false},
		{"real+sdc", false, true, false},
		{"real+faults", false, false, true},
		{"real+sdc+faults", false, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dp, n := unevenPartition("D")
			rp, _ := unevenPartition("R")
			p := NewPlanner(Config{Machine: machine.Lassen(4), Virtual: c.virtual, Session: taskrt.New().NewSession("shape")})
			var si, ri int
			if c.virtual {
				si, ri = p.AddSolVectorVirtual(n, dp), p.AddRHSVectorVirtual(n, rp)
			} else {
				si, ri = p.AddSolVector(make([]float64, n), dp), p.AddRHSVector(make([]float64, n), rp)
			}
			p.AddOperator(sparse.Laplacian1D(n), si, ri)
			p.Finalize()
			if c.sdc {
				p.EnableSDCDetection()
			}
			if c.injector {
				p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1, Names: []string{"no.such.task"}}))
			}
			w := p.AllocateWorkspace(SolShape)
			alpha := p.Div(p.Dot(SOL, RHS), p.Constant(3))
			p.Drain()
			p.Session().Close()

			for _, op := range []struct {
				kind   UpdateKind
				launch func()
			}{
				{UpdCopy, func() { p.Copy(w, SOL) }},
				{UpdScal, func() { p.Scal(w, alpha) }},
				{UpdZero, func() { p.Zero(w) }},
			} {
				func() {
					defer func() { recover() }()
					op.launch()
				}()
				got := slices.Clone(p.specBuf)
				p.specBuf = p.specBuf[:0]
				want := parentSpecs(p, op.kind, w, SOL, alpha)
				if len(got) != len(want) {
					t.Fatalf("%s: %d tasks, want %d", updNames[op.kind], len(got), len(want))
				}
				for i, g := range got {
					w := want[i]
					if g.Name != w.Name || g.Proc != w.Proc || g.Pieces != w.Pieces || g.Cost != w.Cost ||
						g.Retryable != w.Retryable || g.Detached != w.Detached || g.Host != w.Host ||
						!reflect.DeepEqual(g.Refs, w.Refs) || !reflect.DeepEqual(g.Awaits, w.Awaits) {
						t.Errorf("%s task %d:\n got %+v\nwant %+v", updNames[op.kind], i, g, w)
					}
					if (g.Run != nil) == c.virtual || (g.Corrupt != nil) != c.injector {
						t.Errorf("%s task %d: body set %v, corruption hook set %v", updNames[op.kind], i, g.Run != nil, g.Corrupt != nil)
					}
				}
			}
		})
	}
}
