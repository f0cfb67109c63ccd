package core

import (
	"math"
	"sync"
	"testing"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
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
		if err := got[i].fut.Err(); err != nil {
			t.Errorf("dot %d: unexpected error %v", i, err)
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
	if !graphsEqual(t, real, virt) {
		t.Fatal("fused-op graphs differ between real and virtual planners")
	}
}

func TestFusedSweepLaunchCounts(t *testing.T) {
	// The headline accounting: k updates and d dots over P pieces launch
	// P + 1 tasks fused (P sweeps + one combine), versus k·P + d·(P+1)
	// unfused.
	const pieces = 4
	p, a, b := fusedTestPlanner(64, pieces)
	p.grain = 0 // the ledger counts per-piece launches
	p.Drain()
	before := p.Runtime().Stats().Launched
	p.FusedSweep([]VecUpdate{
		{Kind: UpdAxpy, Dst: a, Alpha: p.Constant(1), Src: RHS},
		{Kind: UpdAxpy, Dst: b, Alpha: p.Constant(2), Src: SOL},
	}, []DotPair{{a, a}, {a, b}, {b, b}})
	p.Drain()
	if got := p.Runtime().Stats().Launched - before; got != pieces+1 {
		t.Fatalf("fused sweep launched %d tasks, want %d", got, pieces+1)
	}
}

func TestFusedSweepValidation(t *testing.T) {
	p, a, _ := fusedTestPlanner(32, 2)
	for name, fn := range map[string]func(){
		"empty":     func() { p.FusedSweep(nil, nil) },
		"nil alpha": func() { p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: a, Src: RHS}) },
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
	// i's combine through the shared vectors, and the shared-future
	// scalars must be race-free under the -race CI run. Several planners
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
// model's, identically on real and virtual planners.
func TestSweepTaskVocabulary(t *testing.T) {
	const n, pieces = 64, 4
	m := machine.Lassen(2)
	axpy, dot := m.AxpyCost(n/pieces), m.DotCost(n/pieces)
	type class struct {
		count int
		cost  float64 // -1: not a sweep task, cost not pinned here
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
			"matmul": {pieces, -1}, "div": {2, 0},
			"dot.partial": {pieces, dot}, "dot.reduce": {1, m.AllReduceTime()},
			"fused.updatedot": {pieces, axpy + axpy + dot}, "dot.batchreduce": {1, m.AllReduceTime()},
			"xpay": {pieces, axpy},
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
			"matmul": {pieces, -1}, "matmulT": {pieces, -1}, "div": {2, 0}, "neg": {2, 0},
			"dot.partial": {3 * pieces, dot}, "dot.reduce": {3, m.AllReduceTime()},
			"axpy": {3 * pieces, axpy}, "xpay": {2 * pieces, axpy},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var launched [2]int64
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
				launched[vi] = p.Runtime().Stats().Launched
				got := map[string]int{}
				for _, nd := range p.Runtime().Graph().Nodes {
					got[nd.Name]++
					want, ok := tc.want[nd.Name]
					if !ok {
						t.Errorf("virtual=%v: unexpected task name %q", virtual, nd.Name)
					} else if want.cost >= 0 && nd.Cost != want.cost {
						t.Errorf("virtual=%v: %s cost %g, want %g", virtual, nd.Name, nd.Cost, want.cost)
					}
				}
				for name, want := range tc.want {
					if got[name] != want.count {
						t.Errorf("virtual=%v: %d %s task(s), want %d", virtual, got[name], name, want.count)
					}
				}
			}
			if launched[0] != launched[1] {
				t.Errorf("real planner launched %d tasks, virtual %d", launched[0], launched[1])
			}
		})
	}
}

// A lone dot's value is its combine task's future, so a NaN injected on
// the combine reaches the host instead of being papered over by a read of
// the (intact) backing region; the scalars of a batch share one future
// and each read their own region.
func TestInjectedNaNOnDotReduceReachesHost(t *testing.T) {
	p, _, _ := fusedTestPlanner(64, 4)
	p.Drain()
	p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1, Names: []string{"dot.reduce"}}))
	if v := p.Dot(SOL, RHS).Value(); !math.IsNaN(v) {
		t.Errorf("Dot = %g under an injected NaN on dot.reduce, want NaN", v)
	}
	for i, d := range p.DotBatch(DotPair{SOL, RHS}, DotPair{RHS, RHS}) {
		if v := d.Value(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("batched dot %d = %g, want finite", i, v)
		}
	}
	p.Drain()
}
