package solvers

import (
	"math"
	"strings"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/sparse"
)

// fusedRHS builds a deterministic non-trivial right-hand side.
func fusedRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7)%11)/3 - 1.5
	}
	return b
}

// pcgPlanFor is planFor plus a Jacobi preconditioner on the operator.
func pcgPlanFor(a sparse.Matrix, b []float64, pieces int) *core.Planner {
	n := int64(len(b))
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), pieces))
	p.AddOperator(a, si, ri)
	p.AddPreconditioner(precond.Jacobi(a), si, ri)
	p.Finalize()
	return p
}

// runBitwisePair steps a fused solver and its unfused counterpart in
// lockstep and requires bit-identical iterates: fusion may only change
// how launches are batched, never the arithmetic.
func runBitwisePair(t *testing.T, name string, steps int,
	plan func() *core.Planner, fused, unfused func(p *core.Planner) Solver) {
	t.Helper()
	pf, pu := plan(), plan()
	sf, su := fused(pf), unfused(pu)
	for i := 0; i < steps; i++ {
		sf.Step()
		su.Step()
		pf.Drain()
		pu.Drain()
		xf, xu := pf.VecData(core.SOL, 0), pu.VecData(core.SOL, 0)
		for j := range xf {
			if xf[j] != xu[j] {
				t.Fatalf("%s: step %d: fused x[%d]=%v != unfused %v",
					name, i+1, j, xf[j], xu[j])
			}
		}
		rf := math.Sqrt(sf.ConvergenceMeasure().Value())
		ru := math.Sqrt(su.ConvergenceMeasure().Value())
		if d := math.Abs(rf - ru); d > 1e-10*(1+ru) {
			t.Fatalf("%s: step %d: residual %g (fused) vs %g (unfused)",
				name, i+1, rf, ru)
		}
	}
}

// unfusedCG is CG's per-operation step — the pre-fusion formulation,
// six single-operation sweeps and two reductions per iteration — kept
// here as the bitwise reference for the fused step. It opens the same
// trace scope as the fused step, so an expression over the previous
// step's scalars is evaluated the same way (core.Scalar).
type unfusedCG struct{ *CG }

func (s unfusedCG) Step() {
	p := s.p
	p.BeginPhase("cg.step")
	defer p.TraceEnd(p.TraceBegin("cg.step"))
	p.Matmul(s.q, s.pv)            // q = A p
	pq := p.Dot(s.pv, s.q)         // pᵀAp
	alpha := p.Div(s.res, pq)      // α = res / pᵀAp
	p.Axpy(core.SOL, alpha, s.pv)  // x += α p
	p.Axpy(s.r, p.Neg(alpha), s.q) // r -= α q
	newRes := p.Dot(s.r, s.r)
	beta := p.Div(newRes, s.res) // β = res' / res
	p.Xpay(s.pv, beta, s.r)      // p = r + β p
	s.res = newRes
}

func newUnfusedCG(p *core.Planner) Solver { return unfusedCG{NewCG(p)} }

// unfusedPCG is PCG's per-operation step, the bitwise reference for the
// fused step.
type unfusedPCG struct{ *PCG }

func (s unfusedPCG) Step() {
	p := s.p
	p.BeginPhase("pcg.step")
	defer p.TraceEnd(p.TraceBegin("pcg.step"))
	p.Matmul(s.q, s.pv)
	alpha := p.Div(s.rz, p.Dot(s.pv, s.q))
	p.Axpy(core.SOL, alpha, s.pv)
	p.Axpy(s.r, p.Neg(alpha), s.q)
	p.PSolve(s.z, s.r)
	rzNew := p.Dot(s.r, s.z)
	beta := p.Div(rzNew, s.rz)
	p.Xpay(s.pv, beta, s.z)
	s.rz = rzNew
	s.res = p.Dot(s.r, s.r)
}

func newUnfusedPCG(p *core.Planner) Solver { return unfusedPCG{NewPCG(p)} }

// unfusedBiCGStab is BiCGStab's per-operation step, the bitwise
// reference for the fused step.
type unfusedBiCGStab struct{ *BiCGStab }

func (s unfusedBiCGStab) Step() {
	p := s.p
	p.BeginPhase("bicgstab.step")
	defer p.TraceEnd(p.TraceBegin("bicgstab.step"))
	rho := p.Dot(s.rhat, s.r)
	beta := p.Mul(guardedDiv(p, &s.bd, "bicgstab", "rho", rho, s.rho),
		guardedDiv(p, &s.bd, "bicgstab", "omega", s.alpha, s.omega))
	p.Axpy(s.pv, p.Neg(s.omega), s.v) // p = r + β(p − ω v)
	p.Xpay(s.pv, beta, s.r)
	p.Matmul(s.v, s.pv) // v = A p
	alpha := guardedDiv(p, &s.bd, "bicgstab", "rhat·v", rho, p.Dot(s.rhat, s.v))
	p.Axpy(s.r, p.Neg(alpha), s.v) // s (reusing r): r ← r − α v
	p.Matmul(s.t, s.r)             // t = A s
	omega := guardedDiv(p, &s.bd, "bicgstab", "t·t", p.Dot(s.t, s.r), p.Dot(s.t, s.t))
	p.Axpy(core.SOL, alpha, s.pv) // x += α p + ω s
	p.Axpy(core.SOL, omega, s.r)
	p.Axpy(s.r, p.Neg(omega), s.t) // r ← s − ω t
	s.rho, s.alpha, s.omega = rho, alpha, omega
	s.res = p.Dot(s.r, s.r)
}

func newUnfusedBiCGStab(p *core.Planner) Solver { return unfusedBiCGStab{NewBiCGStab(p)} }

func TestCGFusedBitwiseMatchesUnfused(t *testing.T) {
	runBitwisePair(t, "cg", 10,
		func() *core.Planner { return planFor(sparse.Laplacian2D(8, 8), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewCG(p) }, newUnfusedCG)
}

func TestPCGFusedBitwiseMatchesUnfused(t *testing.T) {
	runBitwisePair(t, "pcg", 10,
		func() *core.Planner { return pcgPlanFor(sparse.Laplacian2D(8, 8), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewPCG(p) }, newUnfusedPCG)
}

func TestBiCGStabFusedBitwiseMatchesUnfused(t *testing.T) {
	runBitwisePair(t, "bicgstab", 10,
		func() *core.Planner { return planFor(convectionDiffusion(64, 0.3), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewBiCGStab(p) }, newUnfusedBiCGStab)
}

// unfusedBiCG is BiCG's per-operation step — seven single-operation
// sweeps and four reductions per iteration — kept here as the bitwise
// reference for the fused step, not as a solver anything constructs.
type unfusedBiCG struct{ *BiCG }

func (s unfusedBiCG) Step() {
	p := s.p
	p.BeginPhase("bicg.step")
	p.Matmul(s.q, s.pv)
	p.MatmulT(s.qt, s.pt)
	alpha := guardedDiv(p, &s.bd, "bicg", "pt·Ap", s.rho, p.Dot(s.pt, s.q))
	p.Axpy(core.SOL, alpha, s.pv)
	p.Axpy(s.r, p.Neg(alpha), s.q)
	p.Axpy(s.rt, p.Neg(alpha), s.qt)
	rhoNew := p.Dot(s.rt, s.r)
	beta := guardedDiv(p, &s.bd, "bicg", "rho", rhoNew, s.rho)
	p.Xpay(s.pv, beta, s.r)
	p.Xpay(s.pt, beta, s.rt)
	s.rho = rhoNew
	s.res = p.Dot(s.r, s.r)
}

func newUnfusedBiCG(p *core.Planner) Solver { return unfusedBiCG{NewBiCG(p)} }

func TestBiCGFusedBitwiseMatchesUnfused(t *testing.T) {
	runBitwisePair(t, "bicg", 10,
		func() *core.Planner { return planFor(convectionDiffusion(64, 0.3), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewBiCG(p) }, newUnfusedBiCG)

	// A skew-symmetric system ends in the p̃ᵀAp guard at the first step:
	// both steps must report it and agree on the (untouched) iterate.
	var fused, unfused *BiCG
	runBitwisePair(t, "bicg-breakdown", 3,
		func() *core.Planner { return planFor(skewSymmetric(4), []float64{1, 2, 3, 4, 5, 6, 7, 8}, 2) },
		func(p *core.Planner) Solver { fused = NewBiCG(p); return fused },
		func(p *core.Planner) Solver { unfused = NewBiCG(p); return unfusedBiCG{unfused} })
	for name, s := range map[string]*BiCG{"fused": fused, "unfused": unfused} {
		if err := s.Breakdown(); err == nil || !strings.Contains(err.Error(), "pt·Ap") {
			t.Errorf("%s BiCG on a skew-symmetric system: breakdown %v, want the pt·Ap guard", name, err)
		}
	}
}

// unfusedCGS is CGS's per-operation step — seventeen single-operation
// sweeps an iteration — kept as the bitwise reference for the fused step.
type unfusedCGS struct{ *CGS }

func (s unfusedCGS) Step() {
	p := s.p
	p.BeginPhase("cgs.step")
	rho := p.Dot(s.rt, s.r)
	if s.k == 0 {
		p.Copy(s.u, s.r)
		p.Copy(s.pp, s.u)
	} else {
		beta := guardedDiv(p, &s.bd, "cgs", "rho", rho, s.rho)
		p.Copy(s.u, s.r)
		p.Axpy(s.u, beta, s.q)
		p.Scal(s.pp, beta)
		p.Axpy(s.pp, p.Constant(1), s.q)
		p.Scal(s.pp, beta)
		p.Axpy(s.pp, p.Constant(1), s.u)
	}
	s.k++
	p.Matmul(s.vhat, s.pp)
	alpha := guardedDiv(p, &s.bd, "cgs", "rt·v", rho, p.Dot(s.rt, s.vhat))
	p.Copy(s.q, s.u)
	p.Axpy(s.q, p.Neg(alpha), s.vhat)
	p.Copy(s.uq, s.u)
	p.Axpy(s.uq, p.Constant(1), s.q)
	p.Axpy(core.SOL, alpha, s.uq)
	p.Matmul(s.vhat, s.uq)
	p.Axpy(s.r, p.Neg(alpha), s.vhat)
	s.rho = rho
	s.res = p.Dot(s.r, s.r)
}

func newUnfusedCGS(p *core.Planner) Solver { return unfusedCGS{NewCGS(p)} }

// unfusedMINRES is MINRES's per-operation step — sixteen single-operation
// sweeps an iteration — kept as the bitwise reference for the fused step.
type unfusedMINRES struct{ *MINRES }

func (s unfusedMINRES) Step() {
	p := s.p
	p.BeginPhase("minres.step")
	s.k++
	p.Copy(s.v, s.r2)
	p.Scal(s.v, p.Constant(safeInv(s.beta)))
	p.Matmul(s.y, s.v)
	if s.k > 1 {
		p.AxpyConst(s.y, -s.beta*safeInv(s.oldb), s.r1)
	}
	alfa := p.Dot(s.v, s.y).Value()
	p.AxpyConst(s.y, -alfa*safeInv(s.beta), s.r2)
	p.Copy(s.r1, s.r2)
	p.Copy(s.r2, s.y)
	s.oldb = s.beta
	s.beta = math.Sqrt(p.Dot(s.r2, s.r2).Value())
	oldeps := s.epsln
	delta := s.cs*s.dbar + s.sn*alfa
	gbar := s.sn*s.dbar - s.cs*alfa
	s.epsln = s.sn * s.beta
	s.dbar = -s.cs * s.beta
	gamma := math.Hypot(gbar, s.beta)
	s.cs = gbar * safeInv(gamma)
	s.sn = s.beta * safeInv(gamma)
	phi := s.cs * s.phibar
	s.phibar = s.sn * s.phibar
	p.Copy(s.w1, s.w2)
	p.Copy(s.w2, s.w)
	p.Copy(s.w, s.v)
	p.AxpyConst(s.w, -oldeps, s.w1)
	p.AxpyConst(s.w, -delta, s.w2)
	p.Scal(s.w, p.Constant(safeInv(gamma)))
	p.AxpyConst(core.SOL, phi, s.w)
	s.res = p.Constant(s.phibar * s.phibar)
}

func newUnfusedMINRES(p *core.Planner) Solver { return unfusedMINRES{NewMINRES(p)} }

// unfusedPGMRES is PGMRES's step with its basis copies and normalizing
// scals as separate sweeps — seven tasks a step where the fused step
// launches three — kept as the bitwise reference.
type unfusedPGMRES struct{ *PGMRES }

func (s unfusedPGMRES) Step() {
	p := s.p
	j := s.open()
	zj := s.z[j]
	pairs := make([]core.DotPair, j+2)
	for i := 0; i <= j; i++ {
		pairs[i] = core.DotPair{V: zj, W: s.basis[i]}
	}
	pairs[j+1] = core.DotPair{V: zj, W: zj}
	dots := p.DotBatch(pairs...)
	p.Matmul(s.u, zj)
	col := make([]*core.Scalar, j+2)
	copy(col, dots[:j+1])
	col[j+1] = p.ScalarExpr("pgmres.pythag", func(v []float64) float64 {
		t := v[0]
		for _, a := range v[1:] {
			t -= a * a
		}
		return math.Sqrt(math.Max(t, 0))
	}, append([]*core.Scalar{dots[j+1]}, dots[:j+1]...)...)
	if s.push(col) {
		return
	}
	p.Copy(s.basis[j+1], zj)
	p.Copy(s.z[j+1], s.u)
	ups := make([]core.VecUpdate, 0, 2*(j+1))
	for i := 0; i <= j; i++ {
		ups = append(ups,
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.basis[j+1], Alpha: col[i], Neg: true, Src: s.basis[i]},
			core.VecUpdate{Kind: core.UpdAxpy, Dst: s.z[j+1], Alpha: col[i], Neg: true, Src: s.z[i]},
		)
	}
	p.FusedUpdate(ups...)
	inv := p.Div(p.Constant(1), col[j+1])
	p.Scal(s.basis[j+1], inv)
	p.Scal(s.z[j+1], inv)
	s.endStep()
}

func newUnfusedPGMRES(p *core.Planner) Solver { return unfusedPGMRES{NewPGMRES(p, 10)} }

func TestCGSFusedBitwiseMatchesUnfused(t *testing.T) {
	runBitwisePair(t, "cgs", 12,
		func() *core.Planner { return planFor(convectionDiffusion(64, 0.3), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewCGS(p) }, newUnfusedCGS)

	// A skew-symmetric system ends in the r̃ᵀv̂ guard at the first step:
	// both steps must report it and agree on the (untouched) iterate.
	var fused, unfused *CGS
	runBitwisePair(t, "cgs-breakdown", 3,
		func() *core.Planner { return planFor(skewSymmetric(4), []float64{1, 2, 3, 4, 5, 6, 7, 8}, 2) },
		func(p *core.Planner) Solver { fused = NewCGS(p); return fused },
		func(p *core.Planner) Solver { unfused = NewCGS(p); return unfusedCGS{unfused} })
	for name, s := range map[string]*CGS{"fused": fused, "unfused": unfused} {
		if err := s.Breakdown(); err == nil || !strings.Contains(err.Error(), "rt·v") {
			t.Errorf("%s CGS on a skew-symmetric system: breakdown %v, want the rt·v guard", name, err)
		}
	}
}

func TestMINRESFusedBitwiseMatchesUnfused(t *testing.T) {
	runBitwisePair(t, "minres", 12,
		func() *core.Planner { return planFor(sparse.Laplacian2D(8, 8), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewMINRES(p) }, newUnfusedMINRES)
}

func TestPGMRESFusedBitwiseMatchesUnfused(t *testing.T) {
	// x moves only when a cycle closes: 25 steps cross two closes.
	runBitwisePair(t, "pgmres", 25,
		func() *core.Planner { return planFor(convectionDiffusion(64, 0.3), fusedRHS(64), 4) },
		func(p *core.Planner) Solver { return NewPGMRES(p, 10) }, newUnfusedPGMRES)
}

func TestPipeCGAgreesWithCG(t *testing.T) {
	// Pipelined CG computes the same Krylov iterates up to rounding (its
	// auxiliary recurrences reorder the arithmetic), so it must reach the
	// same solution to solver tolerance, not bitwise.
	mat := sparse.Laplacian2D(8, 8)
	b := fusedRHS(64)
	pc := planFor(mat, append([]float64(nil), b...), 4)
	pp := planFor(mat, append([]float64(nil), b...), 4)
	rc := Solve(pc, NewCG(pc), 1e-10, 200)
	rp := Solve(pp, NewPipeCG(pp), 1e-10, 200)
	pc.Drain()
	pp.Drain()
	if !rc.Converged || !rp.Converged {
		t.Fatalf("convergence: cg=%+v pipecg=%+v", rc, rp)
	}
	if d := maxAbsDiff(pc.VecData(core.SOL, 0), pp.VecData(core.SOL, 0)); d > 1e-8 {
		t.Fatalf("pipecg solution diverged from cg: max |Δx| = %g", d)
	}
	// The pipelined measure lags one update, so it may take an extra
	// iteration or two — but not a different convergence order.
	if rp.Iterations > rc.Iterations+3 {
		t.Errorf("pipecg took %d iterations vs cg's %d", rp.Iterations, rc.Iterations)
	}
}

// launchesPerIter measures steady-state task launches per iteration:
// 3 warmup steps, then a drained 8-step window.
func launchesPerIter(p *core.Planner, s Solver) float64 {
	const warmup, window = 3, 8
	RunIterations(s, warmup)
	p.Drain()
	before := p.Runtime().Stats().Launched
	RunIterations(s, window)
	p.Drain()
	return float64(p.Runtime().Stats().Launched-before) / window
}

// reductionsPerIter counts global reductions — the "dot.reduce" and
// "dot.batchreduce" combining tasks that stand in for an allreduce on a
// distributed machine, and that only a virtual planner launches — per
// iteration over a traced 40-step window after 3 warmup steps. One Step
// of an s-step method is itersPerStep iterations.
func reductionsPerIter(p *core.Planner, s Solver, itersPerStep int) float64 {
	const warmup, window = 3, 40
	RunIterations(s, warmup)
	p.Drain()
	before := p.Runtime().Graph().Len()
	RunIterations(s, window)
	p.Drain()
	count := 0
	for _, n := range p.Runtime().Graph().Nodes[before:] {
		if n.Name == "dot.reduce" || n.Name == "dot.batchreduce" {
			count++
		}
	}
	return float64(count) / float64(window*itersPerStep)
}

func TestReductionsPerIteration(t *testing.T) {
	// The communication-avoidance ledger, on the virtual planner that
	// launches the combines. These are counts of graph nodes, not
	// timings, so equality is exact: classical CG pays two
	// global reductions per iteration, pipelined CG one, and s-step CG
	// one block Gram reduction per s iterations — its basis is plain
	// products, which reduce nothing.
	for _, c := range []struct {
		name         string
		itersPerStep int
		mk           func(p *core.Planner) Solver
		want         float64
	}{
		{"cg", 1, func(p *core.Planner) Solver { return NewCG(p) }, 2},
		{"pipecg", 1, func(p *core.Planner) Solver { return NewPipeCG(p) }, 1},
		{"sstep-cg", 4, func(p *core.Planner) Solver { return NewSStepCG(p, 4) }, 0.25},
	} {
		p := confPlanner(sparse.Laplacian2D(128, 128), nil, true, true)
		if got := reductionsPerIter(p, c.mk(p), c.itersPerStep); got != c.want {
			t.Errorf("%s: %g reductions/iteration, want exactly %g", c.name, got, c.want)
		}
	}
}

func TestRestartLaunchCost(t *testing.T) {
	// One restart from x (the true-residual recompute, the direction
	// reset and the r·r reduction) must stay under 5% of the launches of
	// 50 CG iterations.
	const iters = 50
	p := tracedPlanFor(sparse.Laplacian2D(128, 128), fusedRHS(128*128), 4)
	s := NewCG(p)
	perIter := launchesPerIter(p, s)
	before := p.Runtime().Stats().Launched
	s.restart()
	p.Drain()
	cost := float64(p.Runtime().Stats().Launched - before)
	t.Logf("restart: %.0f launches against %.1f launches/iter", cost, perIter)
	if cost > 0.05*iters*perIter {
		t.Errorf("one restart costs %.0f launches, over 5%% of %d iterations at %.1f launches/iter",
			cost, iters, perIter)
	}
}

func TestFusionLaunchReduction(t *testing.T) {
	// Fused CG launches ≥30% fewer tasks per iteration than the
	// per-operation formulation, and pipelined CG fewer still. BiCGStab,
	// PCG, BiCG, CGS, MINRES and PGMRES ride along with their own floors.
	// Four pieces of 4 096 points: at the planner's launch grain, so the
	// counts are per-piece counts, pinned exactly — a real planner launches
	// the piece tasks and no combine or scalar task (a PipeCG or BiCGStab
	// step keeps one host task: an expression over the previous step's).
	const side, n = 128, 128 * 128
	spd := func() sparse.Matrix { return sparse.Laplacian2D(side, side) }
	measure := func(plan func() *core.Planner, mk func(p *core.Planner) Solver) float64 {
		p := plan()
		return launchesPerIter(p, mk(p))
	}
	plain := func() *core.Planner { return planFor(spd(), fusedRHS(n), 4) }
	withJacobi := func() *core.Planner { return pcgPlanFor(spd(), fusedRHS(n), 4) }
	nonsym := func() *core.Planner { return planFor(convectionDiffusion(n, 0.3), fusedRHS(n), 4) }
	cases := []struct {
		name         string
		plan         func() *core.Planner
		fused        func(p *core.Planner) Solver
		unfused      func(p *core.Planner) Solver
		minDrop      float64
		wantF, wantU float64
	}{
		{"cg", plain,
			func(p *core.Planner) Solver { return NewCG(p) }, newUnfusedCG, 0.30, 12, 24},
		{"pcg", withJacobi,
			func(p *core.Planner) Solver { return NewPCG(p) }, newUnfusedPCG, 0.25, 16, 32},
		{"bicgstab", nonsym,
			func(p *core.Planner) Solver { return NewBiCGStab(p) }, newUnfusedBiCGStab, 0.30, 25, 54},
		{"bicg", nonsym,
			func(p *core.Planner) Solver { return NewBiCG(p) }, newUnfusedBiCG, 0.45, 16, 40},
		{"cgs", nonsym,
			func(p *core.Planner) Solver { return NewCGS(p) }, newUnfusedCGS, 0.55, 24, 68},
		{"minres", plain,
			func(p *core.Planner) Solver { return NewMINRES(p) }, newUnfusedMINRES, 0.65, 20, 64},
		// PGMRES's eight-step window closes one cycle (x += V y, restart).
		{"pgmres", nonsym,
			func(p *core.Planner) Solver { return NewPGMRES(p, 10) }, newUnfusedPGMRES, 0.40, 19.5, 35.5},
	}
	for _, c := range cases {
		f := measure(c.plan, c.fused)
		u := measure(c.plan, c.unfused)
		drop := 1 - f/u
		t.Logf("%s: %.1f launches/iter fused vs %.1f unfused (%.1f%% fewer)",
			c.name, f, u, 100*drop)
		if drop < c.minDrop {
			t.Errorf("%s: launch reduction %.1f%% below the %.0f%% floor",
				c.name, 100*drop, 100*c.minDrop)
		}
		if f != c.wantF || u != c.wantU {
			t.Errorf("%s: %g fused and %g unfused launches/iter, want %g and %g",
				c.name, f, u, c.wantF, c.wantU)
		}
	}
	// PipeCG's graph is its own: one batched reduction, one product that
	// overlaps it, one fully fused update sweep, and the host task of its
	// α recurrence. Fused CG, whose product carries pᵀAp, launches the
	// same three piece sweeps without the host task; what PipeCG keeps
	// over it is one reduction barrier an iteration instead of two.
	pipe := measure(plain, func(p *core.Planner) Solver { return NewPipeCG(p) })
	fcg := measure(plain, func(p *core.Planner) Solver { return NewCG(p) })
	t.Logf("pipecg: %.1f launches/iter vs fused cg %.1f", pipe, fcg)
	if pipe != 13 || pipe != fcg+1 {
		t.Errorf("pipecg launches/iter %.1f, want 13, one host task above fused cg's %.1f", pipe, fcg)
	}
}

// Expressions never span steps: a PipeCG or BiCGStab step builds its
// coefficients over the previous step's, which the planner computes in a
// host task instead of letting the expression reach further back. So
// every step launches the same tasks — the same count with tracing on and
// off — and the trace replays without a fallback.
func TestStaleExpressionsKeepStepsAlike(t *testing.T) {
	const steps = 50
	for _, c := range []struct {
		name string
		plan func(traced bool) *core.Planner
	}{
		{"pipecg", func(traced bool) *core.Planner {
			p := planFor(sparse.Laplacian2D(16, 16), fusedRHS(256), 4)
			p.SetTracing(traced)
			return p
		}},
		{"bicgstab", func(traced bool) *core.Planner {
			p := planFor(convectionDiffusion(256, 0.3), fusedRHS(256), 4)
			p.SetTracing(traced)
			return p
		}},
	} {
		var perStep [2]int64
		for i, traced := range []bool{false, true} {
			p := c.plan(traced)
			s := New(c.name, p)
			RunIterations(s, 2) // the first step reads constants, not expressions
			p.Drain()
			for k := 2; k < steps; k++ {
				before := p.Runtime().Stats().Launched
				s.Step()
				p.Drain()
				n := p.Runtime().Stats().Launched - before
				if k > 2 && n != perStep[i] {
					t.Fatalf("%s traced=%v: step %d launched %d tasks, step %d %d", c.name, traced, k+1, n, k, perStep[i])
				}
				perStep[i] = n
			}
			if st := p.Runtime().Stats(); traced && (st.TraceFallbacks != 0 || st.TraceHits < steps-4) {
				t.Errorf("%s: %d trace hits and %d fallbacks over %d steps", c.name, st.TraceHits, st.TraceFallbacks, steps)
			}
		}
		if perStep[0] != perStep[1] {
			t.Errorf("%s: %d launches a step untraced, %d traced", c.name, perStep[0], perStep[1])
		}
	}
}
