package core

import (
	"slices"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// The virtual-mode contract: a virtual planner records the real planner's
// task graph — same tasks, same dependences, same costs, same placement —
// up to its scalar tasks. A real planner launches no combine and no scalar
// arithmetic (a dot's readers fold its partials, see Scalar), so the real
// graph is the virtual graph with those nodes contracted. This is what
// makes simulated measurements of virtual (paper-scale) runs meaningful.

// scalarNode reports whether a node is a scalar task: a host task (scalar
// arithmetic) or a dot's combine.
func scalarNode(n taskrt.Node) bool {
	return n.Host || n.Name == "dot.reduce" || n.Name == "dot.batchreduce"
}

// contractScalars removes every scalar node from g, keeping the edges
// through them transitively, and renumbers the rest densely. DepBytes are
// dropped: a reader's bytes come from a scalar region on one planner and
// from the partials on the other. image maps each node of g to its node in
// the result, or -1.
func contractScalars(g taskrt.Graph) (out taskrt.Graph, image []int) {
	image = make([]int, g.Len())
	through := make([][]int64, g.Len()) // a contracted node's kept producers
	for i, n := range g.Nodes {
		var deps []int64
		for _, d := range n.Deps {
			if image[d] >= 0 {
				deps = append(deps, int64(image[d]))
			} else {
				deps = append(deps, through[d]...)
			}
		}
		slices.Sort(deps)
		deps = slices.Compact(deps)
		if scalarNode(n) {
			image[i], through[i] = -1, deps
			continue
		}
		image[i] = out.Len()
		out.Nodes = append(out.Nodes, taskrt.Node{
			ID: int64(image[i]), Name: n.Name, Phase: n.Phase, Proc: n.Proc, Cost: n.Cost,
			Deps: deps, Traced: n.Traced,
		})
	}
	return out, image
}

// graphsEqual compares every field of every node.
func graphsEqual(t *testing.T, a, b taskrt.Graph) bool {
	t.Helper()
	if a.Len() != b.Len() {
		t.Logf("lengths differ: %d vs %d", a.Len(), b.Len())
		return false
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Name != y.Name || x.Proc != y.Proc || x.Cost != y.Cost ||
			x.Traced != y.Traced || x.Host != y.Host ||
			!slices.Equal(x.Deps, y.Deps) || !slices.Equal(x.DepBytes, y.DepBytes) {
			t.Logf("node %d differs: %+v vs %+v", i, x, y)
			return false
		}
	}
	return true
}

// contractedEqual reports whether the real graph has no scalar node left
// and both graphs contract to the same graph.
func contractedEqual(t *testing.T, real, virt taskrt.Graph) bool {
	t.Helper()
	for _, n := range real.Nodes {
		if scalarNode(n) && !n.Host {
			t.Logf("real planner launched a combine task: %+v", n)
			return false
		}
	}
	cr, _ := contractScalars(real)
	cv, _ := contractScalars(virt)
	return graphsEqual(t, cr, cv)
}

// buildBoth runs the same program on a real and a virtual planner and
// returns both graphs.
func buildBoth(t *testing.T, program func(p *Planner)) (real, virt taskrt.Graph) {
	t.Helper()
	m := machine.Lassen(2)
	pr := NewPlanner(Config{Machine: m})
	pr.grain = 0 // the virtual graph is per piece; grouping_test.go covers the contraction
	pv := NewPlanner(Config{Machine: m, Virtual: true})
	program(pr)
	program(pv)
	pr.Drain()
	pv.Drain()
	return pr.Runtime().Graph(), pv.Runtime().Graph()
}

// setupSystem adds a 2D stencil system to either kind of planner.
func setupSystem(p *Planner, n int64, pieces int) {
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(n/8, 8))
	if p.Virtual() {
		si := p.AddSolVectorVirtual(n, index.EqualPartition(index.NewSpace("D", n), pieces))
		ri := p.AddRHSVectorVirtual(n, index.EqualPartition(index.NewSpace("R", n), pieces))
		p.AddOperator(op, si, ri)
	} else {
		si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
		ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), pieces))
		p.AddOperator(op, si, ri)
	}
	p.Finalize()
}

func TestVirtualRealGraphEquivalenceVectorOps(t *testing.T) {
	real, virt := buildBoth(t, func(p *Planner) {
		setupSystem(p, 64, 4)
		w := p.AllocateWorkspace(SolShape)
		p.Copy(w, SOL)
		p.Axpy(w, p.Constant(2), RHS)
		p.Scal(w, p.Constant(0.5))
		p.Xpay(w, p.Constant(-1), SOL)
		p.Zero(w)
		_ = p.Dot(w, RHS)
	})
	if !contractedEqual(t, real, virt) {
		t.Fatal("vector-op graphs differ between real and virtual planners")
	}
}

func TestVirtualRealGraphEquivalenceMatmul(t *testing.T) {
	real, virt := buildBoth(t, func(p *Planner) {
		setupSystem(p, 64, 4)
		y := p.AllocateWorkspace(RhsShape)
		p.Matmul(y, SOL)
		p.MatmulT(y, RHS)
	})
	if !graphsEqual(t, real, virt) {
		t.Fatal("matmul graphs differ between real and virtual planners")
	}
}

func TestVirtualRealGraphEquivalenceScalars(t *testing.T) {
	real, virt := buildBoth(t, func(p *Planner) {
		setupSystem(p, 32, 2)
		d := p.Dot(SOL, RHS)
		e := p.Div(d, p.Constant(3))
		f := p.Mul(p.Neg(e), p.Sqrt(p.Mul(d, e)))
		p.Axpy(SOL, f, RHS)
	})
	if real.Len() != virt.Len()-6 {
		t.Errorf("real graph has %d nodes, want the virtual %d less one combine and five scalar tasks", real.Len(), virt.Len())
	}
	if !contractedEqual(t, real, virt) {
		t.Fatal("scalar graphs differ between real and virtual planners")
	}
}

func TestVirtualRealGraphEquivalenceTraced(t *testing.T) {
	real, virt := buildBoth(t, func(p *Planner) {
		setupSystem(p, 64, 4)
		y := p.AllocateWorkspace(RhsShape)
		for i := 0; i < 3; i++ {
			p.Session().BeginTrace("iter")
			p.Matmul(y, SOL)
			p.Axpy(SOL, p.Dot(y, RHS), y)
			p.Session().EndTrace()
		}
	})
	if !contractedEqual(t, real, virt) {
		t.Fatal("traced graphs differ between real and virtual planners")
	}
}

// windowShape captures the structure of one iteration's subgraph with
// deps rebased to the window start (external deps normalized to -1-lag).
type shapeNode struct {
	name  string
	proc  int
	cost  float64
	deps  []int64
	bytes []int64
}

func windowShape(g taskrt.Graph, lo, hi int) []shapeNode {
	out := make([]shapeNode, 0, hi-lo)
	for _, n := range g.Nodes[lo:hi] {
		sn := shapeNode{name: n.Name, proc: n.Proc, cost: n.Cost}
		for i, d := range n.Deps {
			rel := d - int64(lo)
			if rel < 0 {
				rel = -1 // external producer: position-independent marker
			}
			sn.deps = append(sn.deps, rel)
			sn.bytes = append(sn.bytes, n.DepBytes[i])
		}
		out = append(out, sn)
	}
	return out
}

func shapesEqual(a, b []shapeNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.name != y.name || x.proc != y.proc || x.cost != y.cost ||
			len(x.deps) != len(y.deps) {
			return false
		}
		for d := range x.deps {
			if x.deps[d] != y.deps[d] || x.bytes[d] != y.bytes[d] {
				return false
			}
		}
	}
	return true
}

func TestTraceReplayGraphsAreStructurallyIdentical(t *testing.T) {
	// The dynamic-tracing model (DESIGN.md): replayed iterations must
	// produce graphs identical in structure to the recorded one, which is
	// what justifies charging them the memoized overhead.
	p := NewPlanner(Config{Machine: machine.Lassen(2), Virtual: true})
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(32, 32))
	si := p.AddSolVectorVirtual(1024, index.EqualPartition(index.NewSpace("D", 1024), 4))
	ri := p.AddRHSVectorVirtual(1024, index.EqualPartition(index.NewSpace("R", 1024), 4))
	p.AddOperator(op, si, ri)
	p.Finalize()
	y := p.AllocateWorkspace(RhsShape)

	marks := []int{}
	for i := 0; i < 4; i++ {
		marks = append(marks, p.Runtime().Graph().Len())
		p.Session().BeginTrace("iter")
		p.Matmul(y, SOL)
		d := p.Dot(y, RHS)
		p.Axpy(SOL, d, y)
		p.Xpay(y, p.Neg(d), RHS)
		p.Session().EndTrace()
	}
	p.Drain()
	g := p.Runtime().Graph()
	marks = append(marks, g.Len())

	// Steady state begins at iteration 1: iteration 0 reads vectors that
	// have no prior writers, so it carries fewer anti-dependence edges
	// (exactly why warmup iterations precede timing in the protocol).
	base := windowShape(g, marks[1], marks[2])
	for i := 2; i+1 < len(marks); i++ {
		if !shapesEqual(base, windowShape(g, marks[i], marks[i+1])) {
			t.Fatalf("iteration %d window differs structurally from iteration 1", i)
		}
	}
	// Task counts agree even for the recorded iteration.
	if marks[1]-marks[0] != marks[2]-marks[1] {
		t.Fatalf("iteration task counts differ: %d vs %d",
			marks[1]-marks[0], marks[2]-marks[1])
	}
}

// The format-equivalence contract: the tuned composite is the same
// operator as the CSR it was built from, down to the order each output
// element accumulates its row in, so a Krylov solve cannot tell them
// apart.

// cgSystem is CG on lap2d:64x64 over 8 pieces, written against the
// planner's own operations, with the operator stored as CSR or tuned.
type cgSystem struct {
	p       *Planner
	r, d, q VecID
	rr      *Scalar
}

func newCGSystem(a *sparse.CSR, b []float64, auto bool) *cgSystem {
	n := a.Domain().Size()
	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), 8))
	ri := p.AddRHSVector(append([]float64(nil), b...), index.EqualPartition(index.NewSpace("R", n), 8))
	if auto {
		p.AddOperatorAuto(a, si, ri)
	} else {
		p.AddOperator(a, si, ri)
	}
	p.Finalize()
	s := &cgSystem{p: p, r: p.AllocateWorkspace(RhsShape), d: p.AllocateWorkspace(SolShape), q: p.AllocateWorkspace(RhsShape)}
	p.Copy(s.r, RHS) // x0 = 0, so r0 = b
	p.Copy(s.d, s.r)
	s.rr = p.Dot(s.r, s.r)
	return s
}

// step runs one CG iteration and returns the squared residual norm.
func (s *cgSystem) step() float64 {
	p := s.p
	p.Matmul(s.q, s.d)
	alpha := p.Div(s.rr, p.Dot(s.d, s.q))
	p.Axpy(SOL, alpha, s.d)
	p.Axpy(s.r, p.Neg(alpha), s.q)
	rr := p.Dot(s.r, s.r)
	p.Xpay(s.d, p.Div(rr, s.rr), s.r)
	s.rr = rr
	p.Drain()
	return rr.Value()
}

func TestAutoMatchesCSRUnderCG(t *testing.T) {
	a := sparse.Laplacian2D(64, 64)
	n := a.Domain().Size()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%11) - 4.5
	}
	csr, auto := newCGSystem(a, b, false), newCGSystem(a, b, true)
	stop := 1e-16 * csr.rr.Value() // ‖r‖ ≤ 1e-8·‖b‖, squared
	for it := 1; it <= 1000; it++ {
		doneCSR, doneAuto := csr.step() <= stop, auto.step() <= stop
		if !vecsClose(csr.p.VecData(SOL, 0), auto.p.VecData(SOL, 0), 1e-10) {
			t.Fatalf("iteration %d: format auto iterate differs from csr by more than 1e-10", it)
		}
		if doneCSR != doneAuto {
			t.Fatalf("iteration %d: csr converged=%v, format auto converged=%v", it, doneCSR, doneAuto)
		}
		if doneCSR {
			return
		}
	}
	t.Fatal("CG did not converge in 1000 iterations")
}
