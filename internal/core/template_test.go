package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// A call site's launch is built once (launch.go). These tests hold a
// template to the launch a fresh build makes, to its key, to the modes it
// was built in, and to the calls in flight beside it.

// templateOps are the call sites under test: every operation kind, with
// and without dots, over the uneven test system's vectors (w and v are
// workspaces, a and b coefficients).
func templateOps(p *Planner, w, v VecID, a, b *Scalar) []struct {
	name string
	call func()
} {
	return []struct {
		name string
		call func()
	}{
		{"matmul", func() { p.Matmul(v, SOL) }},
		{"matmul+dots", func() { p.Matmul(v, SOL, DotPair{V: SOL, W: v}, DotPair{V: v, W: v}) }},
		{"matmulT", func() { p.MatmulT(w, RHS) }},
		{"psolve", func() { p.PSolve(w, RHS) }},
		{"psolve+dot", func() { p.PSolve(w, RHS, DotPair{V: w, W: RHS}) }},
		{"copy", func() { p.Copy(w, SOL) }},
		{"zero", func() { p.Zero(w) }},
		{"axpy", func() { p.Axpy(w, a, SOL) }},
		{"fused.update", func() {
			p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: a, Src: SOL},
				VecUpdate{Kind: UpdXpay, Dst: v, Alpha: b, Neg: true, Src: RHS},
				VecUpdate{Kind: UpdScal, Dst: w, Alpha: a})
		}},
		{"fused.updatedot", func() {
			p.FusedSweep([]VecUpdate{{Kind: UpdAxpy, Dst: w, Alpha: b, Src: SOL}},
				[]DotPair{{V: w, W: w}, {V: w, W: SOL}})
		}},
		{"dot.batch", func() { p.DotBatch(DotPair{V: SOL, W: RHS}, DotPair{V: v, W: v}) }},
	}
}

// closedPlanner returns the uneven test system launching into a closed
// session, so a launch panics with its specs still in the planner's batch,
// in the given modes, with two workspaces and two coefficients.
func closedPlanner(t *testing.T, virtual bool, ops int, sdc, injector bool) (p *Planner, w, v VecID, a, b *Scalar) {
	t.Helper()
	p = unevenPlanner(virtual, ops)
	p.sess = p.rt.NewSession("closed")
	if sdc {
		p.EnableSDCDetection()
	}
	if injector {
		p.sess.SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1, Names: []string{"no.such.task"}}))
	}
	w, v = p.AllocateWorkspace(SolShape), p.AllocateWorkspace(RhsShape)
	a = p.Dot(SOL, RHS)
	b = p.Div(a, p.Constant(3))
	p.Drain()
	p.sess.Close()
	return p, w, v, a, b
}

// launched runs one call on a closed session and returns the specs it
// submitted.
func launched(p *Planner, call func()) []taskrt.TaskSpec {
	func() {
		defer func() { recover() }()
		call()
	}()
	got := slices.Clone(p.specBuf)
	p.specBuf = p.specBuf[:0]
	return got
}

// A call of a cached site launches exactly the specs a freshly built call
// launches — names, processors, pieces, costs, refs and subsets under
// their privileges, awaited futures, retry and detach flags, and a body
// and corruption hook where the fresh call has one — for every operation
// kind, on virtual and real planners, with detection and an injector on
// and off, over a product with one writer per piece (riders) and one
// whose first group mixes fresh, folding and zero-filled members.
func TestTemplateEqualsFreshBuild(t *testing.T) {
	for _, c := range []struct {
		name                   string
		virtual, sdc, injector bool
		ops                    int
	}{
		{"virtual", true, false, false, opsPlain},
		{"real", false, false, false, opsPlain},
		{"real+sdc", false, true, false, opsPlain},
		{"real+faults", false, false, true, opsPlain},
		{"real+sdc+faults", false, true, true, opsPlain},
		{"real+folds", false, false, false, opsPartialFirst},
		{"real+folds+sdc+faults", false, true, true, opsPartialFirst},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, w, v, a, b := closedPlanner(t, c.virtual, c.ops, c.sdc, c.injector)
			for _, op := range templateOps(p, w, v, a, b) {
				launched(p, op.call) // builds the site's template
				n := len(p.tmpls)
				got := launched(p, op.call)
				if len(p.tmpls) != n {
					t.Fatalf("%s: a second call of the site built a template", op.name)
				}
				cached := p.tmpls
				p.tmpls = nil
				want := launched(p, op.call)
				p.tmpls = cached
				if len(got) == 0 || len(got) != len(want) {
					t.Fatalf("%s: %d tasks, a fresh build launches %d", op.name, len(got), len(want))
				}
				for i, g := range got {
					w := want[i]
					if g.Name != w.Name || g.Proc != w.Proc || g.Pieces != w.Pieces || g.Cost != w.Cost ||
						g.Retryable != w.Retryable || g.Detached != w.Detached || g.Host != w.Host ||
						!reflect.DeepEqual(g.Refs, w.Refs) || !reflect.DeepEqual(g.Awaits, w.Awaits) ||
						(g.Run != nil) != (w.Run != nil) || (g.Corrupt != nil) != (w.Corrupt != nil) {
						t.Errorf("%s task %d:\n got %+v\nwant %+v", op.name, i, g, w)
					}
					if (g.Run != nil) == c.virtual || (g.Corrupt != nil) != c.injector {
						t.Errorf("%s task %d: body set %v, corruption hook set %v", op.name, i, g.Run != nil, g.Corrupt != nil)
					}
				}
			}
		})
	}
}

// A template is the launch of its operands: other vectors, other dot
// pairs, another update kind, another sign or another sharing of the
// coefficients is another site, and the same operands with new scalars
// are the same site.
func TestTemplatePerCallSite(t *testing.T) {
	p := unevenPlanner(false, opsPlain)
	w, v := p.AllocateWorkspace(SolShape), p.AllocateWorkspace(SolShape)
	a, b := p.Constant(0.5), p.Constant(0.25)
	sites := func(call func()) int {
		n := len(p.tmpls)
		call()
		p.Drain()
		return len(p.tmpls) - n
	}
	for _, c := range []struct {
		name string
		call func()
		want int
	}{
		{"first axpy", func() { p.Axpy(w, a, SOL) }, 1},
		{"same axpy, new scalar", func() { p.Axpy(w, b, SOL) }, 0},
		{"axpy into another vector", func() { p.Axpy(v, a, SOL) }, 1},
		{"axpy from another vector", func() { p.Axpy(w, a, v) }, 1},
		{"xpay", func() { p.Xpay(w, a, SOL) }, 1},
		{"negated axpy", func() { p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: a, Neg: true, Src: SOL}) }, 1},
		{"two updates sharing a scalar", func() {
			p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: a, Src: SOL}, VecUpdate{Kind: UpdAxpy, Dst: v, Alpha: a, Src: SOL})
		}, 1},
		{"the same, new shared scalar", func() {
			p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: b, Src: SOL}, VecUpdate{Kind: UpdAxpy, Dst: v, Alpha: b, Src: SOL})
		}, 0},
		{"the same updates, two scalars", func() {
			p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: a, Src: SOL}, VecUpdate{Kind: UpdAxpy, Dst: v, Alpha: b, Src: SOL})
		}, 1},
		{"a dot", func() { p.Dot(w, v).Value() }, 1},
		{"the same dot again", func() { p.Dot(w, v).Value() }, 0},
		{"the swapped dot", func() { p.Dot(v, w).Value() }, 1},
		{"matmul", func() { p.Matmul(RHS, w) }, 1},
		{"matmul from another vector", func() { p.Matmul(RHS, v) }, 1},
		{"matmul carrying a dot", func() { p.Matmul(RHS, v, DotPair{V: RHS, W: RHS})[0].Value() }, 1},
		{"matmul again", func() { p.Matmul(RHS, w) }, 0},
	} {
		if got := sites(c.call); got != c.want {
			t.Errorf("%s: built %d templates, want %d", c.name, got, c.want)
		}
	}
}

// Enabling detection or setting an injector after a site's first launch
// takes effect at its next call: the site is built anew in the new mode.
func TestTemplateModeChangeTakesEffect(t *testing.T) {
	p := unevenPlanner(false, opsPlain)
	w := p.AllocateWorkspace(SolShape)
	a := p.Constant(0.5)
	sweep := func() { p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: a, Src: SOL}); p.Drain() }
	sweep()

	// Detection: a flip planted in the sweep's source alarms at its next
	// call.
	mon := p.EnableSDCDetection()
	sweep()
	p.VecData(SOL, 0)[7] = fault.FlipBit(p.VecData(SOL, 0)[7], 62)
	sweep()
	if mon.Count() == 0 {
		t.Fatal("a flip in the sweep's source raised no alarm: the site kept its detection-off launch")
	}
	p.VecData(SOL, 0)[7] = fault.FlipBit(p.VecData(SOL, 0)[7], 62)
	mon.Take()

	// Injector: a nan fault lands in the sweep's output data.
	p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1, Names: []string{"axpy"}, MaxFaults: 1}))
	sweep()
	if !slices.ContainsFunc(p.VecData(w, 0), math.IsNaN) {
		t.Fatal("an injected nan did not land in the sweep's output: the site kept its injector-free launch")
	}
}

// Two calls of one site may be in flight at once. Step k's update is held
// behind a blocker while step k+1 launches every operation again, with
// new coefficients and new partials; once released, every step computes
// exactly what the unblocked run does.
func TestTemplateCallsInFlightKeepTheirState(t *testing.T) {
	const steps = 6
	run := func(hold int) []uint64 {
		p := unevenPlanner(false, opsPlain)
		pv, q, r := p.AllocateWorkspace(SolShape), p.AllocateWorkspace(RhsShape), p.AllocateWorkspace(RhsShape)
		p.Matmul(q, SOL)
		p.FusedUpdate(VecUpdate{Kind: UpdCopy, Dst: r, Src: RHS}, VecUpdate{Kind: UpdAxpy, Dst: r, Alpha: p.Constant(-1), Src: q},
			VecUpdate{Kind: UpdCopy, Dst: pv, Src: r})
		res := p.Dot(r, r)
		var release chan struct{}
		var out []uint64
		for k := 0; k < steps; k++ {
			pq := p.Matmul(q, pv, DotPair{V: pv, W: q})[0]
			alpha := p.Div(res, pq)
			newRes := p.FusedSweep([]VecUpdate{{Kind: UpdAxpy, Dst: r, Alpha: alpha, Neg: true, Src: q}}, []DotPair{{V: r, W: r}})[0]
			beta := p.Div(newRes, res)
			if k == hold {
				release = make(chan struct{})
				wait := release
				whole := index.Span(0, p.sol[0].space.Size()-1)
				p.sess.Launch(taskrt.TaskSpec{
					Name: "blocker", Refs: []region.Ref{pieceRef(p.vecs[pv].regs[0], whole, region.ReadWrite)},
					Run: func() float64 { <-wait; return 0 },
				})
			}
			p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: SOL, Alpha: alpha, Src: pv}, VecUpdate{Kind: UpdXpay, Dst: pv, Alpha: beta, Src: r})
			if k == hold+1 {
				close(release)
			}
			res = newRes
		}
		p.Drain()
		for _, x := range p.VecData(SOL, 0) {
			out = append(out, math.Float64bits(x))
		}
		return append(out, math.Float64bits(res.Value()))
	}
	want := run(-10)
	for _, hold := range []int{0, 3} {
		if got := run(hold); !slices.Equal(got, want) {
			t.Errorf("holding step %d's update while step %d launched changed the iterates", hold, hold+1)
		}
	}
}
