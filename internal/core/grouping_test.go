package core

import (
	"math"
	"testing"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// The planner launches by the grain and keeps data by the piece
// (launchGroups). These tests pin the grouping itself; that solvers hold
// bit-identical iterates either way is grouping_solvers_test.go.

// unevenSizes are piece sizes whose groups, at a grain of 4 096 points,
// are {0,1} (5 000 points), {2,3} (5 100), {4} (a piece of exactly one
// grain, alone) and {5,6} (20: the last, short run).
var unevenSizes = []int64{3000, 2000, 100, 5000, 4096, 10, 10}

var unevenGroups = [][]int{{0, 1}, {2, 3}, {4}, {5, 6}}

func unevenPartition(tag string) (index.Partition, int64) {
	var n int64
	pieces := make([]index.IntervalSet, len(unevenSizes))
	for c, sz := range unevenSizes {
		pieces[c] = index.Span(n, n+sz-1)
		n += sz
	}
	return index.NewPartition(index.NewSpace(tag, n), pieces), n
}

// The operator sets of the uneven test system: one tridiagonal matrix;
// the same matrix at half weight added twice (aliased storage: the second
// product folds into the first under reduction privilege); or the matrix
// behind a small operator that writes a few rows of pieces 1 and 3 only,
// so its first group has members that are fresh and members that fold.
const (
	opsPlain = iota
	opsAliased
	opsPartialFirst
)

// unevenPlanner builds a tridiagonal system over the uneven partition on
// a machine with a processor for each of its 14 pieces.
func unevenPlanner(virtual bool, ops int) *Planner {
	dp, n := unevenPartition("D")
	rp, _ := unevenPartition("R")
	var coords []sparse.Coord
	w := 1.0
	if ops == opsAliased {
		w = 0.5
	}
	for i := int64(0); i < n; i++ {
		if i > 0 {
			coords = append(coords, sparse.Coord{Row: i, Col: i - 1, Val: -w})
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 2.5 * w})
		if i < n-1 {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1, Val: -w})
		}
	}
	a := sparse.CSRFromCoords(n, n, coords)
	p := NewPlanner(Config{Machine: machine.Lassen(4), Virtual: virtual})
	var si, ri int
	if virtual {
		si, ri = p.AddSolVectorVirtual(n, dp), p.AddRHSVectorVirtual(n, rp)
	} else {
		x, b := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i%13)/7 - 0.5
			b[i] = float64((i*11)%17)/5 + 0.25
		}
		si, ri = p.AddSolVector(x, dp), p.AddRHSVector(b, rp)
	}
	switch ops {
	case opsAliased:
		p.AddOperator(a, si, ri)
	case opsPartialFirst:
		var few []sparse.Coord
		for _, row := range []int64{3000, 3001, 4999, 5100, 5101, 6000} {
			few = append(few, sparse.Coord{Row: row, Col: row, Val: 0.25}, sparse.Coord{Row: row, Col: row + 2, Val: -0.125})
		}
		p.AddOperator(sparse.CSRFromCoords(n, n, few), si, ri)
	}
	p.AddOperator(a, si, ri)
	p.AddPreconditioner(sparse.DiagonalCSR(make([]float64, n)), si, ri)
	p.Finalize()
	return p
}

func TestLaunchGroups(t *testing.T) {
	p := unevenPlanner(false, opsPlain)
	check := func(what string, groups [][]pieceGroup, want [][]int) {
		t.Helper()
		if len(groups) != 1 || len(groups[0]) != len(want) {
			t.Fatalf("%s: %d components, %d groups, want 1 and %d", what, len(groups), len(groups[0]), len(want))
		}
		part := p.rhs[0].part
		for gi, g := range groups[0] {
			colors := want[gi]
			if g.lo != colors[0] || g.slot != colors[0] || len(g.pieces) != len(colors) || g.proc != p.rhs[0].procs[colors[0]] {
				t.Errorf("%s: group %d = colors %d..%d slot %d proc %d, want colors %v",
					what, gi, g.lo, g.lo+len(g.pieces)-1, g.slot, g.proc, colors)
			}
			var union index.IntervalSet
			for i, c := range colors {
				if !g.pieces[i].Equal(part.Piece(c)) {
					t.Errorf("%s: group %d member %d is not piece %d", what, gi, i, c)
				}
				union = union.Union(part.Piece(c))
			}
			if !g.subset.Equal(union) {
				t.Errorf("%s: group %d declares %v, want the members' union %v", what, gi, g.subset, union)
			}
		}
	}
	perPiece := make([][]int, len(unevenSizes))
	for c := range perPiece {
		perPiece[c] = []int{c}
	}
	check("grouped", p.launchGroups(RhsShape), unevenGroups)
	p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1, Names: []string{"no.such.task"}}))
	check("fault injector active", p.launchGroups(RhsShape), unevenGroups)
	p = unevenPlanner(false, opsPlain)
	p.grain = 0
	check("grain 0", p.launchGroups(RhsShape), perPiece)
	check("virtual", unevenPlanner(true, opsPlain).launchGroups(RhsShape), perPiece)

	// A partition wider than its space: the empty pieces join a group,
	// and a trailing run of nothing but empty pieces is still launched.
	n := int64(3 * launchGrain / 2)
	q := NewPlanner(Config{Machine: machine.Lassen(1)})
	si := q.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), int(2*n)))
	ri := q.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), int(2*n)))
	q.AddOperator(sparse.Laplacian1D(n), si, ri)
	q.Finalize()
	groups := q.launchGroups(SolShape)[0]
	if len(groups) != 2 || len(groups[0].pieces) != launchGrain || len(groups[1].pieces) != int(2*n)-launchGrain ||
		groups[1].subset.Size() != n-launchGrain {
		t.Fatalf("pieces > n: %d groups, first of %d pieces", len(groups), len(groups[0].pieces))
	}
}

// groupingProgram is every kind of launch the planner has, one operation
// per entry, so the graphs of two planners can be compared window by
// window.
func groupingProgram(p *Planner) []func() {
	w := p.AllocateWorkspace(SolShape)
	y := p.AllocateWorkspace(RhsShape)
	var d []*Scalar
	return []func(){
		func() { p.Copy(w, SOL) },
		func() { p.Matmul(y, w) },
		func() { d = p.DotBatch(DotPair{y, y}, DotPair{y, RHS}) },
		func() { p.Axpy(w, p.Div(d[0], d[1]), RHS) },
		func() { p.Scal(w, p.Constant(0.5)) },
		func() { p.MatmulT(w, y) },
		func() { p.Xpay(y, p.Neg(p.Dot(w, SOL)), RHS) },
		func() { p.Zero(w) },
		func() { p.PSolve(w, y) },
		func() {
			p.FusedSweep([]VecUpdate{
				{Kind: UpdAxpy, Dst: SOL, Alpha: d[1], Src: w},
				{Kind: UpdXpay, Dst: y, Alpha: d[0], Neg: true, Src: RHS},
			}, []DotPair{{y, y}})
		},
		func() { p.Matmul(y, SOL) },
	}
}

// The grouped real graph is the virtual (one task per piece) graph with
// each group contracted to one node and the scalar tasks contracted away
// (contractScalars): same names in the same order, each node standing for
// members of its own group only, and the same dependences — every
// per-piece edge lands on an edge or inside one node, and no edge appears
// that no per-piece edge accounts for. Every piece has its own processor,
// so a node's Proc names the piece (virtual) or the group's first piece
// (real).
func TestGroupedGraphIsVirtualGraphContracted(t *testing.T) {
	for _, ops := range []int{opsPlain, opsAliased, opsPartialFirst} {
		pr, pv := unevenPlanner(false, ops), unevenPlanner(true, ops)
		owners := map[int]map[int]bool{} // a group's first owner → its members' owners
		for _, comp := range []component{pr.sol[0], pr.rhs[0]} {
			for _, colors := range unevenGroups {
				set := map[int]bool{}
				for _, c := range colors {
					set[comp.procs[c]] = true
				}
				owners[comp.procs[colors[0]]] = set
			}
		}
		real, virt := groupingProgram(pr), groupingProgram(pv)
		ends := make([][2]int, len(real)) // each op's end in the real and virtual graphs
		for i := range real {
			real[i]()
			virt[i]()
			ends[i] = [2]int{pr.Runtime().Graph().Len(), pv.Runtime().Graph().Len()}
		}
		pr.Drain()
		pv.Drain()
		rg, rimg := contractScalars(pr.Runtime().Graph())
		vg, vimg := contractScalars(pv.Runtime().Graph())
		// end maps a raw graph length to the contracted one.
		end := func(img []int, n int) int {
			kept := 0
			for _, m := range img[:n] {
				if m >= 0 {
					kept++
				}
			}
			return kept
		}
		var image []int // virtual node → real node
		r := 0
		for i := range real {
			rEnd, vEnd := end(rimg, ends[i][0]), end(vimg, ends[i][1])
			v := len(image)
			for ; r < rEnd; r++ {
				node := rg.Nodes[r]
				group := owners[node.Proc]
				stoodFor := 0
				for v < vEnd && vg.Nodes[v].Name == node.Name && group[vg.Nodes[v].Proc] && stoodFor < len(group) {
					image = append(image, r)
					v++
					stoodFor++
				}
				if stoodFor == 0 {
					t.Fatalf("ops=%d op %d: real node %d (%s on %d) stands for no per-piece task; next is %s on %d",
						ops, i, r, node.Name, node.Proc, vg.Nodes[v].Name, vg.Nodes[v].Proc)
				}
			}
			if v != vEnd {
				t.Fatalf("ops=%d op %d: %d per-piece tasks left over", ops, i, vEnd-v)
			}
		}
		if rg.Len() >= vg.Len() {
			t.Fatalf("ops=%d: %d real nodes, %d virtual: nothing was grouped", ops, rg.Len(), vg.Len())
		}
		type edge struct{ from, to int }
		want := map[edge]bool{}
		for v, n := range vg.Nodes {
			for _, d := range n.Deps {
				if e := (edge{image[d], image[v]}); e.from != e.to {
					want[e] = true
				}
			}
		}
		got := map[edge]bool{}
		for r, n := range rg.Nodes {
			for _, d := range n.Deps {
				got[edge{int(d), r}] = true
			}
		}
		for e := range want {
			if !got[e] {
				t.Errorf("ops=%d: per-piece dependence %s(%d) → %s(%d) is lost", ops,
					rg.Nodes[e.from].Name, e.from, rg.Nodes[e.to].Name, e.to)
			}
		}
		for e := range got {
			if !want[e] {
				t.Errorf("ops=%d: edge %s(%d) → %s(%d) has no per-piece counterpart", ops,
					rg.Nodes[e.from].Name, e.from, rg.Nodes[e.to].Name, e.to)
			}
		}
	}
}

// Every operation, on pieces of unequal size with a short last run and
// with an aliased operator, leaves bit-identical data whether launched by
// the grain or by the piece, with SDC detection on and off — and a dot is
// its per-piece partials combined in piece order, not one running sum.
func TestGroupedOperationsBitwise(t *testing.T) {
	for _, sdc := range []bool{false, true} {
		for _, ops := range []int{opsPlain, opsAliased, opsPartialFirst} {
			pg, pp := unevenPlanner(false, ops), unevenPlanner(false, ops)
			pp.grain = 0
			var mons []*SDCMonitor
			if sdc {
				mons = []*SDCMonitor{pg.EnableSDCDetection(), pp.EnableSDCDetection()}
			}
			grouped, perPiece := groupingProgram(pg), groupingProgram(pp)
			for round := 0; round < 3; round++ {
				for i := range grouped {
					grouped[i]()
					perPiece[i]()
				}
			}
			dg, dp := pg.Dot(SOL, RHS).Value(), pp.Dot(SOL, RHS).Value()
			pg.Drain()
			pp.Drain()
			for id := range pg.vecs {
				g, w := pg.VecData(VecID(id), 0), pp.VecData(VecID(id), 0)
				for i := range g {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("sdc=%v ops=%v: vector %d [%d] = %v grouped, %v per piece", sdc, ops, id, i, g[i], w[i])
					}
				}
			}
			var byPiece float64
			x, b := pg.VecData(SOL, 0), pg.VecData(RHS, 0)
			for _, piece := range pg.sol[0].part.Pieces() {
				var partial float64
				piece.Each(func(i int64) { partial += x[i] * b[i] })
				byPiece += partial
			}
			if math.Float64bits(dg) != math.Float64bits(dp) || math.Float64bits(dg) != math.Float64bits(byPiece) {
				t.Errorf("sdc=%v ops=%v: dot = %v grouped, %v per piece, %v combined host-side in piece order",
					sdc, ops, dg, dp, byPiece)
			}
			for i, mon := range mons {
				pl := []*Planner{pg, pp}[i]
				probe(pl, SOL, RHS)
				if mon.Count() != 0 {
					t.Errorf("sdc=%v ops=%v planner %d: %d alarms on a clean run: %v", sdc, ops, i, mon.Count(), mon.Alarms())
				}
			}
			if gl, pl := pg.Session().Stats().Launched, pp.Session().Stats().Launched; gl >= pl {
				t.Errorf("grouped planner launched %d tasks, per-piece %d", gl, pl)
			}
		}
	}
}

// Only a virtual planner keeps one task per piece whatever the pieces
// hold; a real one launches the same groups whether or not its session
// has a fault injector.
func TestExemptPlannersLaunchPerPiece(t *testing.T) {
	pieces, groups := int64(len(unevenSizes)), int64(len(unevenGroups))
	sweeps := func(p *Planner) int64 {
		w := p.AllocateWorkspace(SolShape)
		p.Drain()
		before := p.Session().Stats().Launched
		p.Copy(w, SOL)
		p.Axpy(w, p.Constant(2), RHS)
		p.Scal(w, p.Constant(0.5))
		p.Zero(w)
		p.Matmul(w, SOL)
		p.Drain()
		return (p.Session().Stats().Launched - before) / 5
	}
	if got := sweeps(unevenPlanner(true, opsPlain)); got != pieces {
		t.Errorf("virtual planner: %d tasks per sweep, want %d", got, pieces)
	}
	p := unevenPlanner(false, opsPlain)
	if got := sweeps(p); got != groups {
		t.Errorf("real planner: %d tasks per sweep, want %d", got, groups)
	}
	p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, NaNRate: 1, Names: []string{"no.such.task"}}))
	if got := sweeps(p); got != groups {
		t.Errorf("fault injector active: %d tasks per sweep, want %d", got, groups)
	}
	p.Session().SetFaultInjector(nil)
	if got := sweeps(p); got != groups {
		t.Errorf("fault injector removed: %d tasks per sweep, want %d", got, groups)
	}
}

// A bit flip planted in a piece that launches inside a group still alarms
// at the next sweep, naming that piece's slot.
func TestSDCPlantedFlipInGroupedSweep(t *testing.T) {
	p := unevenPlanner(false, opsPlain)
	mon := p.EnableSDCDetection()
	w := p.AllocateWorkspace(SolShape)
	p.Copy(w, SOL)
	p.Drain()
	const slot = 3 // second member of group {2,3}
	i := p.sol[0].part.Piece(slot).Bounds().Lo + 7
	d := p.VecData(w, 0)
	d[i] = fault.FlipBit(d[i], 52)
	p.FusedSweep([]VecUpdate{{Kind: UpdAxpy, Dst: w, Alpha: p.Constant(0.5), Src: RHS}}, []DotPair{{w, w}})
	p.Drain()
	al := mon.Take()
	if len(al) != 1 || al[0].Vec != w || al[0].Slot != slot || al[0].Task != "fused.updatedot" {
		t.Fatalf("alarms = %v, want one for vector %d slot %d from fused.updatedot", al, w, slot)
	}
	var launched int64
	for _, n := range p.Runtime().Graph().Nodes {
		if n.Name == "fused.updatedot" {
			launched++
		}
	}
	if launched != int64(len(unevenGroups)) {
		t.Fatalf("the sweep launched %d tasks, want %d groups", launched, len(unevenGroups))
	}
}

// A bit flip planted in a piece of a carried dot's operand alarms from
// the product task of that piece's group, naming that slot: the product
// verifies the operands it reads for its riders as a sweep does.
func TestSDCPlantedFlipInGroupedProduct(t *testing.T) {
	p := unevenPlanner(false, opsPlain)
	mon := p.EnableSDCDetection()
	y := p.AllocateWorkspace(RhsShape)
	const slot = 3 // second member of group {2,3}
	i := p.rhs[0].part.Piece(slot).Bounds().Lo + 7
	d := p.VecData(RHS, 0)
	d[i] = fault.FlipBit(d[i], 52)
	p.Matmul(y, SOL, DotPair{RHS, y})[0].Value()
	p.Drain()
	al := mon.Take()
	if len(al) != 1 || al[0].Vec != RHS || al[0].Slot != slot || al[0].Task != "matmul" {
		t.Fatalf("alarms = %v, want one for vector %d slot %d from matmul", al, RHS, slot)
	}
	names := map[string]int{}
	for _, n := range p.Runtime().Graph().Nodes {
		names[n.Name]++
	}
	if names["matmul"] != len(unevenGroups) || names["matmul.dots"] != 0 {
		t.Fatalf("the product launched %v, want %d matmul tasks and no dot sweep", names, len(unevenGroups))
	}
}
