package core

import (
	"math"
	"slices"
	"testing"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// sdcTestPlanner builds a real single-operator planner over a 2D stencil
// with detection enabled and two workspaces.
func sdcTestPlanner(t *testing.T, n int64, pieces int) (p *Planner, mon *SDCMonitor, a, b VecID) {
	t.Helper()
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
	mon = p.EnableSDCDetection()
	a = p.AllocateWorkspace(SolShape)
	b = p.AllocateWorkspace(RhsShape)
	p.Copy(a, SOL)
	p.Copy(b, RHS)
	return p, mon, a, b
}

// probe verifies vectors the way every sweep verifies the vectors it
// reads, with a dot sweep of each vector with itself, drained. It
// returns the number of new alarms.
func probe(p *Planner, ids ...VecID) int {
	before := p.sdc.mon.Count()
	pairs := make([]DotPair, len(ids))
	for i, id := range ids {
		pairs[i] = DotPair{V: id, W: id}
	}
	p.DotBatch(pairs...)
	p.Drain()
	return int(p.sdc.mon.Count() - before)
}

// A clean run through every checksummed kernel must raise no alarms:
// recurrence maintenance plus verify-refresh keeps drift far under the
// tolerance over many iterations.
func TestSDCCleanRunNoFalseAlarms(t *testing.T) {
	const n, pieces = 512, 4
	p, mon, a, b := sdcTestPlanner(t, n, pieces)
	alpha := p.Constant(0.01)
	for it := 0; it < 100; it++ {
		p.Matmul(b, a)               // checksummed SpMV
		d := p.Dot(b, b)             // unfused dot verifies operands
		p.Scal(a, p.Constant(0.999)) // scal maintains + verifies
		p.Axpy(a, alpha, SOL)        // axpy maintains + verifies both
		p.Xpay(b, p.Neg(alpha), RHS) // xpay too
		p.FusedSweep(                // fused path with guard slot
			[]VecUpdate{{Kind: UpdAxpy, Dst: a, Alpha: alpha, Src: SOL}},
			[]DotPair{{V: a, W: a}, {V: a, W: SOL}})
		_ = d.Value()
	}
	probe(p, SOL, RHS, a, b)
	if c := mon.Count(); c != 0 {
		t.Fatalf("clean run raised %d alarms: %v", c, mon.Alarms())
	}
}

// A bit flip planted in a vector between operations must alarm at the
// next consumer, through every detection path: the sweep's pre-pass
// verify, fused or single-operation, of an update or a dot.
func TestSDCPlantedFlipDetected(t *testing.T) {
	const n, pieces = 256, 4
	flip := func(p *Planner, id VecID, i int) {
		p.Drain()
		d := p.VecData(id, 0)
		d[i] = fault.FlipBit(d[i], 52) // exponent bit: large perturbation
	}

	t.Run("a dot probe alarms once, and a second probe is clean", func(t *testing.T) {
		p, mon, a, _ := sdcTestPlanner(t, n, pieces)
		flip(p, a, 37)
		if got := probe(p, a); got != 1 {
			t.Fatalf("dot probe raised %d alarms, want 1: %v", got, mon.Alarms())
		}
		al := mon.Take()
		if al[0].Vec != a || al[0].Slot != 0 {
			t.Errorf("alarm = %+v, want vec %d slot 0", al[0], a)
		}
		// The probe refreshed the slot, so a second probe is clean.
		if got := probe(p, a); got != 0 {
			t.Errorf("second probe raised %d alarms, want 0", got)
		}
	})

	t.Run("fused.verify", func(t *testing.T) {
		p, mon, a, _ := sdcTestPlanner(t, n, pieces)
		flip(p, a, n/2+3) // lands in a later piece
		p.FusedUpdate(VecUpdate{Kind: UpdAxpy, Dst: a, Alpha: p.Constant(0.5), Src: SOL})
		p.Drain()
		if c := mon.Count(); c != 1 {
			t.Fatalf("fused sweep raised %d alarms, want 1: %v", c, mon.Alarms())
		}
	})

	t.Run("dot.partial", func(t *testing.T) {
		p, mon, _, b := sdcTestPlanner(t, n, pieces)
		flip(p, b, 5)
		_ = p.Dot(b, RHS).Value()
		if c := mon.Count(); c != 1 {
			t.Fatalf("dot raised %d alarms, want 1: %v", c, mon.Alarms())
		}
	})

	t.Run("axpy", func(t *testing.T) {
		p, mon, a, _ := sdcTestPlanner(t, n, pieces)
		flip(p, SOL, 11)
		p.Axpy(a, p.Constant(2), SOL)
		p.Drain()
		if c := mon.Count(); c != 1 {
			t.Fatalf("axpy raised %d alarms, want 1: %v", c, mon.Alarms())
		}
	})

	// A vector a fused sweep only reads as an update source is verified
	// like the ones it writes or reduces over.
	t.Run("fused pure source", func(t *testing.T) {
		p, mon, a, b := sdcTestPlanner(t, n, pieces)
		flip(p, SOL, 11)
		p.FusedUpdate(
			VecUpdate{Kind: UpdAxpy, Dst: a, Alpha: p.Constant(2), Src: SOL},
			VecUpdate{Kind: UpdAxpy, Dst: b, Alpha: p.Constant(2), Src: RHS})
		p.Drain()
		if c := mon.Count(); c != 1 {
			t.Fatalf("fused sweep raised %d alarms for a corrupted source, want 1: %v", c, mon.Alarms())
		}
		if al := mon.Take(); al[0].Vec != SOL || al[0].Task != "fused.update" {
			t.Errorf("alarm = %+v, want vec %d from fused.update", al[0], SOL)
		}
	})
}

// A sweep that overwrites a vector first (copy, then axpy and scal on the
// copy) verifies the vectors whose data it reads and not the one it
// overwrites: clean data raises nothing and leaves checksums the scan
// accepts, a flip in the copy's source alarms once, and a flip in the
// destination's stale data is overwritten without an alarm.
func TestSDCFusedCopySweep(t *testing.T) {
	const n, pieces = 256, 4
	for _, corrupt := range []string{"nothing", "source", "stale destination"} {
		t.Run(corrupt, func(t *testing.T) {
			p, mon, a, _ := sdcTestPlanner(t, n, pieces)
			w := p.AllocateWorkspace(SolShape)
			p.Axpy(w, p.Constant(1), RHS) // stale contents with a maintained checksum
			p.Drain()
			flip := map[string]VecID{"source": a, "stale destination": w}
			if v, ok := flip[corrupt]; ok {
				d := p.VecData(v, 0)
				d[n/2+3] = fault.FlipBit(d[n/2+3], 52) // piece 2
			}
			p.FusedUpdate(
				VecUpdate{Kind: UpdCopy, Dst: w, Src: a},
				VecUpdate{Kind: UpdAxpy, Dst: w, Alpha: p.Constant(0.5), Src: RHS},
				VecUpdate{Kind: UpdScal, Dst: w, Alpha: p.Constant(2)})
			p.Drain()
			al := mon.Take()
			if corrupt == "source" {
				if len(al) != 1 || al[0].Vec != a || al[0].Slot != 2 || al[0].Task != "fused.update" {
					t.Fatalf("alarms = %v, want one for vector %d slot 2 from fused.update", al, a)
				}
			} else if len(al) != 0 {
				t.Fatalf("%d alarms, want none: %v", len(al), al)
			}
			// The maintained checksums match the data the sweep left.
			if got := probe(p, w, RHS); got != 0 {
				t.Errorf("probe after the sweep raised %d alarms: %v", got, mon.Alarms())
			}
		})
	}
}

// Corrupting the reduction scratch between partial and combine trips the
// bitwise guard-slot comparison, for a batch, a single dot and the dots a
// product carries alike, once the dot is read: the check runs on the
// reduction's first fold. The injector targets a dot task's scratch span
// via the planner-installed corruption hook; the planner launches one
// task per piece here, so every piece's partials are corrupted. A
// product task's hook spans its output too, so the product row corrupts
// every carried partial of its first dot by hand instead.
func TestSDCDotBatchGuard(t *testing.T) {
	const n, pieces = 256, 4
	for _, tc := range []struct {
		partial, combine string
		launch           func(p *Planner) []*Scalar
	}{
		{"dot.batch", "dot.batchreduce", func(p *Planner) []*Scalar {
			return p.DotBatch(DotPair{V: SOL, W: RHS}, DotPair{V: RHS, W: RHS})
		}},
		{"dot.partial", "dot.reduce", func(p *Planner) []*Scalar { return []*Scalar{p.Dot(SOL, RHS)} }},
		{"matmul", "dot.batchreduce", func(p *Planner) []*Scalar {
			q := p.AllocateWorkspace(RhsShape)
			dots := p.Matmul(q, SOL, DotPair{V: SOL, W: q}, DotPair{V: q, W: q})
			p.Drain()
			for i, x := range dots[0].dot.partials {
				dots[0].dot.partials[i] = fault.FlipBit(x, 52)
			}
			return dots
		}},
	} {
		t.Run(tc.partial, func(t *testing.T) {
			sol := make([]float64, n)
			rhs := make([]float64, n)
			for i := range sol {
				sol[i] = float64(i%7) - 3
				rhs[i] = float64(i%5) + 1
			}
			p := NewPlanner(Config{Machine: machine.Lassen(2)})
			si := p.AddSolVector(sol, index.EqualPartition(index.NewSpace("D", n), pieces))
			ri := p.AddRHSVector(rhs, index.EqualPartition(index.NewSpace("R", n), pieces))
			p.AddOperator(sparse.Laplacian2D(n/8, 8), si, ri)
			p.Finalize()
			p.grain = 0
			mon := p.EnableSDCDetection()
			// Corrupt every partial task's output with certainty: the hook
			// targets the scratch span (data + guard), and the flip of a low
			// exponent bit shifts a partial enough to break the exact guard.
			if tc.partial != "matmul" {
				p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 3, BitFlipRate: 1, Bit: 52, Names: []string{tc.partial}}))
			}
			dots := tc.launch(p)
			p.Drain()
			if c := mon.Count(); c != 0 {
				t.Fatalf("%d guard alarms before the dot was read", c)
			}
			for _, d := range dots {
				d.Value()
			}
			if c := mon.Count(); c != pieces {
				t.Fatalf("reading the corrupted reduction raised %d guard alarms, want one per piece (%d), once", c, pieces)
			}
			for _, a := range mon.Take() {
				if a.Task != tc.combine {
					t.Errorf("alarm task = %q, want %s", a.Task, tc.combine)
				}
			}
		})
	}
}

// The checksummed SpMV's in-task ABFT cross-check: corrupting the
// matmul task's own output (post-run, the injector's model) must be
// caught by the NEXT reader, and the maintained checksum stays
// consistent with the column-checksum prediction on clean pieces.
func TestSDCChecksumSpMV(t *testing.T) {
	const n, pieces = 256, 4
	p, mon, a, b := sdcTestPlanner(t, n, pieces)
	p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 9, BitFlipRate: 1, Bit: 54, Names: []string{"matmul"}, Pieces: []int{2}}))
	p.Matmul(b, a) // the checksummed SpMV: detection is on
	p.Drain()
	if c := mon.Count(); c != 0 {
		// Post-run corruption is invisible to the producing task itself.
		t.Fatalf("matmul self-check alarmed on post-run corruption (%d alarms) — corruption model violated", c)
	}
	if got := probe(p, b); got != 1 {
		t.Fatalf("probe after corrupted SpMV raised %d alarms, want 1: %v", got, mon.Alarms())
	}
}

func TestNthPoint(t *testing.T) {
	s := index.Span(3, 5).Union(index.Span(10, 10)).Union(index.Span(20, 22))
	want := []int64{3, 4, 5, 10, 20, 21, 22}
	for k, w := range want {
		if got := nthPoint(s, int64(k)); got != w {
			t.Errorf("nthPoint(%d) = %d, want %d", k, got, w)
		}
	}
}

// Low-mantissa-bit flips are below the summation-ABFT detection floor by
// design: the relative perturbation is ~1e-16, far under any tolerance
// that survives honest rounding. Document the floor as a test.
func TestSDCDetectionFloor(t *testing.T) {
	const n, pieces = 256, 4
	p, mon, a, _ := sdcTestPlanner(t, n, pieces)
	p.Drain()
	d := p.VecData(a, 0)
	d[3] = fault.FlipBit(d[3], 0) // lowest mantissa bit
	if got := probe(p, a); got != 0 {
		t.Fatalf("low-bit flip unexpectedly alarmed (%v) — detection floor moved", mon.Alarms())
	}
	if math.IsNaN(d[3]) {
		t.Fatal("flip produced NaN")
	}
}

// A piece with no points has no product task, so no guard of a dot the
// product carries is written for it: the guard check skips empty pieces
// rather than read whatever the reused partials memory held there (here
// an earlier batch's partials).
func TestSDCCarriedDotsOverEmptyPieces(t *testing.T) {
	const n, pieces = 8, 16
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) + 1
	}
	p := NewPlanner(Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(slices.Clone(vals), index.EqualPartition(index.NewSpace("D", n), pieces))
	ri := p.AddRHSVector(slices.Clone(vals), index.EqualPartition(index.NewSpace("R", n), pieces))
	p.AddOperator(sparse.Laplacian1D(n), si, ri)
	p.Finalize()
	mon := p.EnableSDCDetection()
	y := p.AllocateWorkspace(RhsShape)
	for _, d := range p.DotBatch(DotPair{SOL, SOL}, DotPair{RHS, RHS}, DotPair{SOL, RHS}) {
		d.Value()
	}
	p.Matmul(y, SOL, DotPair{y, y})[0].Value()
	p.Drain()
	if names := p.Runtime().Graph().Nodes; slices.ContainsFunc(names, func(nd taskrt.Node) bool { return nd.Name == "matmul.dots" }) {
		t.Fatal("the product launched a dot sweep; this test is about carried dots")
	}
	if c := mon.Count(); c != 0 {
		t.Fatalf("%d alarms on a clean run: %v", c, mon.Alarms())
	}
}
