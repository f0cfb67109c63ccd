package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// sweepProgram is a random FusedSweep decoded from fuzz bytes, over
// sweepVecs workspaces of one real planner.
type sweepProgram struct {
	n        int64
	pieces   int
	perPiece bool // launch one task per piece instead of by the grain
	sdc      bool
	product  bool // the dots also ride a product after the sweep
	ups      []progUpdate
	dots     [][2]int
}

type progUpdate struct {
	kind      UpdateKind
	neg       bool
	dst, src  int
	sameAlpha bool // reuse the previous update's coefficient scalar
}

const sweepVecs = 4

// decodeSweep reads a program from b, reading zeros past its end:
//
//	b[0]  pieces {1, 7, 8, 13}[b&3], 0x4 one task per piece, 0x8 SDC on,
//	      0x10 the dots also ride a product
//	b[1]  n = 8·(2 + 3·b) points
//	b[2]  b%5 updates, (b/5)%4 dots (one dot when both are zero)
//	then per update: kind (b%5; 0x40 reuse the previous coefficient,
//	0x80 negate), dst, src; per dot: v, w — vectors mod sweepVecs.
func decodeSweep(b []byte) sweepProgram {
	at := 0
	next := func() int {
		if at >= len(b) {
			return 0
		}
		at++
		return int(b[at-1])
	}
	flags := next()
	p := sweepProgram{
		pieces:   []int{1, 7, 8, 13}[flags&3],
		perPiece: flags&4 != 0,
		sdc:      flags&8 != 0,
		product:  flags&0x10 != 0,
		n:        8 * (2 + 3*int64(next())),
	}
	counts := next()
	nu, nd := counts%5, counts/5%4
	if nu == 0 && nd == 0 {
		nd = 1
	}
	for range nu {
		k := next()
		p.ups = append(p.ups, progUpdate{
			kind: UpdateKind(k % 5), sameAlpha: k&0x40 != 0, neg: k&0x80 != 0,
			dst: next() % sweepVecs, src: next() % sweepVecs,
		})
	}
	for range nd {
		p.dots = append(p.dots, [2]int{next() % sweepVecs, next() % sweepVecs})
	}
	return p
}

// runSweepProgram runs prog as one FusedSweep on a real planner and
// checks it against straight-line host loops: each update over the whole
// vector in argument order, then each dot as the canonical leaf sum
// (hostDot) over the partition's pieces. With prog.product, a product
// y = A·x over two of the vectors then carries the same dots, checked
// against a host SpMV and the same sums. Vectors and dots must agree
// Float64bits for Float64bits.
func runSweepProgram(t *testing.T, seed int64, prog sweepProgram) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	part := index.EqualPartition(index.NewSpace("D", prog.n), prog.pieces)
	p := NewPlanner(Config{Machine: machine.Lassen(2)})
	si := p.AddSolVector(make([]float64, prog.n), part)
	ri := p.AddRHSVector(make([]float64, prog.n), index.EqualPartition(index.NewSpace("R", prog.n), prog.pieces))
	p.AddOperator(sparse.Laplacian2D(prog.n/8, 8), si, ri)
	p.Finalize()
	if prog.perPiece {
		p.grain = 0
	}
	var ids [sweepVecs]VecID
	var host [sweepVecs][]float64
	for v := range ids {
		ids[v] = p.AllocateWorkspace(SolShape)
		d := p.VecData(ids[v], 0)
		for i := range d {
			d[i] = r.NormFloat64()
		}
		host[v] = slices.Clone(d)
	}
	var mon *SDCMonitor
	if prog.sdc {
		mon = p.EnableSDCDetection()
	}

	ups := make([]VecUpdate, len(prog.ups))
	alphas := make([]float64, len(prog.ups))
	for i, u := range prog.ups {
		ups[i] = VecUpdate{Kind: u.kind, Dst: ids[u.dst], Src: ids[u.src], Neg: u.neg}
		if i > 0 && u.sameAlpha {
			ups[i].Alpha, alphas[i] = ups[i-1].Alpha, alphas[i-1]
		} else {
			alphas[i] = r.NormFloat64()
			ups[i].Alpha = p.Constant(alphas[i])
		}
	}
	pairs := make([]DotPair, len(prog.dots))
	for j, d := range prog.dots {
		pairs[j] = DotPair{V: ids[d[0]], W: ids[d[1]]}
	}
	got := p.FusedSweep(ups, pairs)
	p.Drain()

	for i, u := range prog.ups {
		av := alphas[i]
		if u.neg {
			av = -av
		}
		d, s := host[u.dst], host[u.src]
		for k := range d {
			switch u.kind {
			case UpdAxpy:
				d[k] += av * s[k]
			case UpdXpay:
				d[k] = s[k] + av*d[k]
			case UpdCopy:
				d[k] = s[k]
			case UpdScal:
				d[k] *= av
			case UpdZero:
				d[k] = 0
			}
		}
	}
	for v := range ids {
		dev := p.VecData(ids[v], 0)
		for k := range dev {
			if math.Float64bits(dev[k]) != math.Float64bits(host[v][k]) {
				t.Fatalf("%+v: vector %d [%d] = %v, host loops %v", prog, v, k, dev[k], host[v][k])
			}
		}
	}
	checkDots := func(what string, got []*Scalar) {
		t.Helper()
		for j, d := range prog.dots {
			want := hostDot(host[d[0]], host[d[1]], part)
			if g := got[j].Value(); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("%+v: %s dot %d (%d·%d) = %v, host loops %v", prog, what, j, d[0], d[1], g, want)
			}
		}
	}
	checkDots("sweep", got)
	if prog.product && len(pairs) > 0 {
		// y = A·x into vector 0 from vector 1 (x is y itself when the two
		// are one vector, which a product may not have).
		got := p.Matmul(ids[0], ids[1], pairs...)
		p.Drain()
		sparse.SpMV(p.ops[0].mat, host[0], host[1])
		if d := p.VecData(ids[0], 0); !slices.Equal(d, host[0]) {
			t.Fatalf("%+v: product differs from the host SpMV", prog)
		}
		checkDots("product", got)
	}
	if mon != nil && mon.Count() != 0 {
		t.Fatalf("%+v: %d SDC alarms on a clean sweep: %+v", prog, mon.Count(), mon.Alarms())
	}
}

// hostDot is the canonical dot written out plainly: a fragment starts at
// every multiple of DotLeaf and at every piece start; each is summed with
// its point i going to accumulator i mod 4, and the fragments' sums are
// added in pairs, level by level, an odd last one carried up.
func hostDot(v, w []float64, part index.Partition) float64 {
	starts := map[int64]bool{}
	for _, piece := range part.Pieces() {
		for _, iv := range piece.Intervals() {
			starts[iv.Lo] = true
		}
	}
	var level []float64
	var acc [4]float64
	at := 0
	for i := range v {
		if i > 0 && (i%DotLeaf == 0 || starts[int64(i)]) {
			level = append(level, (acc[0]+acc[1])+(acc[2]+acc[3]))
			acc, at = [4]float64{}, 0
		}
		acc[at%4] += v[i] * w[i]
		at++
	}
	level = append(level, (acc[0]+acc[1])+(acc[2]+acc[3]))
	for len(level) > 1 {
		var up []float64
		for i := 0; i+1 < len(level); i += 2 {
			up = append(up, level[i]+level[i+1])
		}
		if len(level)%2 == 1 {
			up = append(up, level[len(level)-1])
		}
		level = up
	}
	return level[0]
}

// FuzzFusedSweep draws random sweeps — all five update kinds, chained or
// not, and up to three dots whose operands the updates write before, by
// or after the pass that fuses them, or not at all — at pieces {1, 7, 8,
// 13}, launched by the grain or one task per piece, with and without SDC
// detection, optionally followed by a product carrying the same dots,
// and requires bitwise agreement with straight-line host loops
// (runSweepProgram). The seeds below run in every go test.
func FuzzFusedSweep(f *testing.F) {
	const (
		axpy, xpay, cp, scal, zero = 0, 1, 2, 3, 4
		same, neg                  = 0x40, 0x80
	)
	counts := func(ups, dots int) byte { return byte(ups + 5*dots) }
	for _, seed := range []struct {
		s    int64
		prog []byte
	}{
		// CG's sweep: x += αp, r −= αq, then r·r in r's pass.
		{1, []byte{2, 100, counts(2, 1), axpy, 0, 1, axpy | same | neg, 2, 3, 2, 2}},
		// A dot over two vectors written by two updates: it rides the
		// second (the last writer), not the first.
		{2, []byte{3, 60, counts(2, 1), axpy, 0, 2, xpay, 1, 3, 0, 1}},
		// An operand written twice; a second dot with the same last
		// writer, and one over vectors no update writes.
		{3, []byte{1, 255, counts(3, 3), axpy, 0, 1, scal, 0, 0, axpy, 2, 1, 0, 3, 3, 0, 1, 3}},
		// Overwriting kinds with dots in their pass, a copy onto itself.
		{4, []byte{0, 9, counts(4, 3), zero, 0, 0, cp, 1, 2, cp, 3, 3, xpay | neg, 2, 1, 0, 1, 1, 1, 3, 2}},
		// Dots only.
		{5, []byte{2, 30, counts(0, 3), 0, 1, 2, 2, 3, 0}},
		// One task per piece and SDC on: the guard sums fused and
		// separate partials alike.
		{6, []byte{2 | 4 | 8, 140, counts(3, 2), xpay, 1, 0, axpy, 0, 1, scal | neg, 3, 0, 0, 1, 3, 2}},
		{7, []byte{3 | 8, 255, counts(4, 3), axpy, 0, 1, axpy | same, 1, 0, cp, 2, 0, zero, 3, 0, 0, 1, 2, 2, 3, 0}},
		// Updates only.
		{8, []byte{1 | 4, 40, counts(3, 0), scal, 2, 0, axpy, 2, 2, cp, 0, 2}},
		// A product carrying dots over its output (y = vector 0), its
		// source and a vector it does not touch: 8 pieces of 128 points (cut
		// at leaf boundaries), then 13 unaligned pieces one task each; with
		// SDC on the product's tasks also verify the operands and write the
		// guards.
		{9, []byte{2 | 0x10, 42, counts(1, 3), axpy, 1, 2, 0, 0, 0, 1, 3, 2}},
		{10, []byte{3 | 4 | 0x10, 170, counts(0, 2), 1, 0, 2, 0}},
		{11, []byte{1 | 8 | 0x10, 200, counts(2, 2), xpay, 2, 1, axpy, 0, 3, 0, 1, 2, 2}},
	} {
		f.Add(seed.s, seed.prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		runSweepProgram(t, seed, decodeSweep(prog))
	})
}
