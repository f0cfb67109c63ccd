package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/index"
)

// stencilCases pairs each matrix-free operator with its assembled CSR
// reference.
func stencilCases() []struct {
	op  *StencilOperator
	ref *CSR
} {
	return []struct {
		op  *StencilOperator
		ref *CSR
	}{
		{NewStencilOperator(Stencil1D3, index.NewGrid(17)), Laplacian1D(17)},
		{NewStencilOperator(Stencil2D5, index.NewGrid(5, 7)), Laplacian2D(5, 7)},
		{NewStencilOperator(Stencil3D7, index.NewGrid(3, 4, 2)), Stencil(Stencil3D7, index.NewGrid(3, 4, 2))},
		{NewStencilOperator(Stencil3D27, index.NewGrid(3, 2, 3)), Stencil(Stencil3D27, index.NewGrid(3, 2, 3))},
	}
}

func TestStencilOperatorMatchesAssembled(t *testing.T) {
	for _, c := range stencilCases() {
		if !densesEqual(ToDense(c.op), ToDense(c.ref), 1e-13) {
			t.Errorf("%s does not match assembled CSR", c.op.Format())
		}
	}
}

func TestStencilOperatorAdjoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range stencilCases() {
		n := c.op.n
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		want := make([]float64, n)
		MultiplyAddT(c.ref, want, x)
		got := make([]float64, n)
		MultiplyAddT(c.op, got, x)
		if !densesEqual(got, want, 1e-12) {
			t.Errorf("%s adjoint mismatch", c.op.Format())
		}
	}
}

func TestStencilOperatorPartitioned(t *testing.T) {
	// Range kernels over any split of the kernel space must sum to the
	// assembled operator's products, forward and adjoint.
	r := rand.New(rand.NewSource(5))
	for _, c := range stencilCases() {
		n := c.op.n
		x, w := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], w[i] = r.NormFloat64(), r.NormFloat64()
		}
		wantY, wantZ := refProducts(ToDense(c.ref), n, n, x, w)
		for round := 0; round < 4; round++ {
			checkRangeKernels(t, c.op, r, x, w, wantY, wantZ)
		}
	}
}

// TestDiagLayoutPaddingRuns feeds the DIA-layout kernels (DIA, Band,
// StencilOperator) kernel sets made only of padding slots — slots whose
// row falls outside the matrix, which the row relation maps to nothing —
// and of every single in-matrix slot on its own: padding must contribute
// nothing, and the single-point runs must sum to the product.
func TestDiagLayoutPaddingRuns(t *testing.T) {
	lap := Laplacian2D(5, 7)
	ms := []Matrix{
		DIAFromCSR(lap),
		ConstBand(9, 9, []int64{-3, 0, 1, 8}, []float64{1, 2, 3, 4}),
		NewStencilOperator(Stencil2D5, index.NewGrid(5, 7)),
	}
	for _, m := range ms {
		rows, cols := Dims(m)
		x, w := make([]float64, cols), make([]float64, rows)
		for i := range x {
			x[i] = float64(i%5) + 1
		}
		for i := range w {
			w[i] = float64(i%3) - 2
		}
		wantY, wantZ := make([]float64, rows), make([]float64, cols)
		MultiplyAdd(m, wantY, x)
		MultiplyAddT(m, wantZ, w)
		var padding index.IntervalSet
		y, z := make([]float64, rows), make([]float64, cols)
		for k := int64(0); k < m.Kernel().Size(); k++ {
			pt := index.Span(k, k)
			if m.RowRelation().Image(pt).Empty() {
				padding.AddInterval(index.Interval{Lo: k, Hi: k})
				continue
			}
			m.MultiplyAddPart(y, x, pt)
			m.MultiplyAddTPart(z, w, pt)
		}
		if padding.Empty() {
			t.Fatalf("%s: no padding slots, the case tests nothing", m.Format())
		}
		if !densesEqual(y, wantY, 1e-12) || !densesEqual(z, wantZ, 1e-12) {
			t.Errorf("%s: single-point runs do not sum to the product", m.Format())
		}
		m.MultiplyAddPart(y, x, padding)
		m.MultiplyAddTPart(z, w, padding)
		if !densesEqual(y, wantY, 0) || !densesEqual(z, wantZ, 0) {
			t.Errorf("%s: an all-padding kernel set changed the output", m.Format())
		}
	}
}

func TestStencilOperatorRelationsSound(t *testing.T) {
	// The implicit relations must cover the true dependences: masking x
	// outside the derived input partition must not change the piece.
	for _, c := range stencilCases() {
		n := c.op.n
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%13) + 1
		}
		want := make([]float64, n)
		MultiplyAdd(c.op, want, x)
		rp := index.EqualPartition(c.op.Range(), 3)
		for p := 0; p < 3; p++ {
			kset := c.op.RowRelation().Preimage(rp.Piece(p))
			dset := c.op.ColRelation().Image(kset)
			masked := make([]float64, n)
			dset.Each(func(j int64) {
				if j >= 0 && j < n {
					masked[j] = x[j]
				}
			})
			got := make([]float64, n)
			c.op.MultiplyAddPart(got, masked, kset)
			ok := true
			rp.Piece(p).Each(func(i int64) {
				if got[i] != want[i] {
					ok = false
				}
			})
			if !ok {
				t.Errorf("%s co-partitioning unsound for piece %d", c.op.Format(), p)
			}
		}
	}
}

func TestStencilOperatorMetadata(t *testing.T) {
	op := NewStencilOperator(Stencil2D5, index.NewGrid(8, 8))
	if op.NNZ() != 5*64 {
		t.Errorf("NNZ = %d", op.NNZ())
	}
	if op.Domain().Size() != 64 || op.Range().Size() != 64 || op.Kernel().Size() != 320 {
		t.Error("space sizes wrong")
	}
	if op.Format() != "Stencil(5pt-2D)" {
		t.Errorf("Format = %q", op.Format())
	}
	if op.Grid().Size() != 64 {
		t.Error("Grid wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("rank mismatch should panic")
		}
	}()
	NewStencilOperator(Stencil1D3, index.NewGrid(4, 4))
}

func TestStencilOperatorScale(t *testing.T) {
	// The whole point of the matrix-free form: metadata and relations at
	// huge scale without allocating entries.
	op := NewStencilOperator(Stencil2D5, index.NewGrid(1<<16, 1<<16))
	if op.NNZ() != 5<<32 {
		t.Fatalf("NNZ = %d", op.NNZ())
	}
	rp := index.EqualPartition(op.Range(), 64)
	kset := op.RowRelation().Preimage(rp.Piece(7))
	if kset.Empty() {
		t.Fatal("projection at scale failed")
	}
	dset := op.ColRelation().Image(kset)
	// The halo of a row block is the block plus one grid row on each side.
	want := rp.Piece(7).Size() + 2<<16
	if got := dset.Size(); got != want {
		t.Fatalf("halo size = %d, want %d", got, want)
	}
}

// TestStencilKernelMatchesDIA holds the run-split kernel to the stored DIA
// of the same stencil, Float64bits for Float64bits, forward and adjoint:
// over the whole kernel, and over random sets of one to four intervals
// that cut diagonals mid-way. The DIA runs the in-grid slots of the
// stencil's set, each moved to the stored diagonal of its offset, so a
// slot the stencil pads contributes to neither, and an output its set
// does not reach keeps its −0 canary. Both kernels give an output its
// terms in ascending column order forward and ascending row order
// adjoint, which on in-grid slots is the stencil table's order forward
// and its reverse adjoint. Grids of
// extent 1 store fewer diagonals than the stencil has, 2×2×2 merges
// 27-point offsets that coincide, and 3×1500 has lines that span several
// output blocks of the walk.
func TestStencilKernelMatchesDIA(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := []struct {
		kind StencilKind
		dims []int64
	}{
		{Stencil1D3, []int64{50}},
		{Stencil1D3, []int64{2500}},
		{Stencil2D5, []int64{1, 50}},
		{Stencil2D5, []int64{50, 1}},
		{Stencil2D5, []int64{33, 40}},
		{Stencil2D5, []int64{1500, 3}},
		{Stencil2D5, []int64{3, 1500}},
		{Stencil3D7, []int64{2, 2, 2}},
		{Stencil3D7, []int64{5, 6, 7}},
		{Stencil3D27, []int64{2, 2, 2}},
		{Stencil3D27, []int64{5, 6, 7}},
	}
	for _, c := range cases {
		g := index.NewGrid(c.dims...)
		op, dia := NewStencilOperator(c.kind, g), DIAFromCSR(Stencil(c.kind, g))
		label := fmt.Sprintf("%s on %v", c.kind, c.dims)
		k := op.Kernel().Size()
		checkStencilAgainstDIA(t, label+" whole", op, dia, r, index.Span(0, k-1), index.Span(0, dia.Kernel().Size()-1))
		for range 200 {
			var kset index.IntervalSet
			for range 1 + r.Intn(4) {
				lo := r.Int63n(k)
				kset.AddInterval(index.Interval{Lo: lo, Hi: min(lo+r.Int63n([]int64{4, 2 * g.Dims[len(g.Dims)-1], k}[r.Intn(3)]), k-1)})
			}
			checkStencilAgainstDIA(t, label, op, dia, r, kset, diaSlots(op, dia, kset))
		}
	}
}

// diaSlots maps the in-grid slots of a stencil kernel set to the slots of
// the stored DIA that hold the same entries.
func diaSlots(op *StencilOperator, dia *DIA, kset index.IntervalSet) index.IntervalSet {
	st, dims, n := &stencils[op.kind], op.grid.Dims, op.n
	var pts []int64
	kset.Each(func(k int64) {
		b, j := k/n, k%n
		var cd [3]int64 // the grid coordinates of column j
		for d, rem := len(dims)-1, j; d >= 0; d-- {
			cd[d] = rem % dims[d]
			rem /= dims[d]
		}
		if inGrid(&cd, &st.offs[b], dims, -1) {
			pts = append(pts, int64(slices.Index(dia.offsets, op.offsets[b]))*n+j)
		}
	})
	return index.FromPoints(pts)
}

// checkStencilAgainstDIA requires the stencil's kernels over kset to equal
// the DIA's over dset, Float64bits for Float64bits, from outputs that
// start with −0 canaries.
func checkStencilAgainstDIA(t *testing.T, label string, op *StencilOperator, dia *DIA, r *rand.Rand, kset, dset index.IntervalSet) {
	t.Helper()
	x, w := randVec(r, op.n), randVec(r, op.n)
	y, z := outVec(r, op.n), outVec(r, op.n)
	wantY, wantZ := slices.Clone(y), slices.Clone(z)
	op.MultiplyAddPart(y, x, kset)
	op.MultiplyAddTPart(z, w, kset)
	dia.MultiplyAddPart(wantY, x, dset)
	dia.MultiplyAddTPart(wantZ, w, dset)
	for _, c := range []struct {
		dir       string
		got, want []float64
	}{{"A·x", y, wantY}, {"Aᵀ·x", z, wantZ}} {
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s %s over %v: [%d] = %v, DIA %v", label, c.dir, kset.Intervals(), i, c.got[i], c.want[i])
			}
		}
	}
}
