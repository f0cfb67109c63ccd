package machine

import (
	"testing"
	"testing/quick"
)

func TestLassenShape(t *testing.T) {
	m := Lassen(16)
	if m.NumProcs() != 64 {
		t.Fatalf("NumProcs = %d, want 64", m.NumProcs())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(3) != 0 || m.NodeOf(4) != 1 || m.NodeOf(63) != 15 {
		t.Fatal("NodeOf mapping wrong")
	}
}

func TestTransferTime(t *testing.T) {
	m := Lassen(2)
	if got := m.TransferTime(0, 0, 1<<20); got != 0 {
		t.Errorf("same-proc transfer = %g", got)
	}
	if got := m.TransferTime(0, 1, 0); got != 0 {
		t.Errorf("zero-byte transfer = %g", got)
	}
	intra := m.TransferTime(0, 1, 1<<20)
	inter := m.TransferTime(0, 4, 1<<20)
	if intra <= 0 || inter <= 0 {
		t.Fatal("transfers must take time")
	}
	if inter <= intra {
		t.Errorf("inter-node (%g) should be slower than intra-node (%g)", inter, intra)
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	m := Lassen(2)
	small := m.TransferTime(0, 4, 1<<10)
	big := m.TransferTime(0, 4, 1<<30)
	if big <= small {
		t.Fatal("more bytes must take longer")
	}
	// For large messages the bandwidth term dominates: doubling bytes
	// roughly doubles the time.
	t1 := m.TransferTime(0, 4, 1<<30)
	t2 := m.TransferTime(0, 4, 1<<31)
	if ratio := t2 / t1; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("large-message scaling ratio = %g, want ~2", ratio)
	}
}

func TestAllReduceGrowsWithNodes(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 8, 64, 256} {
		cur := Lassen(n).AllReduceTime()
		if cur < prev {
			t.Errorf("allreduce(%d nodes) = %g < previous %g", n, cur, prev)
		}
		prev = cur
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	m := Lassen(1)
	f := func(a, b uint32) bool {
		n1, n2 := int64(a%1e6)+1, int64(b%1e6)+1
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return m.SpMVCost(3*n1, n1) <= m.SpMVCost(3*n2, n2) &&
			m.AxpyCost(n1) <= m.AxpyCost(n2) &&
			m.DotCost(n1) <= m.DotCost(n2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelRelativeShape(t *testing.T) {
	m := Lassen(1)
	n := int64(1 << 20)
	// SpMV with ~5 nnz/row must cost more than one axpy on the same vector.
	if m.SpMVCost(5*n, n) <= m.AxpyCost(n) {
		t.Error("SpMV should dominate axpy")
	}
	// Dot is cheaper than axpy (2 streams vs 3).
	if m.DotCost(n) >= m.AxpyCost(n) {
		t.Error("dot should be cheaper than axpy")
	}
	// Costs are strictly positive.
	if m.CopyCost(1) <= 0 || m.ScalCost(1) <= 0 || m.Blas1Cost(1) <= 0 {
		t.Error("costs must be positive")
	}
}
