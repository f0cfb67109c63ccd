package precond

import (
	"testing"

	"kdrsolvers/internal/sparse"
)

func TestJacobiDiagonal(t *testing.T) {
	a := sparse.Laplacian1D(6) // diagonal all 2
	p := Jacobi(a)
	d := sparse.ToDense(p)
	for i := int64(0); i < 6; i++ {
		for j := int64(0); j < 6; j++ {
			want := 0.0
			if i == j {
				want = 0.5
			}
			if d[i*6+j] != want {
				t.Fatalf("P[%d,%d] = %g, want %g", i, j, d[i*6+j], want)
			}
		}
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	a := sparse.CSRFromCoords(2, 2, []sparse.Coord{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 4}})
	p := Jacobi(a)
	d := sparse.ToDense(p)
	if d[0] != 0 || d[3] != 0.25 {
		t.Fatalf("zero-diagonal handling wrong: %v", d)
	}
}

func TestMatrixAlgebra(t *testing.T) {
	a := sparse.Laplacian1D(4)
	b := sparse.CSRFromCoords(4, 4, []sparse.Coord{
		{Row: 0, Col: 3, Val: 2}, {Row: 1, Col: 1, Val: -1}, {Row: 3, Col: 0, Val: 5},
	})
	// A + B is the entrywise sum; entries at a shared position merge.
	sum := sparse.Add(a, b)
	da, db, ds := sparse.ToDense(a), sparse.ToDense(b), sparse.ToDense(sum)
	for i := range ds {
		if ds[i] != da[i]+db[i] {
			t.Fatalf("(A+B)[%d] = %g, want %g", i, ds[i], da[i]+db[i])
		}
	}
	if want := a.NNZ() + 2; sum.NNZ() != want {
		t.Fatalf("A+B stores %d entries, want %d ((1,1) is shared)", sum.NNZ(), want)
	}
	// The Jacobi preconditioner of a sum inverts the summed diagonal.
	if d := sparse.ToDense(Jacobi(sparse.Add(a, a))); d[0] != 0.25 {
		t.Fatalf("Jacobi(A+A)[0,0] = %g, want 0.25", d[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	sparse.Add(a, sparse.Laplacian1D(5))
}
