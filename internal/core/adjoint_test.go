package core_test

import (
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// colProbe is a CSR operator whose column relation counts its Preimage
// queries. Deriving the adjoint co-partitions asks one per domain piece;
// nothing else on a planner asks any.
type colProbe struct {
	*sparse.CSR
	col *preimageCounter
}

func (m colProbe) ColRelation() dpart.Relation { return m.col }

type preimageCounter struct {
	dpart.Relation
	preimages int
}

func (r *preimageCounter) Preimage(s index.IntervalSet) index.IntervalSet {
	r.preimages++
	return r.Relation.Preimage(s)
}

// Only a solver that runs Aᵀ pays for the adjoint co-partitions: every
// other solver leaves them underived and the column array's inverted
// index unbuilt, and BiCG derives them once however many products it
// runs.
func TestAdjointPartitionsOnlyOnDemand(t *testing.T) {
	const n, pieces = 16 * 16, 4
	for _, name := range solvers.Names {
		t.Run(name, func(t *testing.T) {
			a := sparse.Laplacian2D(16, 16)
			fn := a.ColRelation().(*dpart.FnRelation)
			probe := colProbe{CSR: a, col: &preimageCounter{Relation: fn}}
			p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
			b := make([]float64, n)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), pieces))
			ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", n), pieces))
			p.AddOperator(probe, si, ri)
			p.AddPreconditioner(precond.Jacobi(a), si, ri)
			p.Finalize()
			if p.AdjointDerived() || probe.col.preimages != 0 || core.InverseBuilt(fn) {
				t.Fatal("Finalize derived adjoint co-partitions")
			}
			solvers.RunIterations(solvers.New(name, p), 12)
			p.Drain()
			if err := p.Runtime().Err(); err != nil {
				t.Fatal(err)
			}

			adjoint, want := name == "bicg", 0
			if adjoint {
				want = pieces
			}
			if p.AdjointDerived() != adjoint || core.InverseBuilt(fn) != adjoint {
				t.Errorf("after 12 steps: adjoint partitions derived %v, column inverse built %v; want %v for both",
					p.AdjointDerived(), core.InverseBuilt(fn), adjoint)
			}
			if probe.col.preimages != want {
				t.Errorf("after 12 steps: %d column preimage queries, want %d", probe.col.preimages, want)
			}
		})
	}
}
