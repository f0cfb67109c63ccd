package core

import (
	"fmt"
	"math"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// A Scalar is a deferred scalar value, the planner's analogue of a Legion
// future. It is backed by a one-element region so that scalar dataflow —
// a dot product feeding an axpy coefficient, say — appears in the task
// graph and is ordered and costed like any other dependence.
type Scalar struct {
	p   *Planner
	reg *region.Region
	fut *taskrt.Future
	// proc is the processor that produced (or holds) the value.
	proc int
	// read, when set, extracts this scalar's value from its backing
	// region after fut resolves. Scalars of a batched reduction share
	// one producing task (and future) but hold distinct values.
	read func() float64
}

// scalarRef is the region reference a task uses to touch a scalar.
func (s *Scalar) ref(priv region.Privilege) region.Ref {
	return region.Ref{Region: s.reg.ID(), Field: "s", Subset: index.Span(0, 0), Priv: priv}
}

// Value blocks until the scalar is computed and returns it. On virtual
// planners the value is whatever the recorded (skipped) computation
// returned, normally zero; virtual callers should drive iteration counts,
// not convergence tests, from scalars.
func (s *Scalar) Value() float64 {
	v, err := s.fut.Result()
	if err == nil && s.read != nil {
		return s.read()
	}
	return v // NaN when the producing task failed or was poisoned
}

// newScalar allocates the backing region for a scalar produced on proc.
func (p *Planner) newScalar(name string, proc int) *Scalar {
	p.scalarSeq++
	full := fmt.Sprintf("%s#%d", name, p.scalarSeq)
	var reg *region.Region
	if p.virtual {
		reg = region.NewVirtual(full, index.NewSpace("S", 1))
	} else {
		reg = region.New(full, index.NewSpace("S", 1), "s")
	}
	return &Scalar{p: p, reg: reg, proc: proc}
}

// Constant returns a scalar holding a compile-time constant. No task is
// launched; readers see the value immediately.
func (p *Planner) Constant(v float64) *Scalar {
	s := p.newScalar("const", 0)
	if !p.virtual {
		s.reg.Field("s")[0] = v
	}
	s.fut = taskrt.Resolved(v)
	return s
}

// ScalarExpr launches a task computing fn over the values of args,
// returning the result as a new scalar. The task runs on the processor of
// the first argument (scalar arithmetic is negligible; placement only
// affects simulated dataflow).
func (p *Planner) ScalarExpr(name string, fn func(vals []float64) float64, args ...*Scalar) *Scalar {
	p.mustBeFinalized()
	proc := 0
	if len(args) > 0 {
		proc = args[0].proc
	}
	out := p.newScalar(name, proc)
	refs := make([]region.Ref, 0, len(args)+1)
	for _, a := range args {
		refs = append(refs, a.ref(region.ReadOnly))
	}
	refs = append(refs, out.ref(region.WriteDiscard))

	var run func() float64
	if !p.virtual {
		srcs := make([][]float64, len(args))
		for i, a := range args {
			srcs[i] = a.reg.Field("s")
		}
		dst := out.reg.Field("s")
		run = func() float64 {
			vals := make([]float64, len(srcs))
			for i, s := range srcs {
				vals[i] = s[0]
			}
			v := fn(vals)
			dst[0] = v
			return v
		}
	}
	// Scalar expressions read their arguments and overwrite their output:
	// idempotent, hence retryable.
	out.fut = p.sess.Launch(taskrt.TaskSpec{
		Name: name, Proc: proc, Cost: 0, Refs: refs, Run: run, Host: true,
		Retryable: true,
	})
	return out
}

// Div returns a/b as a deferred scalar.
func (p *Planner) Div(a, b *Scalar) *Scalar {
	return p.ScalarExpr("div", func(v []float64) float64 { return v[0] / v[1] }, a, b)
}

// Mul returns a*b as a deferred scalar.
func (p *Planner) Mul(a, b *Scalar) *Scalar {
	return p.ScalarExpr("mul", func(v []float64) float64 { return v[0] * v[1] }, a, b)
}

// Neg returns -a as a deferred scalar.
func (p *Planner) Neg(a *Scalar) *Scalar {
	return p.ScalarExpr("neg", func(v []float64) float64 { return -v[0] }, a)
}

// Sqrt returns sqrt(a) as a deferred scalar.
func (p *Planner) Sqrt(a *Scalar) *Scalar {
	return p.ScalarExpr("sqrt", func(v []float64) float64 { return math.Sqrt(v[0]) }, a)
}
