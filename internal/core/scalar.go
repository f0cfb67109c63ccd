package core

import (
	"fmt"
	"math"
	"slices"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// A Scalar is a deferred scalar value, the planner's analogue of a Legion
// future, which a consumer receives by value.
//
// On a real planner no task produces a scalar. A dot product is a leaf
// over its sweep's scratch partials, a Constant a leaf with no storage, and
// Div, Mul, Neg, Sqrt and ScalarExpr an expression over their operands. A
// task that reads a scalar declares ReadOnly refs on its leaves — so it
// depends on the partial tasks themselves — and evaluates it once in its
// body. Expressions never span steps (TraceBegin counts them): one whose
// operand is an earlier step's expression is computed by a host task into a
// one-element region, which is then its readers' leaf.
//
// On a virtual planner every scalar is such a one-element region, written by
// a dot's combine task or by one host task per scalar operation, so the
// recorded graph keeps the paper's launch shape and the simulator charges
// every reduction.
type Scalar struct {
	// leaves is the storage the value is computed from, one entry per
	// region: what a reading task declares and what Value waits on.
	leaves []scalarLeaf
	// eval computes the value once every leaf is written.
	eval func() float64
	// step is the planner step the scalar was made in; durable marks a dot
	// result or a constant, which any later step may read through.
	step    int
	durable bool
}

// scalarLeaf is one region a scalar is computed from and the tasks that
// write it.
type scalarLeaf struct {
	ref  region.Ref // ReadOnly
	futs []*taskrt.Future
}

// addLeaves appends the leaves of s whose regions dst does not hold yet.
func addLeaves(dst []scalarLeaf, s *Scalar) []scalarLeaf {
	for _, l := range s.leaves {
		if !slices.ContainsFunc(dst, func(d scalarLeaf) bool { return d.ref.Region == l.ref.Region }) {
			dst = append(dst, l)
		}
	}
	return dst
}

// leafRefs returns the refs a task reading the leaves declares.
func leafRefs(leaves []scalarLeaf) []region.Ref {
	refs := make([]region.Ref, 0, len(leaves)+1)
	for _, l := range leaves {
		refs = append(refs, l.ref)
	}
	return refs
}

// Value blocks until the tasks writing the scalar's leaves complete and
// returns it: NaN when one of them failed or was poisoned. On virtual
// planners the value is whatever the recorded (skipped) computation
// returned, normally zero; virtual callers should drive iteration counts,
// not convergence tests, from scalars.
func (s *Scalar) Value() float64 {
	for _, l := range s.leaves {
		for _, f := range l.futs {
			if f.Err() != nil {
				return math.NaN()
			}
		}
	}
	return s.eval()
}

// newScalar allocates a scalar held in a one-element region, returning the
// ref its producer writes through and, on a real planner, its storage. The
// caller launches the producing task and hands its future to produced.
func (p *Planner) newScalar(name string) (s *Scalar, w region.Ref, data []float64) {
	p.scalarSeq++
	full := fmt.Sprintf("%s#%d", name, p.scalarSeq)
	s = &Scalar{step: p.step}
	var reg *region.Region
	if p.virtual {
		reg = region.NewVirtual(full, index.NewSpace("S", 1))
	} else {
		reg = region.New(full, index.NewSpace("S", 1))
		data = reg.Data()
		s.eval = func() float64 { return data[0] }
	}
	w = region.Ref{Region: reg.ID(), Subset: index.Span(0, 0), Priv: region.ReadOnly}
	s.leaves = []scalarLeaf{{ref: w}}
	w.Priv = region.WriteDiscard
	return s, w, data
}

// produced records the task writing a region-held scalar. A virtual region
// has no data: the value is the task's result.
func (s *Scalar) produced(fut *taskrt.Future) {
	s.leaves[0].futs = []*taskrt.Future{fut}
	if s.eval == nil {
		s.eval = fut.Value
	}
}

// stale reports whether s is an expression of an earlier step, which a new
// expression must not reach through.
func (p *Planner) stale(s *Scalar) bool { return !s.durable && s.step != p.step }

// Constant returns a scalar holding a compile-time constant. No task is
// launched; readers see the value immediately.
func (p *Planner) Constant(v float64) *Scalar {
	if !p.virtual {
		return &Scalar{eval: func() float64 { return v }, durable: true}
	}
	s, _, _ := p.newScalar("const")
	s.produced(taskrt.Resolved(v))
	return s
}

// ScalarExpr returns fn over the values of args as a deferred scalar: an
// expression its readers evaluate on a real planner (see Scalar), a host
// task on a virtual one, or when an operand is an earlier step's expression.
// The task runs on processor 0 (scalar arithmetic is negligible; placement
// only affects simulated dataflow).
func (p *Planner) ScalarExpr(name string, fn func(vals []float64) float64, args ...*Scalar) *Scalar {
	p.mustBeFinalized()
	var leaves []scalarLeaf
	for _, a := range args {
		leaves = addLeaves(leaves, a)
	}
	eval := func() float64 {
		vals := make([]float64, len(args))
		for i, a := range args {
			vals[i] = a.eval()
		}
		return fn(vals)
	}
	if !p.virtual && !slices.ContainsFunc(args, p.stale) {
		return &Scalar{leaves: leaves, eval: eval, step: p.step}
	}
	out, w, data := p.newScalar(name)
	// Scalar expressions read their arguments and overwrite their output:
	// idempotent, hence retryable.
	spec := taskrt.TaskSpec{Name: name, Refs: append(leafRefs(leaves), w), Host: true, Retryable: true}
	if data != nil {
		spec.Run = func() float64 {
			v := eval()
			data[0] = v
			return v
		}
		if p.faultHooks() {
			spec.Corrupt = corruptHook(corruptTarget{data, index.Span(0, 0)})
		}
	}
	out.produced(p.sess.Launch(spec))
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
