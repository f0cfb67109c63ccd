package core

import (
	"math"
	"slices"

	"kdrsolvers/internal/taskrt"
)

// A Scalar is a deferred scalar value, the planner's analogue of a Legion
// future, which a consumer receives by value. No region holds one: a
// scalar is the futures of the tasks its value is computed from.
//
// On a real planner no task produces a scalar. A dot product is computed
// from the tasks that write its leaf partials into memory the scalar
// holds — its sweep's piece tasks, or those of the product that carries
// it — and its first reader folds them, in a fixed pairwise order, into
// the value later readers share; a Constant from no task; and Div, Mul,
// Neg, Sqrt and ScalarExpr are expressions over their operands. A task
// that reads a scalar awaits the tasks it is computed from
// (taskrt.TaskSpec.Awaits) — so it depends on the partial tasks
// themselves — and evaluates it once in its body. Expressions never span
// steps (TraceBegin counts them): one whose operand is an earlier step's
// expression is computed by a host task, whose future its readers then
// await.
//
// On a virtual planner every dot's combine and every expression is such a
// task, so the recorded graph keeps the paper's launch shape and the
// simulator charges every reduction.
type Scalar struct {
	// leaves are the task sets the value is computed from: what a reading
	// task awaits and what Value waits on.
	leaves []*scalarLeaf
	// eval computes the value once every leaf's tasks completed. It is
	// nil for a real planner's dot, whose value is the memoized fold of
	// its leaf partials, dot.
	eval func() float64
	dot  dotSum
	// step is the planner step the scalar was made in; durable marks a dot
	// result or a constant, which any later step may read through.
	step    int
	durable bool
}

// scalarLeaf is one set of tasks a scalar is computed from — a dot sweep's
// partial tasks, which the sweep's scalars share, or the one task computing
// a value — each with the bytes its edge to a reader carries.
type scalarLeaf struct {
	awaits []taskrt.Await
}

// addLeaves appends the leaves of s that dst does not hold yet.
func addLeaves(dst []*scalarLeaf, s *Scalar) []*scalarLeaf {
	for _, l := range s.leaves {
		if !slices.Contains(dst, l) {
			dst = append(dst, l)
		}
	}
	return dst
}

// leafAwaits returns the futures a task reading the leaves awaits.
func leafAwaits(leaves []*scalarLeaf) []taskrt.Await {
	var awaits []taskrt.Await
	for _, l := range leaves {
		awaits = append(awaits, l.awaits...)
	}
	return awaits
}

// Value blocks until the tasks the scalar is computed from complete and
// returns it: NaN when one of them failed or was poisoned. On virtual
// planners the value is whatever the recorded (skipped) computation
// returned, normally zero; virtual callers should drive iteration counts,
// not convergence tests, from scalars.
func (s *Scalar) Value() float64 {
	for _, l := range s.leaves {
		for _, a := range l.awaits {
			if a.Future.Err() != nil {
				return math.NaN()
			}
		}
	}
	return s.value()
}

// value computes the scalar; every task it is computed from completed.
func (s *Scalar) value() float64 {
	if s.eval == nil {
		return s.dot.value()
	}
	return s.eval()
}

// taskScalar returns the scalar a task computes: its value is the task's
// result, and a reader awaits the task for that one value's 8 bytes.
func (p *Planner) taskScalar(fut *taskrt.Future) *Scalar {
	leaf := &scalarLeaf{awaits: []taskrt.Await{{Future: fut, Bytes: 8}}}
	return &Scalar{leaves: []*scalarLeaf{leaf}, eval: fut.Value, step: p.step}
}

// stale reports whether s is an expression of an earlier step, which a new
// expression must not reach through.
func (p *Planner) stale(s *Scalar) bool { return !s.durable && s.step != p.step }

// Constant returns a scalar holding a compile-time constant. No task is
// launched; readers see the value immediately.
func (p *Planner) Constant(v float64) *Scalar {
	return &Scalar{eval: func() float64 { return v }, durable: true}
}

// ScalarExpr returns fn over the values of args as a deferred scalar: an
// expression its readers evaluate on a real planner (see Scalar), a host
// task on a virtual one, or when an operand is an earlier step's expression.
// The task runs on processor 0 (scalar arithmetic is negligible; placement
// only affects simulated dataflow).
func (p *Planner) ScalarExpr(name string, fn func(vals []float64) float64, args ...*Scalar) *Scalar {
	p.mustBeFinalized()
	var leaves []*scalarLeaf
	for _, a := range args {
		leaves = addLeaves(leaves, a)
	}
	eval := func() float64 {
		vals := make([]float64, len(args))
		for i, a := range args {
			vals[i] = a.value()
		}
		return fn(vals)
	}
	if !p.virtual && !slices.ContainsFunc(args, p.stale) {
		return &Scalar{leaves: leaves, eval: eval, step: p.step}
	}
	// A scalar expression reads its arguments and writes nothing:
	// idempotent, hence retryable. An injected corruption lands in the
	// value it returns.
	spec := taskrt.TaskSpec{Name: name, Awaits: leafAwaits(leaves), Host: true, Retryable: true}
	if !p.virtual {
		spec.Run = eval
	}
	return p.taskScalar(p.sess.Launch(spec))
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
