// Package solvers implements Krylov subspace methods against the
// KDRSolvers planner interface (Figure 6 of the paper): CG, BiCGStab,
// GMRES(m), MINRES, BiCG, and preconditioned CG.
//
// Solvers never touch storage formats, component structure, partitions, or
// data placement — they see only the planner's vector and scalar
// operations, which is the separation Section 5 describes. All solvers
// share the Step/ConvergenceMeasure interface of the paper's Figure 7, so
// they are drop-in replacements for one another.
//
// Scalar coefficients are deferred (core.Scalar): a solver's Step launches
// its whole iteration without blocking, and the runtime pipelines
// independent work across operations and iterations. Only the driver's
// convergence check — or a solver that genuinely needs host-side scalar
// control flow, like GMRES's restart solve — synchronizes.
//
// GMRES, pipelined GMRES and GCRO-DR are one Arnoldi process with
// different orthogonalization; the restart cycle they share (trace
// scope, happy-breakdown test, Givens estimate, Hessenberg solve,
// x += V y, residual replacement) is the embedded arnoldi type, and each
// method keeps only its step's column and its restart prologue.
//
// No solver decides its own convergence: the driver (SolveResilient)
// recomputes ‖b − Ax‖ at every claim of its measure, and that number
// alone decides Result.Converged.
package solvers

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"kdrsolvers/internal/core"
)

// Solver is one Krylov subspace method bound to a planner. Step launches
// one iteration's tasks; ConvergenceMeasure returns the squared residual
// norm ‖b − Ax‖² as a deferred scalar.
type Solver interface {
	// Step launches one iteration.
	Step()
	// ConvergenceMeasure returns the current squared residual norm.
	ConvergenceMeasure() *core.Scalar
	// Name returns the method's conventional name.
	Name() string
}

// table is the one statement of which solvers exist, in the order Names
// lists them: "gmres" is GMRES(10) as in the paper's benchmarks,
// "sstep-cg" has s = 4, "pgmres" is pipelined GMRES(10) and "gcrodr" is
// GCRO-DR(10, 4) with recycling disabled (no cache).
var table = []struct {
	name string
	new  func(p *core.Planner) Solver
}{
	{"cg", func(p *core.Planner) Solver { return NewCG(p) }},
	{"pipecg", func(p *core.Planner) Solver { return NewPipeCG(p) }},
	{"bicgstab", func(p *core.Planner) Solver { return NewBiCGStab(p) }},
	{"gmres", func(p *core.Planner) Solver { return NewGMRES(p, 10) }},
	{"minres", func(p *core.Planner) Solver { return NewMINRES(p) }},
	{"bicg", func(p *core.Planner) Solver { return NewBiCG(p) }},
	{"pcg", func(p *core.Planner) Solver { return NewPCG(p) }},
	{"cgs", func(p *core.Planner) Solver { return NewCGS(p) }},
	{"sstep-cg", func(p *core.Planner) Solver { return NewSStepCG(p, 4) }},
	{"pgmres", func(p *core.Planner) Solver { return NewPGMRES(p, 10) }},
	{"gcrodr", func(p *core.Planner) Solver { return NewGCRODR(p, 10, 4, nil) }},
}

// New constructs the named solver on a planner. The recognized names
// are Names; it panics on any other.
func New(name string, p *core.Planner) Solver {
	for _, e := range table {
		if e.name == name {
			return e.new(p)
		}
	}
	panic(fmt.Sprintf("solvers: unknown solver %q", name))
}

// Names lists the recognized solver names.
var Names = func() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}()

// RunIterations executes exactly n steps without convergence checks —
// the paper's benchmark mode (tolerances were set to extreme values to
// prevent early exit).
func RunIterations(s Solver, n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Result reports a converged (or abandoned) solve.
type Result struct {
	// Iterations is the number of steps executed.
	Iterations int
	// Residual is the final residual 2-norm as the solver's own
	// convergence measure reports it (a recurrence for most methods).
	Residual float64
	// TrueResidual is ‖b − A·x‖ recomputed by the driver from A, x and b
	// at the end of the solve, for every solver.
	TrueResidual float64
	// Converged reports whether TrueResidual is within the tolerance.
	Converged bool
	// Replacements counts residual-replacement events: rebasings of the
	// recurrence residual onto the recomputed true residual b − A·x,
	// performed after a rejected convergence claim, periodically, or on a
	// corruption alarm.
	Replacements int
	// Breakdown is non-nil when the method hit a Krylov breakdown (a
	// vanished recurrence denominator) and stopped cleanly at the last
	// iterate instead of NaN-poisoning it. It wraps ErrBreakdown.
	Breakdown error
}

// ErrBreakdown is the sentinel wrapped by every breakdown signal: a
// recurrence denominator (ρ, ω, p̃ᵀAp, ...) vanished, so the method
// cannot continue from this Krylov space. The iterate is left at its
// last finite value; callers typically restart or switch methods.
var ErrBreakdown = errors.New("solvers: Krylov breakdown")

// BreakdownChecker is implemented by solvers that detect recurrence
// breakdown (BiCG, BiCGStab, CGS). Breakdown returns nil until a guarded
// denominator vanishes; the driver polls it every iteration and stops
// (or, with recovery, rolls back) cleanly.
type BreakdownChecker interface {
	Breakdown() error
}

// settler is implemented by solvers holding deferred state the iterate
// does not reflect yet: the Arnoldi cycle's pending x += V y, s-step CG's
// open two-block trace scope. The driver calls settle before it
// recomputes ‖b − Ax‖, so the residual it checks is that of the x the
// solve returns.
type settler interface {
	settle()
}

// ReplacementReport describes one residual-replacement decision.
type ReplacementReport struct {
	// TrueResidual is ‖b − A·x‖ recomputed from the current iterate.
	TrueResidual float64
	// Drift is the distance between the recurrence residual and the true
	// residual (‖r_rec − r_true‖ for methods carrying an explicit residual
	// vector; |est − true| for estimate-based methods).
	Drift float64
	// Replaced reports whether the recurrence was rebased onto the true
	// residual.
	Replaced bool
}

// ResidualReplacer is implemented by solvers supporting residual
// replacement (van der Vorst & Ye): ReplaceResidual recomputes the true
// residual b − A·x, measures how far the recurrence residual has
// drifted from it, and — when the relative drift exceeds driftTol, or
// always when driftTol <= 0 (a forced replacement, the corruption-
// recovery path) — rebases the recurrence on the true residual so the
// method converges to the actual solution rather than to its drifted
// recurrence's fiction. Pipelined and s-step methods rebuild their
// auxiliary recurrences (w = Ar, s = Ap, basis blocks) from the rebased
// state; estimate-based methods (the Arnoldi family, s-step CG) finish
// any open cycle first and always replace. The driver also rebases a
// replacer whose convergence claim ‖b − Ax‖ did not back.
type ResidualReplacer interface {
	ReplaceResidual(driftTol float64) ReplacementReport
}

// breakdownFlag records the first breakdown observed by guarded scalar
// tasks. Guards run inside runtime tasks, so the flag is locked.
type breakdownFlag struct {
	mu  sync.Mutex
	err error
}

// report records the first breakdown cause; later reports are dropped.
func (f *breakdownFlag) report(method, what string) {
	f.mu.Lock()
	if f.err == nil {
		f.err = fmt.Errorf("%w: %s: %s denominator vanished", ErrBreakdown, method, what)
	}
	f.mu.Unlock()
}

// get returns the recorded breakdown, or nil.
func (f *breakdownFlag) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// guardedDiv returns a/b as a deferred scalar, guarding the BiCG-family
// breakdown divisions: when the quotient is not finite (b ≈ 0, or a
// poisoned NaN operand), the task records a breakdown on f and yields 0,
// so the iteration's updates degenerate to no-ops instead of NaN-
// poisoning every downstream vector. Every guard is upstream of the
// residual dataflow within at most one iteration, so the driver's per-step
// synchronization observes the flag on the step it fires or the next one.
func guardedDiv(p *core.Planner, f *breakdownFlag, method, what string, a, b *core.Scalar) *core.Scalar {
	return p.ScalarExpr("div.guard", func(v []float64) float64 {
		q := v[0] / v[1]
		if math.IsNaN(q) || math.IsInf(q, 0) {
			f.report(method, what)
			return 0
		}
		return q
	}, a, b)
}

// Solve steps s, built on planner p, until its residual norm drops below
// tol or maxIter steps have run, synchronizing on the convergence measure
// every iteration like the paper's driver loop. It is SolveResilient with
// nothing but the stopping rule configured: a plain solve whose claims
// are checked against ‖b − Ax‖ and that stops on the first NaN or
// breakdown.
func Solve(p *core.Planner, s Solver, tol float64, maxIter int) Result {
	return SolveResilient(p, func() Solver { return s }, ResilientConfig{Tol: tol, MaxIter: maxIter}).Result
}

// residualInit launches r ← b − A·x into workspace r, the common
// initialization of every method here. The negate-and-add is one xpay
// sweep (r ← b + (−1)·r), bitwise identical to the scal-then-axpy pair
// it replaces: IEEE negation is exact and addition commutes.
func residualInit(p *core.Planner, r core.VecID) {
	p.Matmul(r, core.SOL)               // r = Ax
	p.Xpay(r, p.Constant(-1), core.RHS) // r = b - Ax
}
