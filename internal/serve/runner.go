// Package serve hosts many solve jobs over one shared task runtime: a
// per-job session layer (RunSolve), an admission-controlled job server
// (Server) with coalescing of same-operator jobs into batched multi-RHS
// solves, and an HTTP front end (Handler). cmd/mmserve is the binary;
// cmd/mmsolve drives RunSolve in one-shot mode.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// Options tailor one RunSolve call beyond the job spec.
type Options struct {
	// Session is the taskrt session the solve launches into. Required:
	// every planner RunSolve builds binds to it, so many RunSolve calls
	// can share one runtime without sharing failure state.
	Session *taskrt.Session
	// Cache, when non-nil and the spec's solver is gcrodr, warm-starts
	// the solve from (and publishes the harvested space back to) the
	// recycle space the caller shares among related solves.
	Cache *solvers.RecycleCache
	// Telemetry, when non-nil, is the driver's observer
	// (solvers.ResilientConfig.Observe): called with the iteration number
	// and the solver's own residual measure before the first step and
	// after every one, on plain and checkpointing solves alike.
	Telemetry func(iter int, res float64)
	// Log, when non-nil, receives the driver's progress lines.
	Log func(format string, args ...any)
	// Tracing controls trace memoization of the solve's iteration loop.
	// Templates and task IDs are the session's own, so a solve replays
	// alike whether or not other sessions' launches interleave with it.
	Tracing bool
	// Recorder, when non-nil, is attached to the session before the
	// solve so every task records wall-clock spans.
	Recorder *obs.Recorder
	// Resume, when non-nil, seeds the solve from a persisted checkpoint:
	// the solution vector starts from Resume.X instead of zero, and the
	// iteration accounting continues at Resume.Iter — MaxIter still
	// bounds the job's TOTAL iterations across its lifetime.
	Resume *ResumePoint
	// CheckpointSink, when non-nil and the spec checkpoints
	// (CheckpointEvery > 0), receives every verified checkpoint the
	// moment it is taken:
	// the absolute iteration, the host-verified true residual and the
	// full solution vector in index order. The slice is only valid
	// during the call — persist synchronously.
	CheckpointSink func(iter int, residual float64, x []float64)
}

// JobResult is the outcome of one solve job, shaped for the server's
// JSON responses and the CLI's report alike.
type JobResult struct {
	Solver       string  `json:"solver"`
	N            int     `json:"n"`
	NNZ          int64   `json:"nnz"`
	Iterations   int     `json:"iterations"`
	Residual     float64 `json:"residual"`
	TrueResidual float64 `json:"true_residual"`
	Converged    bool    `json:"converged"`
	Breakdown    string  `json:"breakdown,omitempty"`

	// Recovery accounting (zero for plain solves).
	Restarts          int   `json:"restarts,omitempty"`
	Checkpoints       int   `json:"checkpoints,omitempty"`
	RecoveredFailures int64 `json:"recovered_failures,omitempty"`
	Replacements      int   `json:"replacements,omitempty"`
	SDCAlarms         int64 `json:"sdc_alarms,omitempty"`

	// Err is the session's joined failure state after the solve ("" when
	// clean or recovered). Retryable marks a rejection the client should
	// simply resubmit (a drain took the job before it started), not a
	// solve failure.
	Err       string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`

	// Injected counts faults the job's injector fired; AutoFormats
	// lists the per-band formats adaptive tuning chose, or the one
	// matrix-free stencil of a generated matrix (format "auto" only).
	Injected    int64    `json:"injected,omitempty"`
	AutoFormats []string `json:"auto_formats,omitempty"`

	// Coalesced is the number of jobs fused into the batched multi-RHS
	// solve this result came from (0 or 1 for a solo solve).
	Coalesced int `json:"coalesced,omitempty"`

	// ResumedFrom is the absolute checkpoint iteration a replayed job
	// restarted from (0 for a job that ran from scratch).
	ResumedFrom int `json:"resumed_from_iter,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
	// Session is the per-session launch accounting, the evidence
	// multi-tenant tests use to prove no cross-session serialization.
	Session taskrt.SessionStats `json:"session_stats"`

	// X is the computed solution, for in-process callers (the CLI's
	// exact-solution check); never serialized.
	X []float64 `json:"-"`
}

// jsonFloat is a float64 whose JSON form survives non-finite values.
// encoding/json refuses NaN and ±Inf, which are exactly what a diverged
// or fault-injected solve reports as its residual; they travel as the
// strings "NaN", "+Inf" and "-Inf", finite values as plain numbers.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return json.Marshal(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	var s string
	if json.Unmarshal(b, &s) == nil {
		v, err := strconv.ParseFloat(s, 64)
		*f = jsonFloat(v)
		return err
	}
	return json.Unmarshal(b, (*float64)(f))
}

// jobResultJSON is JobResult's wire form: every field as declared,
// except that the float fields are shadowed by jsonFloat twins so a
// finished job with a non-finite residual still reaches its client and
// its journal record (an unencodable done record would re-run the job
// on every restart).
type jobResultJSON struct {
	*jobResultFields
	Residual     jsonFloat `json:"residual"`
	TrueResidual jsonFloat `json:"true_residual"`
}

// jobResultFields is JobResult without its JSON methods.
type jobResultFields JobResult

func (r JobResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(jobResultJSON{(*jobResultFields)(&r),
		jsonFloat(r.Residual), jsonFloat(r.TrueResidual)})
}

func (r *JobResult) UnmarshalJSON(b []byte) error {
	w := jobResultJSON{(*jobResultFields)(r),
		jsonFloat(r.Residual), jsonFloat(r.TrueResidual)}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	r.Residual, r.TrueResidual = float64(w.Residual), float64(w.TrueResidual)
	return nil
}

// RunSolve executes one job against an already loaded matrix, inside
// opt.Session. The planner, fault injector, attempt cap, and watchdog
// are all session-scoped, so concurrent RunSolve calls on one runtime
// stay independent: a fault plan in one job never fires in another, and
// one job's permanent failure never pollutes another's error state.
func RunSolve(a *sparse.CSR, spec jobspec.Spec, opt Options) JobResult {
	rows, _ := sparse.Dims(a)
	n := int(rows)
	b := spec.BuildRHS(a, n)
	x := make([]float64, n)
	if opt.Resume != nil {
		if len(opt.Resume.X) != n {
			return JobResult{Solver: spec.Solver, N: n, NNZ: a.NNZ(),
				Err: fmt.Sprintf("serve: resume checkpoint has %d entries, system has %d", len(opt.Resume.X), n)}
		}
		copy(x, opt.Resume.X)
	}
	out := solveSystem(a, 1, x, b, spec, opt)
	// The honest yardstick: ‖b − A·x‖ recomputed host-side from the raw
	// matrix and arrays, sharing no state with the solve.
	out.TrueResidual = HostResidual(a, x, b)
	out.X = x
	return out
}

// solveSystem is the one place a planner is built and driven: it plans
// diag(A, …, A)·x = b with k diagonal blocks inside opt.Session as spec
// describes, runs spec's solver from the x supplied through the one
// driver (solvers.SolveResilient), and reports everything but the
// host-side evidence (TrueResidual, X), which callers compute per
// system — RunSolve for its job (k = 1), runBatch for each member of a
// batch. a is the matrix spec.Matrix names. The n×n operator is
// converted (or tuned, over the row bands of one member's partition) once
// — under "auto", a generated matrix is not stored at all but runs as its
// matrix-free stencil (jobspec.MatrixFree) — and sparse.BlockDiag tiles
// that one operator k times; the k·n vectors take the spec's piece count,
// so a batch launches as many tasks per iteration as one solo solve.
func solveSystem(a *sparse.CSR, k int, x, b []float64, spec jobspec.Spec, opt Options) JobResult {
	sess := opt.Session
	rows, _ := sparse.Dims(a)
	n := int64(k) * rows
	out := JobResult{Solver: spec.Solver, N: int(n), NNZ: int64(k) * a.NNZ()}

	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1), Session: sess})
	// Vectors are cut at the dot's leaf boundaries, so the answer does not
	// depend on the piece count (core.DotLeaf). Colors past the leaf count
	// would be empty pieces: same answer, more to plan.
	part := func(name string, size int64) index.Partition {
		leaves := (size + core.DotLeaf - 1) / core.DotLeaf
		return index.AlignedPartition(index.NewSpace(name, size), int(min(int64(spec.Pieces), max(leaves, 1))), core.DotLeaf)
	}
	si := p.AddSolVector(x, part("D", n))
	ri := p.AddRHSVector(b, part("R", n))
	var m sparse.Matrix
	if canon, _ := sparse.CanonicalFormat(spec.Format); canon == "Auto" {
		if op := jobspec.MatrixFree(spec.Matrix); op != nil {
			// A generated operator is never stored: the stencil kernel
			// computes its coefficients and reads only the vectors.
			out.AutoFormats = []string{op.Format()}
			m = op
		} else {
			// Banded by one member's range partition, so that for k = 1
			// every task piece computes over a single tile.
			tuned := sparse.AutoSelectBands(a, part("R", rows))
			out.AutoFormats = tuned.SelectedFormats()
			m = tuned
		}
	} else {
		var err error
		if m, err = sparse.ConvertNamed(a, spec.Format); err != nil {
			out.Err = err.Error()
			return out
		}
	}
	p.AddOperator(sparse.BlockDiag(m, k), si, ri)
	if spec.Solver == "pcg" {
		p.AddPreconditioner(sparse.BlockDiag(precond.Jacobi(a), k), si, ri)
	}
	p.Finalize()
	p.SetTracing(opt.Tracing)

	var injector *fault.Injector
	if spec.Faults != "" {
		plan, err := fault.ParsePlan(spec.Faults)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		if plan.Active() {
			injector = fault.NewInjector(plan)
			sess.SetFaultInjector(injector)
		}
	}
	if spec.Retries > 1 {
		sess.SetMaxAttempts(spec.Retries)
	}
	if spec.Watchdog > 0 {
		sess.SetWatchdog(spec.Watchdog)
	}
	if opt.Recorder != nil {
		sess.SetRecorder(opt.Recorder)
	}

	cfg := solvers.ResilientConfig{
		Tol: spec.Tol, MaxIter: spec.MaxIter,
		CheckpointEvery: spec.CheckpointEvery, MaxRestarts: spec.MaxRestarts,
		DetectSDC: spec.DetectSDC,
		Observe:   opt.Telemetry, Log: opt.Log,
	}
	if opt.Resume != nil {
		cfg.StartIteration = opt.Resume.Iter
		out.ResumedFrom = opt.Resume.Iter
	}
	if sink := opt.CheckpointSink; sink != nil {
		cfg.CheckpointSink = func(c solvers.Checkpoint) {
			sink(c.Iteration, c.TrueResidual, c.Sol[0])
		}
	}

	start := time.Now()
	if spec.DetectSDC {
		p.EnableSDCDetection() // before the solver's set-up tasks, so they are checked too
	}
	var s solvers.Solver
	if spec.Solver == "gcrodr" && opt.Cache != nil {
		s = solvers.NewGCRODR(p, 10, 4, opt.Cache)
	} else {
		s = solvers.New(spec.Solver, p)
	}
	res := solvers.SolveResilient(p, s, cfg)
	p.Drain()
	if g, ok := s.(*solvers.GCRODR); ok && res.Converged {
		g.SaveRecycleSpace()
	}
	out.Elapsed = time.Since(start)

	out.Iterations = res.Iterations
	out.Residual = res.Residual
	out.Converged = res.Converged
	if res.Breakdown != nil {
		out.Breakdown = res.Breakdown.Error()
	}
	out.Restarts = res.Restarts
	out.Checkpoints = res.Checkpoints
	out.RecoveredFailures = res.RecoveredFailures
	out.Replacements = res.Replacements
	out.SDCAlarms = res.SDCAlarms
	if injector != nil {
		out.Injected = injector.Injected()
	}
	// A converged recovery-enabled solve has, by construction, verified
	// the true residual after recovery, so recovered task failures do not
	// fail the job. A plain solve has no recovery path: any task failure
	// is fatal.
	if err := sess.Err(); err != nil && !(spec.CheckpointEvery > 0 && res.Converged) {
		out.Err = err.Error()
	}
	out.Session = sess.Stats()
	return out
}

// HostResidual is ‖b − A·x‖ computed directly from the raw arrays.
func HostResidual(a sparse.Matrix, x, b []float64) float64 {
	ax := make([]float64, len(b))
	sparse.SpMV(a, ax, x)
	var rr float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
	}
	return math.Sqrt(rr)
}
