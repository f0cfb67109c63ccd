// Mmsolve reads a square sparse matrix in Matrix Market coordinate
// format and solves A·x = b with the chosen Krylov method, reporting the
// iteration count, final residual, and timing.
//
//	mmsolve -solver bicgstab -tol 1e-8 matrix.mtx
//
// The matrix argument is either a .mtx file or a generated stencil spec
// like "lap2d:64x64" (a 5-point 2D Laplacian on a 64×64 grid).
//
// The right-hand side defaults to A·1 (so the exact solution is the
// all-ones vector, making correctness easy to eyeball); -rhs ones uses
// b = 1 instead, and -rhs rand:SEED draws deterministic uniform entries.
// For SPD matrices try -solver cg or -solver pcg (Jacobi).
//
// Mmsolve is the one-shot front end of the same job machinery
// cmd/mmserve serves over HTTP: both validate the identical
// jobspec.Spec (a flag combination rejected here with exit 2 is a
// request body rejected there with 400) and both execute it through
// serve.RunSolve inside a taskrt session.
//
// -profile records wall-clock spans for every executed task and prints a
// per-iteration telemetry line plus a per-task-name breakdown with the
// schedule's critical path; -trace-out additionally writes the spans as a
// Chrome trace (load it in Perfetto or chrome://tracing).
//
// Fault tolerance (chaos runs): -faults injects a deterministic fault
// plan (e.g. -faults "panic=0.01,seed=1" or "bitflip=0.001,bit=52"),
// -retries enables bounded re-execution of idempotent tasks, -watchdog
// flags stragglers, and -checkpoint-every N turns on the driver's
// recovery: it checkpoints the solution every N iterations and rolls
// back on failure, divergence, or recurrence drift (a verified residual
// more than twice the solver's own measure), restarting the solver from
// the restored solution; -max-restarts bounds the rollbacks. Without it
// the same driver stops on the first bad state. Either way a rejected
// convergence claim restarts the solver from its current solution.
//
// Silent data corruption: -detect-sdc turns on checksummed kernels
// (ABFT) that alarm on corrupted vector pieces; with -checkpoint-every
// an alarm rolls back to the last checkpoint without spending
// -max-restarts, without it the alarms are only counted. The report
// always prints the host-side true residual next to the solver's own
// residual measure, and -strict-residual exits non-zero when a solver
// claims convergence the true residual does not back up.
//
// Exit status: 0 on a converged solve (including one that recovered from
// injected or real task failures), 1 on non-convergence, breakdown, or
// unrecovered task failure, 2 on usage errors — an unknown -format,
// -solver, or -rhs name, or a nonsensical numeric value (-pieces 0,
// -maxiter -1, -retries -1, a non-positive -tol); the error lists
// what was wrong with every offending flag.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

func main() {
	spec := jobspec.Default()
	flag.StringVar(&spec.Solver, "solver", spec.Solver, "cg, pipecg, sstep-cg, bicgstab, gmres, pgmres, gcrodr, minres, bicg, cgs, or pcg")
	flag.Float64Var(&spec.Tol, "tol", spec.Tol, "residual tolerance")
	flag.IntVar(&spec.MaxIter, "maxiter", spec.MaxIter, "iteration limit")
	flag.IntVar(&spec.Pieces, "pieces", spec.Pieces, "vector pieces")
	flag.StringVar(&spec.Format, "format", spec.Format, "operator storage: a format name (csr, coo, dia, ...) or 'auto' to tune each row band (a lap2d: matrix runs matrix-free)")
	flag.StringVar(&spec.RHS, "rhs", spec.RHS, "right-hand side: 'Aones' (b = A·1), 'ones' (b = 1), or 'rand:SEED'")
	profile := flag.Bool("profile", false, "record task timings; print per-iteration telemetry and a per-task breakdown")
	trace := flag.Bool("trace", true, "memoize dependence analysis of repeated solver iterations (trace replay)")
	traceOut := flag.String("trace-out", "", "write recorded task spans as a Chrome trace to this file (implies -profile)")
	flag.StringVar(&spec.Faults, "faults", "", "fault-injection plan, e.g. 'panic=0.01,seed=1' (see internal/fault)")
	flag.IntVar(&spec.Retries, "retries", 0, "execution attempts per idempotent task (0 or 1 disables retry)")
	flag.DurationVar(&spec.RetryBackoff, "retry-backoff", 0, "delay before re-executing a failed task (doubles per attempt)")
	flag.IntVar(&spec.CheckpointEvery, "checkpoint-every", 0, "checkpoint the solution every N iterations and roll back on failure (0: no recovery, stop on the first bad state)")
	flag.IntVar(&spec.MaxRestarts, "max-restarts", spec.MaxRestarts, "checkpoint rollback budget for failures, divergence and recurrence drift (with -checkpoint-every; sdc alarms do not spend it)")
	flag.DurationVar(&spec.Watchdog, "watchdog", 0, "flag tasks running past this wall-clock budget as stragglers (0 disables)")
	flag.BoolVar(&spec.DetectSDC, "detect-sdc", false, "enable ABFT checksummed kernels; with -checkpoint-every, an alarm rolls back to the last checkpoint")
	strictRes := flag.Bool("strict-residual", false, "exit non-zero when the solver claims convergence but the true residual misses the tolerance")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mmsolve [flags] matrix.mtx")
		os.Exit(2)
	}
	spec.Matrix = flag.Arg(0)
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mmsolve:", err)
		fmt.Fprintln(os.Stderr, "usage: mmsolve [flags] matrix.mtx (run -h for the flag list)")
		os.Exit(2)
	}
	if *traceOut != "" {
		*profile = true
	}

	a, err := jobspec.LoadMatrix(spec.Matrix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmsolve:", err)
		os.Exit(1)
	}
	rows, cols := sparse.Dims(a)
	if rows != cols {
		fmt.Fprintf(os.Stderr, "mmsolve: matrix is %d x %d, need square\n", rows, cols)
		os.Exit(1)
	}
	fmt.Printf("matrix: %d x %d, %d nonzeros\n", rows, cols, a.NNZ())
	if spec.Faults != "" {
		fmt.Printf("fault injection: %s\n", spec.Faults)
	}

	// One-shot mode is the degenerate case of the server: one session on
	// a fresh runtime, driven through the same RunSolve the server
	// multiplexes many of.
	rt := taskrt.New()
	// The task graph is read only by the -profile report.
	rt.SetGraphRetention(*profile)
	sess := rt.DefaultSession()
	opt := serve.Options{
		Session: sess,
		Tracing: *trace,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	var rec *obs.Recorder
	if *profile {
		rec = obs.NewRecorder()
		opt.Recorder = rec
		// The per-iteration line reads counters only: the critical path is
		// a pass over the whole retained graph, and the final report
		// prints it once.
		opt.Telemetry = func(iter int, res float64) {
			st := rt.Stats()
			fmt.Printf("iter %4d  residual %.6e  tasks %6d  deps %6d\n",
				iter, res, st.Launched, st.DepEdges)
		}
	}

	out := serve.RunSolve(a, spec, opt)

	if len(out.AutoFormats) > 0 {
		fmt.Printf("format: auto -> %s\n", strings.Join(out.AutoFormats, " "))
	}
	st := rt.Stats()
	if *trace {
		analyzed, spliced := rt.LaunchTiming()
		fmt.Printf("tracing: %d replayed / %d analyzed launches; instances %d hit / %d miss (%d fallbacks)\n",
			st.TraceReplays, st.Launched-st.TraceReplays, st.TraceHits, st.TraceMisses, st.TraceFallbacks)
		if spliced.Count > 0 {
			fmt.Printf("tracing: launch cost %v analyzed vs %v replayed (mean)\n",
				analyzed.Mean(), spliced.Mean())
		}
	}
	if spec.Faults != "" || st.Failed > 0 || st.Retries > 0 || st.Stragglers > 0 {
		fmt.Printf("faults: injected %d; tasks failed %d, retried %d, poisoned %d, stragglers %d\n",
			out.Injected, st.Failed, st.Retries, st.Poisoned, st.Stragglers)
	}
	resilient := spec.CheckpointEvery > 0
	if resilient {
		fmt.Printf("resilience: %d checkpoint(s), %d restart(s), %d permanent failure(s) absorbed\n",
			out.Checkpoints, out.Restarts, out.RecoveredFailures)
	}
	if spec.DetectSDC {
		fmt.Printf("sdc: %d checksum alarm(s)\n", out.SDCAlarms)
	}

	// The exit is deferred past the profile output — a failed chaos run
	// is exactly the one whose trace is worth looking at.
	failed := false
	if out.Err != "" {
		fmt.Fprintln(os.Stderr, "mmsolve: solve failed:", out.Err)
		failed = true
	}

	fmt.Printf("solver: %s\n", spec.Solver)
	fmt.Printf("converged: %v in %d iterations, residual %.3g, true residual %.3g\n",
		out.Converged, out.Iterations, out.Residual, out.TrueResidual)
	fmt.Printf("wall time: %v (%.3g s/iteration)\n",
		out.Elapsed, out.Elapsed.Seconds()/math.Max(1, float64(out.Iterations)))
	if spec.RHS == "Aones" && out.Converged && !failed {
		var maxErr float64
		for _, v := range out.X {
			if e := math.Abs(v - 1); e > maxErr {
				maxErr = e
			}
		}
		fmt.Printf("max |x - 1| (exact solution is all ones): %.3g\n", maxErr)
	}

	if *profile {
		spans := rec.Spans()
		rep := obs.Analyze(spans, rt.Graph().DepLists())
		fmt.Println()
		fmt.Print(rep)
		if *traceOut != "" {
			if err := writeTrace(*traceOut, spans); err != nil {
				fmt.Fprintln(os.Stderr, "mmsolve:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote Chrome trace: %s (%d spans)\n", *traceOut, len(spans))
		}
	}
	if out.Breakdown != "" {
		fmt.Fprintln(os.Stderr, "mmsolve:", out.Breakdown)
	}
	// Strict mode: a convergence claim the true residual does not back up
	// (a drifted recurrence, or silent corruption the run never detected)
	// is a failure, not a success with a footnote. The 5% slack absorbs
	// the recompute's own rounding against the solver's stopping test.
	if *strictRes && out.Converged && out.TrueResidual > spec.Tol*1.05 {
		fmt.Fprintf(os.Stderr, "mmsolve: convergence claim not backed by true residual %.3g (tol %.3g)\n",
			out.TrueResidual, spec.Tol)
		failed = true
	}
	if failed || !out.Converged {
		os.Exit(1)
	}
}

func writeTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
