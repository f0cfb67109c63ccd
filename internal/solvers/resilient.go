package solvers

import (
	"fmt"
	"math"

	"kdrsolvers/internal/core"
)

// ResilientConfig configures SolveResilient. Tol and MaxIter alone make
// a plain solve; CheckpointEvery > 0 turns recovery on.
type ResilientConfig struct {
	// Tol is the residual tolerance.
	Tol float64
	// MaxIter bounds the total number of steps executed, across restarts.
	MaxIter int
	// CheckpointEvery > 0 enables recovery and is the number of
	// iterations between checkpoints. Each checkpoint synchronizes,
	// verifies the true residual is finite, and snapshots the solution
	// vector. At 0 nothing is checkpointed or rolled back: the solve
	// stops on the first bad state.
	CheckpointEvery int
	// MaxRestarts is the rollback budget of a recovery-enabled solve
	// (<= 0 disables rollbacks). Each rollback restores the solution
	// from the last verified checkpoint and restarts the solver from it.
	MaxRestarts int
	// DetectSDC enables ABFT checksum detection on the planner
	// (core.EnableSDCDetection). Enable it on the planner before building
	// the solver to check the solver's set-up tasks too; otherwise the
	// driver drains and seeds the checksums from the data as it stands.
	// A recovery-enabled solve answers an alarm by restoring the last
	// verified checkpoint and restarting the solver from it, without
	// spending MaxRestarts: a detected corruption is a repair, not a
	// failure. Without recovery the alarms are only counted
	// (ResilientResult.SDCAlarms).
	DetectSDC bool
	// StartIteration offsets the iteration counter: a solve resumed from
	// a persisted checkpoint continues counting from the checkpointed
	// iteration instead of 0. MaxIter keeps bounding the TOTAL iteration
	// count across the job's lifetime, so a resumed solve gets exactly
	// the budget the interrupted one had left. The caller is responsible
	// for having written the checkpointed solution into the planner's
	// solution vector before calling SolveResilient.
	StartIteration int
	// CheckpointSink, when non-nil, receives every verified checkpoint
	// the moment it is taken — including the initial one — so a journal
	// can persist it. The runtime is drained and the true residual
	// verified finite at call time; the Sol slices are the driver's own
	// deep copy and must not be mutated or retained past the call
	// (serialize synchronously).
	CheckpointSink func(Checkpoint)
	// Observe, when non-nil, is called with every convergence measure the
	// driver reads — the initial one (iteration StartIteration) and one
	// per step — before anything acts on it.
	Observe func(iter int, res float64)
	// Log, when non-nil, receives progress lines (checkpoints, restarts,
	// rejected convergence claims, recovery decisions).
	Log func(format string, args ...any)
}

// Checkpoint is one verified checkpoint of a resilient solve: the state
// a crashed job can restart from.
type Checkpoint struct {
	// Iteration is the absolute iteration the checkpoint was taken at
	// (cfg.StartIteration-based for resumed solves).
	Iteration int
	// TrueResidual is the host-verified ‖b − A·x‖ at the checkpoint.
	TrueResidual float64
	// Sol is the solution vector, one deep-copied slice per planner
	// component, exactly as core.Planner.CheckpointSol lays it out.
	Sol [][]float64
}

// ResilientResult extends Result with recovery accounting.
type ResilientResult struct {
	Result
	// Restarts is the number of rollbacks that spent the MaxRestarts
	// budget; an SDC alarm's rollback does not (SDCAlarms counts those).
	Restarts int
	// Checkpoints is the number of verified checkpoints taken.
	Checkpoints int
	// RecoveredFailures is how many permanent task failures were absorbed
	// by rolling back (runtime-level retries are counted by the runtime's
	// own Stats.Retries, not here).
	RecoveredFailures int64
	// SDCAlarms counts checksum alarms the detection layer raised
	// (DetectSDC only).
	SDCAlarms int64
}

// divergeFactor is the multiple of the best verified residual past which
// a recovery-enabled solve declares divergence and rolls back.
const divergeFactor = 1e8

// driftFactor is the multiple of a solver's own measure past which the
// true residual verified at a checkpoint counts as recurrence drift.
const driftFactor = 2

// SolveResilient is the one convergence driver: Solve, serve.RunSolve
// (mmsolve, a solo POST /solve) and the server's coalesced batches all
// run this loop. It evaluates the solver's convergence measure after
// every step (synchronizing, like the paper's driver loop) and stops on
// the first of: a convergence claim ‖b − Ax‖ backs, the iteration
// budget, or a bad state it cannot recover from.
//
// Acceptance rule, the same for every solver on every path: when the
// measure reaches Tol, the driver settles the solver's deferred state
// (the Arnoldi cycle's x += V y), drains the runtime and recomputes
// ‖b − Ax‖ from A, x and b itself. Converged is true exactly when that
// number is within Tol. On a miss the solver restarts in place from x
// (its recurrence begins again on b − Ax) and keeps iterating, until a
// miss fails to halve the previous miss's true residual.
//
// Restart rule: there is one restart, "start again from the current x"
// (every solver of this package restarts itself in place). Besides the
// rejected claim, every bad state restores the last verified checkpoint
// and then restarts. A solver from outside this package cannot be
// restarted, so its solve stops at the first point that needs a restart.
// A bad state is a NaN/Inf residual (a poisoned future or corruption),
// a Krylov breakdown, or — recovery only — divergence past
// divergeFactor × the best verified residual. Without recovery
// (CheckpointEvery == 0) the solve stops there. With it, the driver
// layers on top of the runtime's retry/poison machinery:
//
//   - Every CheckpointEvery iterations it drains the runtime, recomputes
//     the true residual, and — if finite and not diverged — checkpoints
//     the solution vector through the planner. When that verified
//     residual exceeds driftFactor × the solver's own measure, the
//     recurrence has drifted from x: the solve rolls back to the
//     checkpoint it just took (losing no progress) and restarts. The test
//     is skipped while the measure includes an update x does not hold yet
//     (an Arnoldi cycle in progress, which restarts from b − Ax at every
//     cycle anyway).
//   - With DetectSDC, the planner's checksummed kernels raise alarms the
//     driver polls every iteration. An alarm restores the checkpoint and
//     restarts without spending the budget, so corrupted workspaces are
//     rebuilt rather than trusted. (Without recovery, detection only
//     counts alarms.)
//   - Every other bad state, drift included, restores the checkpoint
//     and restarts a bounded number of times (MaxRestarts).
//
// Any finite intermediate state is a legitimate restart point for the
// Krylov methods here (they are stationary in x), which is why a verified
// checkpoint needs only a finite true residual, not a consistent one.
//
// p must be the real (non-virtual), finalized planner s runs on, and s
// must be built from the x the solve starts at.
func SolveResilient(p *core.Planner, s Solver, cfg ResilientConfig) ResilientResult {
	recovering := cfg.CheckpointEvery > 0
	r, restartable := s.(restarter)
	if !recovering {
		cfg.MaxRestarts = 0
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// clearRecovered empties the session's error window once a rollback
	// has provably recovered — the state just verified against the true
	// residual. Without this, a long-running session keeps reporting
	// failures it already absorbed.
	clearRecovered := func(when string) {
		if n := p.Session().ClearErrs(); n > 0 {
			logf("resilient: cleared %d recovered task failure(s) at %s", n, when)
		}
	}

	var mon *core.SDCMonitor
	if cfg.DetectSDC {
		p.Drain() // seeding checksums needs a quiescent runtime
		mon = p.EnableSDCDetection()
	}

	// trueResidual recomputes ‖b − Ax‖ into a workspace reused across
	// checks, with the runtime drained on both sides.
	verify := p.AllocateWorkspace(core.RhsShape)
	trueResidual := func() float64 {
		p.Drain()
		p.BeginPhase("resilient.verify")
		residualInit(p, verify)
		rn := math.Sqrt(p.Dot(verify, verify).Value())
		p.Drain()
		return rn
	}

	var out ResilientResult
	iter := cfg.StartIteration
	var failedBase int64
	finish := func(res, tr float64, converged bool) ResilientResult {
		out.Iterations, out.Residual, out.TrueResidual, out.Converged = iter, res, tr, converged
		if recovering {
			out.RecoveredFailures = p.Session().Stats().Failed - failedBase
			if converged && out.RecoveredFailures > 0 {
				clearRecovered("verified convergence")
			}
		} else if mon != nil {
			p.Drain() // observe-only detection counts the tail tasks' alarms too
			out.SDCAlarms = mon.Count()
		}
		return out
	}

	var ckpt [][]float64
	var best float64
	checkpoint := func(rn float64) {
		ckpt = p.CheckpointSol()
		out.Checkpoints++
		if cfg.CheckpointSink != nil {
			cfg.CheckpointSink(Checkpoint{Iteration: iter, TrueResidual: rn, Sol: ckpt})
		}
	}
	if recovering {
		failedBase = p.Session().Stats().Failed
		// Initial checkpoint: x0 as supplied. The evaluation itself can be
		// hit by a fault, and x0 is trivially restorable (nothing has
		// written to it), so a failed attempt is re-run like any other
		// rollback, against the restart budget. Only a genuinely NaN input
		// is unrecoverable.
		best = trueResidual()
		for attempt := 0; !isFinite(best) && attempt <= cfg.MaxRestarts; attempt++ {
			logf("resilient: initial residual is not finite; re-evaluating (attempt %d/%d)",
				attempt+1, cfg.MaxRestarts+1)
			best = trueResidual()
		}
		if !isFinite(best) {
			return finish(best, best, false)
		}
		checkpoint(best)
	}

	measure := func() float64 { return math.Sqrt(s.ConvergenceMeasure().Value()) }
	// rollback restores the last verified checkpoint and restarts from it.
	rollback := func() {
		p.Drain()
		p.RestoreSol(ckpt)
		if mon != nil {
			mon.Take() // the restore discards whatever the alarms indicted
		}
		r.restart()
	}

	for {
		sinceCkpt := 0
		bad := "" // non-empty when this leg must be abandoned
		var res float64
		lastMiss := math.Inf(1) // true residual of the leg's last rejected claim

	leg:
		for {
			res = measure()
			if cfg.Observe != nil {
				cfg.Observe(iter, res)
			}

			// A detected corruption is repaired, not counted as a failure:
			// roll back without spending the restart budget. The drain
			// first lets every task of the steps already launched raise
			// its alarms, so a seeded run acts on them at the same
			// iteration whatever the workers' timing.
			if mon != nil && recovering {
				p.Drain()
				if n := len(mon.Take()); n > 0 {
					out.SDCAlarms += int64(n)
					if !restartable {
						bad = fmt.Sprintf("%d sdc alarm(s)", n)
						break leg
					}
					rollback()
					sinceCkpt = 0
					res = measure()
					logf("resilient: %d sdc alarm(s) at iter %d; restored the checkpoint and restarted (residual %.3g)",
						n, iter, res)
				}
			}

			switch {
			case !isFinite(res):
				bad = "residual is not finite (task failure or corrupted data)"
				break leg
			case recovering && res > divergeFactor*best:
				bad = "residual diverged"
				break leg
			}

			if res <= cfg.Tol {
				if st, ok := s.(settler); ok {
					st.settle()
				}
				tr := trueResidual()
				if tr <= cfg.Tol {
					return finish(res, tr, true)
				}
				if !isFinite(tr) {
					bad = "true residual is not finite"
					break leg
				}
				if tr > lastMiss/2 || !restartable {
					logf("solve: measure %.3g but true residual %.3g; stopping", res, tr)
					return finish(res, tr, false)
				}
				lastMiss = tr
				r.restart()
				out.Replacements++
				logf("solve: measure %.3g but true residual %.3g; restarted from x", res, tr)
				res = measure()
			}

			// Breakdown guards zero the step's coefficients, so the iterate is
			// still finite; abandon the leg instead of spinning on a frozen
			// residual until MaxIter.
			if bc, ok := s.(BreakdownChecker); ok {
				if err := bc.Breakdown(); err != nil {
					bad = err.Error()
					break leg
				}
			}

			if recovering && sinceCkpt >= cfg.CheckpointEvery {
				switch rn := trueResidual(); {
				case mon != nil && len(mon.Alarms()) > 0:
					// Verification tripped checksums: leave them to the next
					// iteration's recovery pass instead of checkpointing a
					// state known to be corrupt.
				case !isFinite(rn) || rn > divergeFactor*best:
					bad = "checkpoint verification failed"
					break leg
				default:
					checkpoint(rn)
					sinceCkpt = 0
					if rn < best {
						best = rn
					}
					clearRecovered("verified checkpoint")
					logf("resilient: checkpoint at iter %d, true residual %.3g", iter, rn)
					if rn > driftFactor*res && !midCycle(s) {
						bad = fmt.Sprintf("recurrence drift (measure %.3g, true residual %.3g)", res, rn)
						break leg
					}
				}
			}

			if iter >= cfg.MaxIter {
				break
			}
			s.Step()
			iter++
			sinceCkpt++
		}

		if bad == "" || out.Restarts >= cfg.MaxRestarts || !restartable {
			if bad != "" {
				logf("solve: %s; stopping after %d restart(s)", bad, out.Restarts)
				if bc, ok := s.(BreakdownChecker); ok {
					out.Breakdown = bc.Breakdown()
				}
				if recovering {
					res = best // the last verified residual, not the NaN that ended the leg
				}
			} else if st, ok := s.(settler); ok {
				st.settle()
			}
			return finish(res, trueResidual(), false)
		}
		logf("resilient: %s; rolling back to last checkpoint (restart %d/%d)",
			bad, out.Restarts+1, cfg.MaxRestarts)
		rollback()
		out.Restarts++
	}
}

// midCycle reports whether s's measure includes an update x does not
// hold yet (an Arnoldi cycle in progress).
func midCycle(s Solver) bool {
	m, ok := s.(interface{ midCycle() bool })
	return ok && m.midCycle()
}
