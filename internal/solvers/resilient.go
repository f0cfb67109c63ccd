package solvers

import (
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
	// MaxRestarts is the restart budget of a recovery-enabled solve
	// (<= 0 disables restarts). Each restart rolls the solution back to
	// the last verified checkpoint and rebuilds the solver, re-running
	// its residual initialization.
	MaxRestarts int
	// DetectSDC enables ABFT checksum detection on the planner
	// (core.EnableSDCDetection). A recovery-enabled solve drives
	// selective recovery from its alarms: solution pieces a checksum
	// localized corruption to are restored from the last verified
	// checkpoint — healthy pieces keep their newer state — and the
	// solver's recurrence is force-rebased on the recomputed true
	// residual. Solvers without residual replacement fall back to a
	// whole-solve rollback on alarm. Without recovery the alarms are only
	// counted (ResilientResult.SDCAlarms).
	DetectSDC bool
	// ReplaceEvery, when positive and the solver implements
	// ResidualReplacer, runs a residual-replacement check every
	// ReplaceEvery iterations: the true residual b − A·x is recomputed
	// and the recurrence rebased when its drift exceeds DriftTol (van der
	// Vorst & Ye). This bounds the damage of corruption below the
	// detection floor as well as honest rounding drift.
	ReplaceEvery int
	// DriftTol is the relative drift threshold of the periodic
	// replacement check; <= 0 replaces unconditionally at every check.
	DriftTol float64
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
	// Restarts is the number of checkpoint rollbacks performed.
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
	// PieceRestores counts solution pieces selectively restored from the
	// last checkpoint after an alarm localized corruption to them.
	PieceRestores int
	// MaxDrift is the largest recurrence-vs-true drift any replacement
	// check observed.
	MaxDrift float64
}

// divergeFactor is the multiple of the best verified residual past which
// a recovery-enabled solve declares divergence and rolls back.
const divergeFactor = 1e8

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
// number is within Tol. On a miss, a ResidualReplacer is rebased on
// b − Ax and keeps iterating, until a miss fails to halve the previous
// miss's true residual; any other solver stops unconverged there.
//
// A bad state is a NaN/Inf residual (a poisoned future or corruption),
// a Krylov breakdown, or — recovery only — divergence past
// divergeFactor × the best verified residual. Without recovery
// (CheckpointEvery == 0) the solve stops there. With it, the driver
// layers on top of the runtime's retry/poison machinery:
//
//   - Every CheckpointEvery iterations it drains the runtime, recomputes
//     the true residual, and — if finite and not diverged — checkpoints
//     the solution vector through the planner.
//   - With DetectSDC, the planner's checksummed kernels raise alarms the
//     driver polls every iteration. An alarm on a solution piece restores
//     just that piece from the last checkpoint (core.RestoreSolPieces);
//     alarms anywhere else leave the data in place. Either way the
//     recurrence is force-rebased on the recomputed true residual
//     (ResidualReplacer), so corrupted workspaces are rebuilt rather than
//     trusted. The mixed-age solution this produces is a legitimate
//     restart point — the Krylov methods here are stationary in x.
//     (Without recovery, detection only counts alarms.)
//   - With ReplaceEvery > 0, a periodic residual-replacement check
//     bounds recurrence drift (and sub-floor corruption) between alarms.
//   - On a bad state — or an alarm on a solver without residual
//     replacement — it restores the whole checkpoint and rebuilds the
//     solver with newSolver, a bounded number of times (MaxRestarts).
//
// Any finite intermediate state is a legitimate restart point for the
// Krylov methods here (they are stationary in x), which is why a verified
// checkpoint needs only a finite true residual, not a consistent one.
//
// newSolver is called once, and once more after every rollback, when it
// must build a fresh solver. p must be the real (non-virtual), finalized
// planner the solver runs on.
func SolveResilient(p *core.Planner, newSolver func() Solver, cfg ResilientConfig) ResilientResult {
	recovering := cfg.CheckpointEvery > 0
	if !recovering {
		cfg.MaxRestarts = 0
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// clearRecovered empties the session's error window once a rollback
	// (or selective restore) has provably recovered — the state just
	// verified against the true residual. Without this, a long-running
	// session keeps reporting failures it already absorbed.
	clearRecovered := func(when string) {
		if n := p.Session().ClearErrs(); n > 0 {
			logf("resilient: cleared %d recovered task failure(s) at %s", n, when)
		}
	}

	var mon *core.SDCMonitor
	if cfg.DetectSDC {
		mon = p.EnableSDCDetection(0)
		if rec := p.Session().Recorder(); rec != nil {
			mon.SetRecorder(rec) // alarms show up in profiles as FailureSDC
		}
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
	noteDrift := func(rep ReplacementReport) {
		if isFinite(rep.Drift) && rep.Drift > out.MaxDrift {
			out.MaxDrift = rep.Drift
		}
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
		if mon != nil {
			mon.Take() // alarms before the verified x0 checkpoint are moot
		}
	}

	for restart := 0; ; restart++ {
		s := newSolver()
		rplc, _ := s.(ResidualReplacer)
		sinceCkpt, sinceReplace := 0, 0
		bad := "" // non-empty when this leg must be abandoned
		var res float64
		lastMiss := math.Inf(1) // true residual of the leg's last rejected claim

	leg:
		for {
			res = math.Sqrt(s.ConvergenceMeasure().Value())
			if cfg.Observe != nil {
				cfg.Observe(iter, res)
			}

			// Selective SDC recovery, before the bad-residual triage: a
			// detected corruption is repaired in place (piece restore +
			// forced replacement) instead of burning a whole-solve restart.
			if mon != nil && recovering {
				alarms := mon.Take()
				if len(alarms) > 0 {
					p.Drain()
					alarms = append(alarms, mon.Take()...) // alarms surfaced by the drain
					out.SDCAlarms += int64(len(alarms))
					if rplc == nil {
						bad = "sdc alarm (solver lacks residual replacement)"
						break leg
					}
					slots := solSlots(alarms)
					if len(slots) > 0 {
						p.RestoreSolPieces(ckpt, slots)
						out.PieceRestores += len(slots)
					}
					rep := rplc.ReplaceResidual(0) // forced rebase on b − A·x
					out.Replacements++
					noteDrift(rep)
					p.Drain()
					// Recovery itself read the pre-rebase state (the corrupt
					// residual, the restored pieces' neighbors); any alarms it
					// raised are self-inflicted and already handled.
					mon.Take()
					logf("resilient: %d sdc alarm(s) at iter %d; restored %d piece(s), rebased residual (true %.3g, drift %.3g)",
						len(alarms), iter, len(slots), rep.TrueResidual, rep.Drift)
					if !isFinite(rep.TrueResidual) {
						bad = "true residual is not finite after sdc recovery"
						break leg
					}
					res = rep.TrueResidual
					sinceReplace = 0
				}
			}

			// Periodic residual replacement (van der Vorst & Ye): rebase the
			// recurrence when it has drifted from b − A·x.
			if rplc != nil && cfg.ReplaceEvery > 0 && sinceReplace >= cfg.ReplaceEvery {
				rep := rplc.ReplaceResidual(cfg.DriftTol)
				noteDrift(rep)
				sinceReplace = 0
				if rep.Replaced {
					out.Replacements++
					logf("resilient: residual replaced at iter %d (true %.3g, drift %.3g)",
						iter, rep.TrueResidual, rep.Drift)
				}
				if !isFinite(rep.TrueResidual) {
					bad = "true residual is not finite at replacement check"
					break leg
				}
				res = rep.TrueResidual
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
				if rplc == nil || tr > lastMiss/2 {
					logf("solve: measure %.3g but true residual %.3g; stopping", res, tr)
					return finish(res, tr, false)
				}
				lastMiss = tr
				rep := rplc.ReplaceResidual(0)
				out.Replacements++
				noteDrift(rep)
				sinceReplace = 0
				logf("solve: measure %.3g but true residual %.3g; residual replaced", res, tr)
				res = rep.TrueResidual
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
				}
			}

			if iter >= cfg.MaxIter {
				break
			}
			s.Step()
			iter++
			sinceCkpt++
			sinceReplace++
		}

		if bad == "" || restart >= cfg.MaxRestarts {
			if bad != "" {
				logf("solve: %s; stopping after %d restart(s)", bad, restart)
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
			bad, restart+1, cfg.MaxRestarts)
		p.Drain()
		p.RestoreSol(ckpt)
		if mon != nil {
			mon.Take() // rollback discards whatever the alarms indicted
		}
		out.Restarts++
	}
}

// solSlots collects the distinct solution-piece slots the alarms indict.
func solSlots(alarms []core.SDCAlarm) []int {
	var slots []int
	seen := map[int]bool{}
	for _, a := range alarms {
		if a.Vec == core.SOL && !seen[a.Slot] {
			seen[a.Slot] = true
			slots = append(slots, a.Slot)
		}
	}
	return slots
}
