package solvers

import (
	"math"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/sparse"
)

// drainedResidual computes ‖b − A·x‖ entirely host-side from the raw
// arrays (sstep_test's hostTrueResidual) after draining — independent of
// every planner code path, so it cannot share a bug (or a corrupted
// checksum) with the machinery under test.
func drainedResidual(a sparse.Matrix, p *core.Planner, b []float64) float64 {
	p.Drain()
	return hostTrueResidual(a, p.VecData(core.SOL, 0), b)
}

// singleFlipPlan plants exactly one exponent-bit flip in the first fused
// vector-update task (the writer of x and r in all three solvers under
// test), then goes quiet. Decisions are drawn at launch time in program
// order, so the corrupted task and element are deterministic per seed.
func singleFlipPlan(seed int64) fault.Plan {
	return fault.Plan{
		Seed: seed, BitFlipRate: 1, MaxFaults: 1, Bit: 52,
		Names: []string{"fused.update", "fused.updatedot"},
	}
}

// sdcCase is one solver of the acceptance matrix, with a seed pinned so
// the planted flip lands in vector data (not reduction scratch) and the
// undetected run reaches its false convergence claim.
var sdcCases = []struct {
	name string
	seed int64
	mk   func(p *core.Planner) Solver
}{
	{"cg", 11, func(p *core.Planner) Solver { return NewCG(p) }},
	{"pipecg", 3, func(p *core.Planner) Solver { return NewPipeCG(p) }},
	{"sstep-cg", 5, func(p *core.Planner) Solver { return NewSStepCG(p, 4) }},
}

func sdcProblem() (*sparse.CSR, []float64) {
	a := sparse.Laplacian2D(8, 8)
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64(i%5) + 1
	}
	return a, b
}

// runTrusting is the naive driver: step until the solver's own
// recurrence measure claims convergence, believing it blindly — the
// mmsolve loop without true-residual verification.
func runTrusting(s Solver, tol float64, maxSteps int) bool {
	for i := 0; i < maxSteps; i++ {
		s.Step()
		res := math.Sqrt(math.Max(s.ConvergenceMeasure().Value(), 0))
		if res <= tol {
			return true
		}
	}
	return false
}

// The acceptance scenario of the SDC tentpole, per solver: (a) with one
// planted bit flip and no detection, the recurrence claims convergence
// but the true residual is orders of magnitude off — the regression
// witness for why detection exists; (b) the same run with checksummed
// kernels raises an alarm; (c) SolveResilient with detection and
// residual replacement converges to the ACTUAL solution, with
// Result.TrueResidual at tolerance.
func TestSDCSolverAcceptance(t *testing.T) {
	const tol = 1e-8
	a, b := sdcProblem()

	for _, tc := range sdcCases {
		t.Run(tc.name+"/false-convergence", func(t *testing.T) {
			p := planFor(a, b, 4)
			p.Session().SetFaultInjector(fault.NewInjector(singleFlipPlan(tc.seed)))
			claimed := runTrusting(tc.mk(p), tol, 500)
			if p.Runtime().Stats().Corrupted == 0 {
				t.Fatal("injection inert — no task was corrupted")
			}
			if !claimed {
				t.Fatal("recurrence never claimed convergence; the witness needs a different seed")
			}
			if tr := drainedResidual(a, p, b); tr <= 100*tol {
				t.Fatalf("true residual %g — the flip did not falsify convergence", tr)
			}
		})

		t.Run(tc.name+"/detection", func(t *testing.T) {
			p := planFor(a, b, 4)
			mon := p.EnableSDCDetection(0)
			p.Session().SetFaultInjector(fault.NewInjector(singleFlipPlan(tc.seed)))
			runTrusting(tc.mk(p), tol, 500)
			p.Drain()
			if p.Runtime().Stats().Corrupted == 0 {
				t.Fatal("injection inert — no task was corrupted")
			}
			if mon.Count() == 0 {
				t.Fatal("checksummed kernels raised no alarm on a planted bit flip")
			}
		})

		t.Run(tc.name+"/resilient-recovery", func(t *testing.T) {
			p := planFor(a, b, 4)
			p.Session().SetFaultInjector(fault.NewInjector(singleFlipPlan(tc.seed)))
			mk := tc.mk
			res := SolveResilient(p, func() Solver { return mk(p) }, ResilientConfig{
				Tol: tol, MaxIter: 2000, CheckpointEvery: 5, MaxRestarts: 10,
				DetectSDC: true, ReplaceEvery: 25, DriftTol: 1e-6,
			})
			p.Drain()
			if p.Runtime().Stats().Corrupted == 0 {
				t.Fatal("injection inert — no task was corrupted")
			}
			if !res.Converged {
				t.Fatalf("resilient solve did not converge: %+v", res)
			}
			if !(res.TrueResidual <= tol) {
				t.Fatalf("TrueResidual %g past tolerance %g: %+v", res.TrueResidual, tol, res)
			}
			if res.SDCAlarms == 0 {
				t.Fatalf("no SDC alarms counted despite corruption: %+v", res)
			}
			// The solution itself must be good, by arithmetic the planner
			// never touched.
			if tr := drainedResidual(a, p, b); tr > 10*tol {
				t.Fatalf("host-side true residual %g past tolerance", tr)
			}
		})
	}
}

// Selective recovery accounting: an alarm that localizes corruption to a
// solution piece must restore just that piece (PieceRestores), not burn
// a whole-solve restart.
func TestSDCSelectiveRecoveryKeepsHealthyPieces(t *testing.T) {
	const tol = 1e-8
	a, b := sdcProblem()
	p := planFor(a, b, 4)
	mon := p.EnableSDCDetection(0)

	// Solve partway, checkpoint via the driver, then flip a bit in a
	// solution piece directly and let SolveResilient pick up the pieces.
	s := NewCG(p)
	RunIterations(s, 5)
	p.Drain()
	d := p.VecData(core.SOL, 0)
	d[20] = fault.FlipBit(d[20], 52) // piece 1 of 4 × 16 entries

	res := SolveResilient(p, func() Solver { return NewCG(p) }, ResilientConfig{
		Tol: tol, MaxIter: 500, CheckpointEvery: 5, MaxRestarts: 5, DetectSDC: true,
	})
	p.Drain()
	if !res.Converged || res.TrueResidual > tol {
		t.Fatalf("recovery failed: %+v (alarms %v)", res, mon.Alarms())
	}
	if res.SDCAlarms == 0 {
		t.Fatalf("planted flip raised no alarm: %+v", res)
	}
	if res.Restarts != 0 {
		t.Fatalf("selective recovery burned %d whole-solve restarts: %+v", res.Restarts, res)
	}
}

// Residual replacement on a clean run: periodic checks must not fire
// spurious replacements when DriftTol is honest, and the result must
// still report the true residual.
func TestSDCReplaceEveryCleanRun(t *testing.T) {
	const tol = 1e-10
	a, b := sdcProblem()
	for _, tc := range sdcCases {
		t.Run(tc.name, func(t *testing.T) {
			p := planFor(a, b, 4)
			mk := tc.mk
			res := SolveResilient(p, func() Solver { return mk(p) }, ResilientConfig{
				Tol: tol, MaxIter: 2000, CheckpointEvery: 10,
				ReplaceEvery: 10, DriftTol: 1e-4,
			})
			p.Drain()
			if !res.Converged || res.TrueResidual > tol {
				t.Fatalf("clean run with periodic replacement: %+v", res)
			}
			// CG and PipeCG carry an explicit recurrence residual whose clean
			// drift is far below 1e-4 relative; a spurious rebase would mean
			// the drift measurement is broken. (The estimate-based s-step
			// solver always replaces by contract.)
			if tc.name != "sstep-cg" && res.Replacements != 0 {
				t.Fatalf("%d spurious replacements on a clean run (max drift %g)",
					res.Replacements, res.MaxDrift)
			}
		})
	}
}

// ReplaceResidual's drift measurement, exercised directly: corrupt the
// recurrence residual of a mid-solve CG, force a replacement, and the
// solver must converge to the true solution afterwards.
func TestSDCReplaceResidualRebases(t *testing.T) {
	const tol = 1e-9
	a, b := sdcProblem()
	p := planFor(a, b, 4)
	s := NewCG(p)
	RunIterations(s, 5)
	p.Drain()

	// Corrupt the maintained residual vector r (workspace index: pv, q, r
	// are allocated in order; use the solver's own state via reflection-free
	// means — corrupt x instead, which desynchronizes r from b − A·x).
	d := p.VecData(core.SOL, 0)
	d[3] = fault.FlipBit(d[3], 52)

	rep := s.ReplaceResidual(1e-6)
	if !rep.Replaced {
		t.Fatalf("corrupted iterate did not trigger replacement: %+v", rep)
	}
	if !(rep.Drift > 0) {
		t.Fatalf("replacement reported no drift: %+v", rep)
	}
	res := Solve(p, s, tol, 500)
	p.Drain()
	if !res.Converged {
		t.Fatalf("post-replacement solve: %+v", res)
	}
	if tr := drainedResidual(a, p, b); tr > 10*tol {
		t.Fatalf("true residual %g after replacement-led solve", tr)
	}
}
