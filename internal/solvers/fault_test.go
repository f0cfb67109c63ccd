package solvers

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// skewSymmetric builds a block-diagonal matrix of 2×2 rotation blocks
// [[0, 1], [-1, 0]]: nonsingular but exactly skew-symmetric, so
// (v, Av) = 0 for every v — the textbook BiCG-family breakdown at the
// very first step (p̃ᵀAp vanishes when r̃0 = r0).
func skewSymmetric(blocks int64) *sparse.CSR {
	var coords []sparse.Coord
	for b := int64(0); b < blocks; b++ {
		i := 2 * b
		coords = append(coords,
			sparse.Coord{Row: i, Col: i + 1, Val: 1},
			sparse.Coord{Row: i + 1, Col: i, Val: -1},
		)
	}
	return sparse.CSRFromCoords(2*blocks, 2*blocks, coords)
}

func TestFaultBreakdownGuards(t *testing.T) {
	a := skewSymmetric(4)
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, name := range []string{"bicg", "bicgstab", "cgs"} {
		t.Run(name, func(t *testing.T) {
			p := planFor(a, b, 2)
			s := New(name, p)
			res := Solve(p, s, 1e-10, 50)
			p.Drain()
			if res.Converged {
				t.Fatalf("%s converged on a skew-symmetric system?! %+v", name, res)
			}
			if res.Breakdown == nil {
				t.Fatalf("%s did not report breakdown: %+v", name, res)
			}
			if !errors.Is(res.Breakdown, ErrBreakdown) {
				t.Fatalf("Breakdown %v does not wrap ErrBreakdown", res.Breakdown)
			}
			// The guard zeroes the vanished quotient, so nothing NaN-poisons
			// the iterate or the residual.
			if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
				t.Fatalf("%s residual = %g, want finite after guarded breakdown", name, res.Residual)
			}
			for _, v := range p.VecData(core.SOL, 0) {
				if math.IsNaN(v) {
					t.Fatalf("%s left NaN in the iterate", name)
				}
			}
			if err := p.Runtime().Err(); err != nil {
				t.Fatalf("%s runtime error: %v", name, err)
			}
		})
	}
}

func TestFaultBreakdownGuardsStayQuietOnHealthySystems(t *testing.T) {
	// The guards must never misfire on a well-conditioned solve.
	a := convectionDiffusion(40, 0.3)
	b := make([]float64, 40)
	for i := range b {
		b[i] = 1
	}
	for _, name := range []string{"bicg", "bicgstab", "cgs"} {
		p := planFor(a, b, 4)
		res := Solve(p, New(name, p), 1e-9, 300)
		p.Drain()
		if !res.Converged || res.Breakdown != nil {
			t.Fatalf("%s on healthy system: %+v", name, res)
		}
	}
}

func TestFaultCheckpointRestoreRoundtrip(t *testing.T) {
	a := sparse.Laplacian2D(5, 5)
	b := make([]float64, 25)
	for i := range b {
		// A spectrally rich right-hand side: the all-ones vector excites so
		// few eigenmodes on a tiny symmetric Laplacian that CG converges in
		// a handful of steps and the roundtrip check goes vacuous.
		b[i] = float64(i%7) + 0.25*float64(i)
	}
	p := planFor(a, b, 2)
	s := NewCG(p)
	RunIterations(s, 3)
	p.Drain()
	ckpt := p.CheckpointSol()
	saved := append([]float64{}, p.VecData(core.SOL, 0)...)

	RunIterations(s, 3)
	p.Drain()
	if maxAbsDiff(saved, p.VecData(core.SOL, 0)) == 0 {
		t.Fatal("iterating did not move the solution; roundtrip test is vacuous")
	}
	p.RestoreSol(ckpt)
	if d := maxAbsDiff(saved, p.VecData(core.SOL, 0)); d != 0 {
		t.Fatalf("restored solution off by %g", d)
	}
	// The checkpoint is a snapshot, not an alias: later restores are
	// unaffected by solver progress after CheckpointSol.
	if maxAbsDiff(ckpt[0], p.VecData(core.SOL, 0)[:len(ckpt[0])]) != 0 {
		t.Fatal("checkpoint does not match restored data")
	}
}

func TestFaultSolveResilientCleanRun(t *testing.T) {
	// Without any faults SolveResilient must behave like Solve: converge,
	// verify, and report zero restarts.
	a := sparse.Laplacian2D(6, 6)
	b := make([]float64, 36)
	for i := range b {
		b[i] = float64(i%5) + 1
	}
	want := denseSolve(a, b)
	p := planFor(a, b, 4)
	res := SolveResilient(p, NewCG(p), ResilientConfig{
		Tol: 1e-10, MaxIter: 300, CheckpointEvery: 10,
	})
	p.Drain()
	if !res.Converged || res.Restarts != 0 || res.RecoveredFailures != 0 {
		t.Fatalf("clean resilient run: %+v", res)
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints taken")
	}
	if d := maxAbsDiff(p.VecData(core.SOL, 0), want); d > 1e-8 {
		t.Fatalf("solution off by %g", d)
	}

	// The cycle-based solvers keep x at the last restart boundary while a
	// cycle is open, so a driver that recomputes ‖b − Ax‖ before letting
	// the solver finish its cycle rejects a good candidate against a stale
	// x and iterates on. A fault-free recovery-enabled solve must instead
	// stop where the plain solve of the same system stops, having rejected
	// exactly the candidates the plain solve rejected.
	nx, seed := int64(48), int64(3)
	if testing.Short() {
		nx, seed = 32, 7
	}
	a = sparse.Laplacian2D(nx, nx)
	rng := rand.New(rand.NewSource(seed))
	b = make([]float64, nx*nx)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	for _, name := range []string{"gmres", "pgmres", "gcrodr"} {
		t.Run(name, func(t *testing.T) {
			run := func(checkpointEvery int) (ResilientResult, int) {
				p := planFor(a, b, 8)
				rejected := 0
				res := SolveResilient(p, New(name, p), ResilientConfig{
					Tol: 1e-8, MaxIter: 5000, CheckpointEvery: checkpointEvery,
					Log: func(format string, _ ...any) {
						if strings.Contains(format, "continuing") {
							rejected++
						}
					},
				})
				p.Drain()
				if !res.Converged || res.Restarts != 0 || res.TrueResidual > 1e-8 {
					t.Fatalf("checkpoint-every %d: %+v", checkpointEvery, res)
				}
				return res, rejected
			}
			plain, plainRejected := run(0)
			resilient, rejected := run(50)
			if resilient.Iterations != plain.Iterations {
				t.Errorf("resilient solve stopped at iteration %d, plain at %d", resilient.Iterations, plain.Iterations)
			}
			if rejected != plainRejected {
				t.Errorf("resilient solve rejected %d candidate(s), plain %d", rejected, plainRejected)
			}
			if resilient.Checkpoints == 0 {
				t.Error("no checkpoints taken")
			}
		})
	}
}

func TestFaultSolveResilientRecoversFromInjectedPanics(t *testing.T) {
	// The acceptance scenario: CG on an SPD stencil with 4% injected
	// panics — about two a solve, at the 47 grouped launches a plain
	// solve of this system makes. Retries absorb transient faults on idempotent tasks;
	// permanent failures on read-modify-write tasks poison the residual
	// and are recovered by checkpoint rollback.
	a := sparse.Laplacian2D(8, 8)
	b := make([]float64, 64)
	for i := range b {
		b[i] = 1
	}
	p := planFor(a, b, 4)
	rt := p.Runtime()
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, PanicRate: 0.04}))
	rt.DefaultSession().SetMaxAttempts(3)

	res := SolveResilient(p, NewCG(p), ResilientConfig{
		Tol: 1e-8, MaxIter: 2000, CheckpointEvery: 5, MaxRestarts: 100,
	})
	p.Drain()
	if !res.Converged {
		t.Fatalf("resilient CG did not converge under 4%% panics: %+v (runtime: %v)",
			res, rt.Err())
	}
	// The tolerance was verified against the TRUE residual, so the
	// solution itself must be good regardless of what failed on the way.
	x := p.VecData(core.SOL, 0)
	r := make([]float64, len(b))
	sparse.SpMV(a, r, x)
	var rr float64
	for i := range r {
		d := b[i] - r[i]
		rr += d * d
	}
	if tr := math.Sqrt(rr); tr > 1e-8 {
		t.Fatalf("true residual %g past tolerance", tr)
	}
	st := rt.Stats()
	if st.Retries == 0 && res.Restarts == 0 {
		t.Fatalf("no recovery machinery engaged — injection inert? stats %+v, result %+v", st, res)
	}
	t.Logf("recovered: %d retries, %d permanent failures, %d restarts, %d checkpoints",
		st.Retries, res.RecoveredFailures, res.Restarts, res.Checkpoints)
}

func TestFaultSolveWithoutRecoveryAborts(t *testing.T) {
	// The counterpart: the same fault plan with retries and restarts
	// disabled must NOT converge — a permanent failure poisons the
	// residual dataflow and the plain driver stops on NaN.
	a := sparse.Laplacian2D(8, 8)
	b := make([]float64, 64)
	for i := range b {
		b[i] = 1
	}
	p := planFor(a, b, 4)
	rt := p.Runtime()
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, PanicRate: 0.04}))

	res := Solve(p, NewCG(p), 1e-8, 2000)
	p.Drain()
	if res.Converged {
		t.Fatalf("unprotected solve converged despite injected faults: %+v", res)
	}
	if rt.Err() == nil {
		t.Fatal("no task failure recorded — injection inert, test is vacuous")
	}
}

func TestFaultSolveResilientNaNCorruption(t *testing.T) {
	// Silent NaN corruption raises no error; detection must come from the
	// resilient driver's residual checks, recovery from rollback.
	a := sparse.Laplacian2D(6, 6)
	b := make([]float64, 36)
	for i := range b {
		b[i] = 1
	}
	p := planFor(a, b, 4)
	rt := p.Runtime()
	// Corrupt only a handful of scalar results, then stop, so the run can
	// finish once the injector's budget is spent.
	rt.DefaultSession().SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 3, NaNRate: 0.02, MaxFaults: 5}))

	res := SolveResilient(p, NewCG(p), ResilientConfig{
		Tol: 1e-8, MaxIter: 2000, CheckpointEvery: 5, MaxRestarts: 100,
	})
	p.Drain()
	if !res.Converged {
		t.Fatalf("resilient CG did not converge under NaN corruption: %+v", res)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("silent corruption must not surface as a task error: %v", err)
	}
}

// A resilience mode observes the program; it does not replace it. For
// each solver, a traced plain solve over 8 small pieces and the same solve
// under a fault plan that never fires launch the same graph: the same
// task names in the same order, so the same count per name, and the same
// dependence edges. With SDC detection on the names and counts are the
// plain solve's too; the checksum references add edges.
func TestFaultFreePlanLaunchesPlainGraph(t *testing.T) {
	const side, pieces, tol = 32, 8, 1e-10
	for _, name := range []string{"cg", "bicg", "bicgstab", "gmres"} {
		t.Run(name, func(t *testing.T) {
			a := confBase(side, wantsSPD(name))
			run := func(mode string) taskrt.Graph {
				p := planFor(a, fusedRHS(side*side), pieces)
				p.SetTracing(true)
				switch mode {
				case "faults":
					p.Session().SetFaultInjector(fault.NewInjector(fault.Plan{
						Seed: 1, PanicRate: 1, Names: []string{"no.such.task"},
					}))
				case "sdc":
					p.EnableSDCDetection()
				}
				Solve(p, New(name, p), tol, 3000)
				p.Drain()
				return p.Session().Graph()
			}
			plain, faulted, checked := run("plain"), run("faults"), run("sdc")
			counts := func(g taskrt.Graph) map[string]int {
				c := map[string]int{}
				for _, n := range g.Nodes {
					c[n.Name]++
				}
				return c
			}
			want := counts(plain)
			for mode, g := range map[string]taskrt.Graph{"fault plan": faulted, "sdc": checked} {
				if got := counts(g); !maps.Equal(got, want) {
					t.Errorf("%s: %d tasks %v, plain solve %d tasks %v", mode, g.Len(), got, plain.Len(), want)
				}
			}
			if faulted.Len() != plain.Len() {
				return
			}
			for i, n := range faulted.Nodes {
				w := plain.Nodes[i]
				if n.Name != w.Name || !slices.Equal(n.Deps, w.Deps) || !slices.Equal(n.DepBytes, w.DepBytes) {
					t.Fatalf("fault plan: task %d is %s after %v (%v bytes), plain solve %s after %v (%v bytes)",
						i, n.Name, n.Deps, n.DepBytes, w.Name, w.Deps, w.DepBytes)
				}
			}
		})
	}
}

// A seeded bit-flip run under SDC detection and checkpointing repeats to
// the iteration: the driver drains before it takes the alarms, so every
// task of the steps already launched has raised its own, and the run acts
// on the same alarms at the same iterations whatever the workers' timing.
// The system is mmsolve's `-solver cg -pieces 8 -faults
// "bitflip=0.08,bit=52,seed=2,max=6" -checkpoint-every 10 -detect-sdc
// lap2d:32x32`.
func TestSeededSDCRunRepeats(t *testing.T) {
	const side, pieces = 32, 8
	a := sparse.Laplacian2D(side, side)
	ones := make([]float64, side*side)
	for i := range ones {
		ones[i] = 1
	}
	type outcome struct {
		iters, alarms int64
		alarmIters    string
		converged     bool
	}
	run := func() outcome {
		b := make([]float64, side*side)
		sparse.SpMV(a, b, ones)
		p := planFor(a, b, pieces)
		plan, err := fault.ParsePlan("bitflip=0.08,bit=52,seed=2,max=6")
		if err != nil {
			t.Fatal(err)
		}
		p.Session().SetFaultInjector(fault.NewInjector(plan))
		p.EnableSDCDetection()
		var at []string
		res := SolveResilient(p, New("cg", p), ResilientConfig{
			Tol: 1e-8, MaxIter: 10000, CheckpointEvery: 10, MaxRestarts: 3, DetectSDC: true,
			Log: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.Contains(line, "sdc alarm") {
					at = append(at, line)
				}
			},
		})
		p.Drain()
		return outcome{int64(res.Iterations), res.SDCAlarms, strings.Join(at, "\n"), res.Converged}
	}
	first := run()
	if first.alarms == 0 || !first.converged {
		t.Fatalf("seeded run raised %d alarms, converged %v; want alarms and convergence", first.alarms, first.converged)
	}
	for i := 1; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %d iterations, %d alarms:\n%s\nrun 0: %d iterations, %d alarms:\n%s",
				i, got.iters, got.alarms, got.alarmIters, first.iters, first.alarms, first.alarmIters)
		}
	}
}
