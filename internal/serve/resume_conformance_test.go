package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// Checkpoint-restore conformance under format "auto": for each method
// × matrix row, a solve interrupted at a persisted checkpoint and
// resumed — from the journal on disk, and from the in-memory
// checkpoint it round-tripped — must agree iteration-for-iteration and
// to ≤ 1e-10 in solution and true residual, and converge like the
// uninterrupted reference.
//
// What "agree" can honestly mean here: checkpoints persist the
// verified solution vector, not the full Krylov state, so a resumed
// run rebuilds its Krylov space from the checkpoint and is NOT
// iteration-for-iteration identical to a never-interrupted run (it
// converges at least as fast from the better initial guess). The
// iteration-exact claim is between the two resumed runs: execution is
// bitwise-deterministic (fixed piece-order reduction combines) and the
// journal's JSON round-trips float64 exactly, so resuming from disk
// must be indistinguishable from never having serialized at all.

// resumeSolvers are the methods the rows cover; all SPD-safe (the
// matrices below are SPD).
var resumeSolvers = []string{"cg", "pipecg", "sstep-cg", "gcrodr"}

// randomSPD builds a scattered symmetric diagonally dominant matrix:
// perRow random symmetric couplings per row, diagonal outweighing each
// row's off-diagonal mass. Same scattered structure the adaptive
// tuner's "random" benchmark matrix has, made SPD for the CG family.
func randomSPD(n int64, perRow int, seed int64) *sparse.CSR {
	r := rand.New(rand.NewSource(seed))
	off := make(map[[2]int64]float64)
	for i := int64(0); i < n; i++ {
		for e := 0; e < perRow; e++ {
			j := r.Int63n(n)
			if j == i {
				continue
			}
			v := r.Float64() - 0.5
			off[[2]int64{i, j}] = v
			off[[2]int64{j, i}] = v
		}
	}
	diag := make([]float64, n)
	for ij, v := range off {
		diag[ij[0]] += math.Abs(v)
	}
	coords := make([]sparse.Coord, 0, len(off)+int(n))
	for i := int64(0); i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: diag[i] + 1})
	}
	for ij, v := range off {
		coords = append(coords, sparse.Coord{Row: ij[0], Col: ij[1], Val: v})
	}
	return sparse.CSRFromCoords(n, n, coords)
}

type resumeMatrix struct {
	name  string
	build func() *sparse.CSR
	big   bool
}

var resumeMatrices = []resumeMatrix{
	{"lap2d-32x32", func() *sparse.CSR { return sparse.Laplacian2D(32, 32) }, false},
	{"random-32768", func() *sparse.CSR { return randomSPD(32768, 4, 42) }, true},
}

func TestResumeConformanceAuto(t *testing.T) {
	rt := taskrt.New()
	defer rt.Drain()
	run := func(a *sparse.CSR, spec jobspec.Spec, opt Options) JobResult {
		sess := rt.NewSession("conf")
		defer sess.Close()
		opt.Session = sess
		return RunSolve(a, spec, opt)
	}

	for _, m := range resumeMatrices {
		if m.big && testing.Short() {
			continue
		}
		a := m.build()
		for _, solver := range resumeSolvers {
			t.Run(m.name+"/"+solver, func(t *testing.T) {
				spec := jobspec.Default()
				spec.Matrix = m.name
				spec.Solver = solver
				spec.Format = "auto"
				spec.Pieces = 8
				spec.CheckpointEvery = 2
				spec.MaxRestarts = 3

				// Uninterrupted reference, capturing every verified
				// checkpoint along the way.
				var cks []ResumePoint
				ref := run(a, spec, Options{
					CheckpointSink: func(iter int, residual float64, x []float64) {
						cks = append(cks, ResumePoint{
							Iter: iter, Residual: residual,
							X: append([]float64(nil), x...),
						})
					},
				})
				if !ref.Converged || ref.Err != "" {
					t.Fatalf("reference solve: %+v", ref)
				}

				// Interrupt at the first mid-flight checkpoint: past
				// iteration 0, not yet converged.
				var mid *ResumePoint
				for i := range cks {
					if cks[i].Iter > 0 && cks[i].Residual > spec.Tol {
						mid = &cks[i]
						break
					}
				}
				if mid == nil {
					t.Fatalf("%s converged before its second checkpoint (iters %d) — no mid-flight state to resume", solver, ref.Iterations)
				}

				// Persist exactly what a crashed server leaves behind, then
				// reopen: the journaled checkpoint must round-trip
				// bit-for-bit (Go's JSON float64 encoding is shortest
				// round-tripping).
				dir := t.TempDir()
				jn, _, err := OpenJournal(dir, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := jn.Accept(1, spec, time.Now()); err != nil {
					t.Fatal(err)
				}
				if err := jn.Checkpoint(1, mid.Iter, mid.Residual, mid.X); err != nil {
					t.Fatal(err)
				}
				jn.Close()
				jn2, rep, err := OpenJournal(dir, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer jn2.Close()
				if len(rep.Pending) != 1 || rep.Pending[0].Resume == nil {
					t.Fatalf("replay = %+v, want one pending job with a resume point", rep)
				}
				disk := rep.Pending[0].Resume
				if disk.Iter != mid.Iter || disk.Residual != mid.Residual {
					t.Fatalf("checkpoint metadata changed on disk: %d/%g vs %d/%g",
						disk.Iter, disk.Residual, mid.Iter, mid.Residual)
				}
				for i := range mid.X {
					if disk.X[i] != mid.X[i] {
						t.Fatalf("checkpoint X[%d] altered by the disk round trip: %x vs %x",
							i, math.Float64bits(disk.X[i]), math.Float64bits(mid.X[i]))
					}
				}

				// Resume twice — from the replayed journal and from memory.
				// Deterministic execution + exact serialization ⇒ the two
				// runs are the same run.
				fromDisk := run(a, spec, Options{Resume: disk})
				fromMem := run(a, spec, Options{Resume: mid})
				for _, r := range []*JobResult{&fromDisk, &fromMem} {
					if !r.Converged || r.Err != "" {
						t.Fatalf("resumed solve: %+v", r)
					}
					if r.TrueResidual > 1.05*spec.Tol {
						t.Fatalf("resumed true residual %g > %g", r.TrueResidual, 1.05*spec.Tol)
					}
					if r.ResumedFrom != mid.Iter {
						t.Fatalf("ResumedFrom = %d, want %d", r.ResumedFrom, mid.Iter)
					}
					if r.Iterations <= mid.Iter {
						t.Fatalf("resumed run reports %d total iterations, not past the checkpoint at %d",
							r.Iterations, mid.Iter)
					}
				}
				if fromDisk.Iterations != fromMem.Iterations {
					t.Fatalf("disk-resumed took %d iterations, memory-resumed %d",
						fromDisk.Iterations, fromMem.Iterations)
				}
				if d := math.Abs(fromDisk.TrueResidual - fromMem.TrueResidual); d > 1e-10 {
					t.Fatalf("true residuals diverge by %g", d)
				}
				for i := range fromDisk.X {
					if d := math.Abs(fromDisk.X[i] - fromMem.X[i]); d > 1e-10 {
						t.Fatalf("solutions diverge at %d by %g", i, d)
					}
				}
				t.Logf("row %s/%s: ref %d iters; resumed at %d -> %d iters, |Δresid| = %.1e, converged ≤ %g",
					m.name, solver, ref.Iterations, mid.Iter, fromDisk.Iterations,
					math.Abs(fromDisk.TrueResidual-fromMem.TrueResidual), spec.Tol)
			})
		}
	}
}
