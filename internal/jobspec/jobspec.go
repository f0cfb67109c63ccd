// Package jobspec defines the solve-job specification shared by the
// one-shot CLI (cmd/mmsolve) and the job server (cmd/mmserve): the
// parameters of one A·x = b solve, their defaults, and one validation
// routine both front ends apply before any planner is built. A flag
// combination the CLI rejects with exit 2 is exactly a request body the
// server rejects with 400 — same checks, same messages.
package jobspec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// Spec is one solve job. The zero value is not valid; start from
// Default.
type Spec struct {
	// Matrix is a Matrix Market path or a generated-stencil spec like
	// "lap2d:64x64".
	Matrix string `json:"matrix"`
	// Solver names the Krylov method (solvers.Names).
	Solver string `json:"solver"`
	// Format is the operator storage format, or "auto" for per-band
	// adaptive selection.
	Format string `json:"format"`
	// RHS selects the right-hand side: "Aones" (b = A·1, exact solution
	// all ones), "ones" (b = 1), or "rand:SEED" (deterministic uniform
	// entries in [-1, 1)).
	RHS string `json:"rhs"`
	// Tol is the residual tolerance; MaxIter the iteration budget;
	// Pieces the vector partition width (1 to 65 536; a solve cuts its
	// vectors at 64-point leaf boundaries, so it uses at most one piece
	// per 64 rows).
	Tol     float64 `json:"tol"`
	MaxIter int     `json:"maxiter"`
	Pieces  int     `json:"pieces"`

	// Faults is a fault-injection plan (see fault.ParsePlan); empty
	// disables injection.
	Faults string `json:"faults,omitempty"`
	// Retries is execution attempts per idempotent task (0 or 1
	// disables retry; at most maxRetries). A failed attempt is re-run at
	// once on the same worker.
	Retries int `json:"retries,omitempty"`
	// CheckpointEvery > 0 turns the driver's recovery on, checkpointing
	// every N iterations; MaxRestarts bounds its rollbacks (<= 0
	// disables them).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	MaxRestarts     int `json:"max_restarts,omitempty"`
	// DetectSDC enables ABFT checksummed kernels.
	DetectSDC bool `json:"detect_sdc,omitempty"`
	// Watchdog flags tasks running past this wall-clock budget as
	// stragglers (0 disables).
	Watchdog time.Duration `json:"watchdog,omitempty"`
}

// Default returns the specification both front ends start from — the
// historical mmsolve flag defaults.
func Default() Spec {
	return Spec{
		Solver:      "bicgstab",
		Format:      "csr",
		RHS:         "Aones",
		Tol:         1e-8,
		MaxIter:     10000,
		Pieces:      8,
		MaxRestarts: 3,
	}
}

// KnownSolver reports whether the name is a served method: one of
// solvers.Names, the list solvers.New constructs from.
func KnownSolver(name string) bool {
	return slices.Contains(solvers.Names, name)
}

// maxPieces bounds Spec.Pieces: a partition allocates one interval set per
// color and the planner derives per-color kernel and halo sets from it, so
// the width is a resource a client names. Small pieces are cheap to run
// (the planner launches them by the grain), not to plan.
const maxPieces = 1 << 16

// maxRetries bounds Spec.Retries: under a sticky fault plan every
// retryable task re-runs its body that many times on a shared worker,
// so the count is a resource a client names too.
const maxRetries = 8

// Validate checks every parameter against its domain and returns all
// violations joined into one error (errors.Join), or nil. Front ends
// treat a non-nil result as a usage error: exit 2 from the CLI, HTTP
// 400 from the server. Validation is pure — no file access — so a
// matrix path that does not exist fails at load time (a runtime error,
// exit 1), not here; a malformed stencil spec fails here.
func (s *Spec) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if s.Matrix == "" {
		fail("matrix is required (a .mtx path or lap2d:NXxNY)")
	} else if spec, ok := strings.CutPrefix(s.Matrix, "lap2d:"); ok {
		if _, _, err := ParseLap2D(spec); err != nil {
			errs = append(errs, err)
		}
	}
	if !KnownSolver(s.Solver) {
		fail("unknown solver %q (valid: %s)", s.Solver, strings.Join(solvers.Names, ", "))
	}
	if _, ok := sparse.CanonicalFormat(s.Format); !ok {
		fail("unknown format %q (valid: %s, auto)", s.Format, strings.Join(sparse.Formats, ", "))
	}
	if err := validRHS(s.RHS); err != nil {
		errs = append(errs, err)
	}
	if !(s.Tol > 0) || math.IsInf(s.Tol, 0) { // rejects NaN, 0, negatives, Inf
		fail("tol must be a positive finite number, got %g", s.Tol)
	}
	if s.MaxIter < 1 {
		fail("maxiter must be at least 1, got %d", s.MaxIter)
	}
	if s.Pieces < 1 {
		fail("pieces must be at least 1, got %d", s.Pieces)
	} else if s.Pieces > maxPieces {
		fail("pieces must be at most %d, got %d", maxPieces, s.Pieces)
	}
	if s.Faults != "" {
		if _, err := fault.ParsePlan(s.Faults); err != nil {
			errs = append(errs, err)
		}
	}
	if s.Retries < 0 {
		fail("retries must not be negative, got %d", s.Retries)
	} else if s.Retries > maxRetries {
		fail("retries must be at most %d, got %d", maxRetries, s.Retries)
	}
	if s.CheckpointEvery < 0 {
		fail("checkpoint-every must not be negative, got %d", s.CheckpointEvery)
	}
	if s.Watchdog < 0 {
		fail("watchdog must not be negative, got %v", s.Watchdog)
	}
	return errors.Join(errs...)
}

// validRHS checks the right-hand-side selector.
func validRHS(rhs string) error {
	switch rhs {
	case "Aones", "ones":
		return nil
	}
	if seed, ok := strings.CutPrefix(rhs, "rand:"); ok {
		if _, err := strconv.ParseInt(seed, 10, 64); err == nil {
			return nil
		}
		return fmt.Errorf("bad rhs %q: rand wants an integer seed (rand:42)", rhs)
	}
	return fmt.Errorf("rhs must be Aones, ones, or rand:SEED, got %q", rhs)
}

// ParseLap2D parses the dimensions of a "lap2d:NXxNY" stencil spec
// (the part after the colon). Both must be positive, and the grid's CSR
// (5 entries a row at 16 bytes plus an 8-byte row pointer: 88·n + 8
// bytes) must fit the bound every named conversion enforces,
// sparse.MaxStoredBytes. The largest square is 3493 × 3493.
func ParseLap2D(dims string) (nx, ny int64, err error) {
	sx, sy, ok := strings.Cut(dims, "x")
	if ok {
		var e1, e2 error
		nx, e1 = strconv.ParseInt(sx, 10, 64)
		ny, e2 = strconv.ParseInt(sy, 10, 64)
		if e1 == nil && e2 == nil && nx > 0 && ny > 0 {
			if nx > (sparse.MaxStoredBytes-8)/88/ny { // 88·nx·ny + 8 > bound, without forming the product
				return 0, 0, fmt.Errorf("stencil %q too large: its CSR needs %.3g bytes, above the bound of %d",
					"lap2d:"+dims, 88*float64(nx)*float64(ny)+8, int64(sparse.MaxStoredBytes))
			}
			return nx, ny, nil
		}
	}
	return 0, 0, fmt.Errorf("bad stencil spec %q, want lap2d:NXxNY", "lap2d:"+dims)
}

// LoadMatrix reads a Matrix Market file, or generates a 5-point 2D
// Laplacian stencil when the argument has the form "lap2d:NXxNY" —
// handy for jobs that should not depend on a matrix file being around.
func LoadMatrix(arg string) (*sparse.CSR, error) {
	if dims, ok := strings.CutPrefix(arg, "lap2d:"); ok {
		nx, ny, err := ParseLap2D(dims)
		if err != nil {
			return nil, err
		}
		return sparse.Laplacian2D(nx, ny), nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sparse.ReadMatrixMarket(f)
}

// MatrixFree returns the matrix-free operator of a generated matrix — the
// 5-point stencil of "lap2d:NXxNY", equal entry for entry to the CSR
// LoadMatrix builds — or nil when arg names a file or no valid stencil.
func MatrixFree(arg string) *sparse.StencilOperator {
	dims, ok := strings.CutPrefix(arg, "lap2d:")
	if !ok {
		return nil
	}
	nx, ny, err := ParseLap2D(dims)
	if err != nil {
		return nil
	}
	return sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(nx, ny))
}

// BuildRHS materializes the spec's right-hand side for an n×n matrix a.
// Call Validate first; an invalid selector panics here.
func (s *Spec) BuildRHS(a sparse.Matrix, n int) []float64 {
	b := make([]float64, n)
	switch {
	case s.RHS == "Aones":
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		sparse.SpMV(a, b, ones)
	case s.RHS == "ones":
		for i := range b {
			b[i] = 1
		}
	case strings.HasPrefix(s.RHS, "rand:"):
		seed, err := strconv.ParseInt(strings.TrimPrefix(s.RHS, "rand:"), 10, 64)
		if err != nil {
			panic(fmt.Sprintf("jobspec: unvalidated rhs %q", s.RHS))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
	default:
		panic(fmt.Sprintf("jobspec: unvalidated rhs %q", s.RHS))
	}
	return b
}
