package jobspec

import (
	"strings"
	"testing"

	"kdrsolvers/internal/solvers"
)

func TestDefaultValidates(t *testing.T) {
	s := Default()
	s.Matrix = "lap2d:8x8"
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

// -pieces 0, -maxiter -1 and -retries -1 must each be rejected, and all
// violations must be reported together in one pass, not one per
// invocation.
func TestValidateJoinsAllViolations(t *testing.T) {
	s := Default()
	s.Matrix = "lap2d:8x8"
	s.Pieces = 0
	s.MaxIter = -1
	s.Retries = -1
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{
		"pieces must be at least 1, got 0",
		"maxiter must be at least 1, got -1",
		"retries must not be negative, got -1",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no matrix", func(s *Spec) { s.Matrix = "" }, "matrix is required"},
		{"bad stencil", func(s *Spec) { s.Matrix = "lap2d:8" }, "bad stencil spec"},
		{"zero stencil", func(s *Spec) { s.Matrix = "lap2d:0x8" }, "bad stencil spec"},
		{"stencil product wraps to zero", func(s *Spec) { s.Matrix = "lap2d:4294967296x4294967296" }, "too large"},
		{"stencil product wraps negative", func(s *Spec) { s.Matrix = "lap2d:3037000500x3037000500" }, "too large"},
		{"stencil one past the cap", func(s *Spec) { s.Matrix = "lap2d:2147483648x1" }, "too large"},
		{"stencil of 1e10 unknowns", func(s *Spec) { s.Matrix = "lap2d:100000x100000" }, "too large"},
		{"stencil of 2^31 - 1 unknowns", func(s *Spec) { s.Matrix = "lap2d:1x2147483647" }, "too large"},
		{"stencil of 1.9e11 CSR bytes", func(s *Spec) { s.Matrix = "lap2d:46340x46340" }, "too large"},
		{"square stencil one past the byte bound", func(s *Spec) { s.Matrix = "lap2d:3494x3494" }, "too large"},
		{"stencil one point past the byte bound", func(s *Spec) { s.Matrix = "lap2d:1x12201612" }, "too large"},
		{"unknown solver", func(s *Spec) { s.Solver = "sor" }, "unknown solver"},
		{"unfused ablation solver", func(s *Spec) { s.Solver = "cg-unfused" }, "unknown solver"},
		{"unknown format", func(s *Spec) { s.Format = "hyb" }, "unknown format"},
		{"bad rhs", func(s *Spec) { s.RHS = "zeros" }, "rhs must be"},
		{"bad rand seed", func(s *Spec) { s.RHS = "rand:x" }, "integer seed"},
		{"too many pieces", func(s *Spec) { s.Pieces = maxPieces + 1 }, "pieces must be at most 65536"},
		{"zero tol", func(s *Spec) { s.Tol = 0 }, "tol must be"},
		{"negative tol", func(s *Spec) { s.Tol = -1e-8 }, "tol must be"},
		{"negative retries", func(s *Spec) { s.Retries = -1 }, "retries must not"},
		{"too many retries", func(s *Spec) { s.Retries = maxRetries + 1 }, "retries must be at most 8"},
		{"negative checkpoint", func(s *Spec) { s.CheckpointEvery = -2 }, "checkpoint-every"},
		{"negative watchdog", func(s *Spec) { s.Watchdog = -1 }, "watchdog"},
		{"bad fault plan", func(s *Spec) { s.Faults = "explode=1" }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Default()
			s.Matrix = "lap2d:8x8"
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"auto format", func(s *Spec) { s.Format = "auto" }},
		{"largest square stencil", func(s *Spec) { s.Matrix = "lap2d:3493x3493" }},
		{"stencil at the byte bound", func(s *Spec) { s.Matrix = "lap2d:1x12201611" }},
		{"rand rhs", func(s *Spec) { s.RHS = "rand:42" }},
		{"ones rhs", func(s *Spec) { s.RHS = "ones" }},
		{"mtx path unchecked until load", func(s *Spec) { s.Matrix = "does-not-exist.mtx" }},
		{"resilient", func(s *Spec) { s.CheckpointEvery = 5 }},
		{"fault plan", func(s *Spec) { s.Faults = "panic=0.01,seed=1" }},
		{"retries at the cap", func(s *Spec) { s.Retries = maxRetries }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Default()
			s.Matrix = "lap2d:8x8"
			tc.mut(&s)
			if err := s.Validate(); err != nil {
				t.Fatalf("rejected: %v", err)
			}
		})
	}
}

// KnownSolver is solvers.Names, name for name: what a job may request is
// exactly what solvers.New constructs.
func TestKnownSolverIsSolversNames(t *testing.T) {
	for _, name := range solvers.Names {
		if !KnownSolver(name) {
			t.Errorf("solvers.Names lists %q, KnownSolver rejects it", name)
		}
	}
	for _, name := range []string{"cg-unfused", "pcg-unfused", "bicgstab-unfused", "CG", "sor", ""} {
		if KnownSolver(name) {
			t.Errorf("KnownSolver accepts %q, which solvers.New would panic on", name)
		}
	}
}

func TestBuildRHSDeterministic(t *testing.T) {
	a, err := LoadMatrix("lap2d:6x6")
	if err != nil {
		t.Fatal(err)
	}
	s := Default()
	s.RHS = "rand:7"
	b1 := s.BuildRHS(a, 36)
	b2 := s.BuildRHS(a, 36)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("rand rhs not deterministic at %d: %g vs %g", i, b1[i], b2[i])
		}
	}
}

// The cap itself is a legal width: only what is above it is refused.
func TestValidateAcceptsPiecesAtTheCap(t *testing.T) {
	s := Default()
	s.Matrix = "lap2d:8x8"
	s.Pieces = maxPieces
	if err := s.Validate(); err != nil {
		t.Fatalf("pieces = %d rejected: %v", maxPieces, err)
	}
}
