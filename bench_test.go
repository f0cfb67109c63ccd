package kdrsolvers

// Regenerators for every figure of the paper's evaluation (Section 6)
// and the ablations DESIGN.md calls out — simulated only. Each reports
// the deterministic simulated per-iteration time of the modeled 64-GPU
// cluster as the custom metric "sim-sec/iter"; the Go ns/op column
// measures the harness itself and is not the experiment. A wall-clock
// number comes from one place, `go run ./benchmark`. Run everything with:
//
//	go test -bench=. -benchmem
//
// and the paper-scale sweeps with cmd/fig8 -paper, cmd/fig9 -paper, and
// cmd/fig10.

import (
	"fmt"
	"testing"

	"kdrsolvers/internal/baseline"
	"kdrsolvers/internal/figures"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sparse"
)

// benchWarmup/benchTimed keep each configuration fast; the simulator is
// deterministic, so short runs measure the same per-iteration cost as the
// paper's 20+200 protocol.
const (
	benchWarmup = 3
	benchTimed  = 6
)

// reportSim attaches the simulated measurement to the benchmark output.
func reportSim(b *testing.B, m figures.Measurement) {
	b.ReportMetric(m.SecondsPerIter, "sim-sec/iter")
	b.ReportMetric(m.CommBytesPerIter/1e6, "sim-MB/iter")
	b.ReportMetric(m.TasksPerIter, "tasks/iter")
}

// BenchmarkFig8 regenerates the Figure 8 grid: every (stencil, solver,
// library) cell at a representative large size, plus a size sweep for the
// 5-point/CG cell. PETSc is skipped for GMRES exactly as in the paper.
func BenchmarkFig8(b *testing.B) {
	m := machine.Lassen(16)
	const n = int64(1) << 26
	for _, st := range figures.Fig8Stencils {
		for _, sv := range figures.Fig8Solvers {
			b.Run(fmt.Sprintf("%s/%s/KDR", st, sv), func(b *testing.B) {
				var meas figures.Measurement
				for i := 0; i < b.N; i++ {
					meas = figures.KDRIterTime(m, st, n, sv, benchWarmup, benchTimed,
						figures.KDROptions{Tracing: true})
				}
				reportSim(b, meas)
			})
			if sv != "gmres" {
				b.Run(fmt.Sprintf("%s/%s/PETSc", st, sv), func(b *testing.B) {
					var meas figures.Measurement
					for i := 0; i < b.N; i++ {
						meas = figures.BaselineIterTime(baseline.PETSc(), m, st, n, sv,
							benchWarmup, benchTimed)
					}
					reportSim(b, meas)
				})
			}
			b.Run(fmt.Sprintf("%s/%s/Trilinos", st, sv), func(b *testing.B) {
				var meas figures.Measurement
				for i := 0; i < b.N; i++ {
					meas = figures.BaselineIterTime(baseline.Trilinos(), m, st, n, sv,
						benchWarmup, benchTimed)
				}
				reportSim(b, meas)
			})
		}
	}
}

// BenchmarkFig8Sizes sweeps problem size for the 5-point/CG subplot —
// the size axis of Figure 8.
func BenchmarkFig8Sizes(b *testing.B) {
	m := machine.Lassen(16)
	for e := 20; e <= 32; e += 4 {
		n := int64(1) << e
		for _, lib := range []string{"KDR", "PETSc", "Trilinos"} {
			b.Run(fmt.Sprintf("n=2^%d/%s", e, lib), func(b *testing.B) {
				var meas figures.Measurement
				for i := 0; i < b.N; i++ {
					switch lib {
					case "KDR":
						meas = figures.KDRIterTime(m, sparse.Stencil2D5, n, "cg",
							benchWarmup, benchTimed, figures.KDROptions{Tracing: true})
					case "PETSc":
						meas = figures.BaselineIterTime(baseline.PETSc(), m,
							sparse.Stencil2D5, n, "cg", benchWarmup, benchTimed)
					default:
						meas = figures.BaselineIterTime(baseline.Trilinos(), m,
							sparse.Stencil2D5, n, "cg", benchWarmup, benchTimed)
					}
				}
				reportSim(b, meas)
			})
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: single- versus multi-operator
// BiCGStab below and above the crossover.
func BenchmarkFig9(b *testing.B) {
	m := machine.Lassen(64)
	for _, e := range []int{10, 16} {
		n := int64(1) << uint(2*e)
		b.Run(fmt.Sprintf("grid=2^%dx2^%d/single", e, e), func(b *testing.B) {
			var meas figures.Measurement
			for i := 0; i < b.N; i++ {
				meas = figures.KDRIterTime(m, sparse.Stencil2D5, n, "bicgstab",
					benchWarmup, benchTimed, figures.KDROptions{Tracing: true})
			}
			reportSim(b, meas)
		})
		b.Run(fmt.Sprintf("grid=2^%dx2^%d/multi", e, e), func(b *testing.B) {
			var meas figures.Measurement
			for i := 0; i < b.N; i++ {
				meas = figures.MeasurePlanner(figures.SplitPlanner(m, e, m.NumProcs()),
					"bicgstab", benchWarmup, benchTimed, figures.KDROptions{Tracing: true})
			}
			reportSim(b, meas)
		})
	}
}

// BenchmarkFig10 regenerates Figure 10 at a reduced scale: total CG time
// under a stochastic background load with and without dynamic
// load-balancing. The full-scale run is cmd/fig10.
func BenchmarkFig10(b *testing.B) {
	cfg := figures.Fig10Config{
		GridExp: 12, Nodes: 8, Pieces: 16, Iters: 60,
		RebalanceEvery: 10, RandomizeEvery: 30, Beta: 300, Seed: 3,
	}
	b.Run("static-vs-dynamic", func(b *testing.B) {
		var r figures.Fig10Result
		for i := 0; i < b.N; i++ {
			r = figures.Fig10(cfg)
		}
		b.ReportMetric(r.StaticTotal, "sim-static-sec")
		b.ReportMetric(r.DynamicTotal, "sim-dynamic-sec")
		b.ReportMetric(100*r.Reduction, "reduction-%")
	})
}

// BenchmarkAblationTracing isolates the dynamic-trace memoization of
// Section 4.1: the same problem with and without trace replay.
func BenchmarkAblationTracing(b *testing.B) {
	m := machine.Lassen(16)
	n := int64(1) << 20
	for _, tr := range []bool{true, false} {
		name := "traced"
		if !tr {
			name = "untraced"
		}
		b.Run(name, func(b *testing.B) {
			var meas figures.Measurement
			for i := 0; i < b.N; i++ {
				meas = figures.KDRIterTime(m, sparse.Stencil2D5, n, "cg",
					benchWarmup, benchTimed, figures.KDROptions{Tracing: tr})
			}
			reportSim(b, meas)
		})
	}
}

// BenchmarkAblationOverlap replays the identical task graph under the
// overlapping and the bulk-synchronous scheduler — the P1 mechanism.
func BenchmarkAblationOverlap(b *testing.B) {
	m := machine.Lassen(16)
	n := int64(1) << 28
	for _, bsp := range []bool{false, true} {
		name := "task-overlap"
		if bsp {
			name = "bulk-synchronous"
		}
		b.Run(name, func(b *testing.B) {
			var meas figures.Measurement
			for i := 0; i < b.N; i++ {
				meas = figures.KDRIterTime(m, sparse.Stencil3D27, n, "cg",
					benchWarmup, benchTimed, figures.KDROptions{Tracing: true, BSP: bsp})
			}
			reportSim(b, meas)
		})
	}
}

// BenchmarkAblationPieces sweeps the canonical-partition granularity
// (the -vp flag of the artifact's BenchmarkStencil).
func BenchmarkAblationPieces(b *testing.B) {
	m := machine.Lassen(4)
	n := int64(1) << 22
	for _, vp := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("vp=%d", vp), func(b *testing.B) {
			var meas figures.Measurement
			for i := 0; i < b.N; i++ {
				meas = figures.KDRIterTime(m, sparse.Stencil2D5, n, "cg",
					benchWarmup, benchTimed, figures.KDROptions{Tracing: true, VP: vp})
			}
			reportSim(b, meas)
		})
	}
}
