package kdrsolvers

// The benchmark harness regenerating every figure of the paper's
// evaluation (Section 6), plus the ablations DESIGN.md calls out and real
// (non-simulated) microbenchmarks of the computational substrates.
//
// Figure benchmarks report the simulated per-iteration time of the
// modeled 64-GPU cluster as the custom metric "sim-sec/iter"; the Go
// ns/op column measures the harness itself and is not the experiment.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and the paper-scale sweeps with cmd/fig8 -paper, cmd/fig9 -paper, and
// cmd/fig10.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"kdrsolvers/internal/assemble"

	"kdrsolvers/internal/baseline"
	"kdrsolvers/internal/core"
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/figures"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sim"
	"kdrsolvers/internal/solvers"
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

// BenchmarkSpMVFormats measures the real (not simulated) multiply-add
// kernels of every storage format on the same stencil matrix — the
// Figure 3 zoo exercised for actual throughput.
func BenchmarkSpMVFormats(b *testing.B) {
	// 64 x 64 keeps the Dense variant (n² entries) within reason.
	csr := sparse.Laplacian2D(64, 64)
	n := csr.Domain().Size()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	for _, f := range sparse.Formats {
		mat := sparse.Convert(csr, f)
		b.Run(f, func(b *testing.B) {
			b.SetBytes(mat.NNZ() * 16)
			for i := 0; i < b.N; i++ {
				sparse.MultiplyAdd(mat, y, x)
			}
		})
	}
	b.Run("MatrixFree", func(b *testing.B) {
		op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(64, 64))
		b.SetBytes(op.NNZ() * 16)
		for i := 0; i < b.N; i++ {
			sparse.MultiplyAdd(op, y, x)
		}
	})
}

// BenchmarkProjections measures the dependent-partitioning operators on a
// paper-scale matrix-free stencil: the cost of deriving the kernel and
// halo partitions from a range partition.
func BenchmarkProjections(b *testing.B) {
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(1<<14, 1<<14))
	part := index.EqualPartition(op.Range(), 64)
	b.Run("RowRToK+ColKToD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kp := dpart.RowRToK(op.RowRelation(), part)
			_ = dpart.ColKToD(op.ColRelation(), kp)
		}
	})
	csr := sparse.Laplacian2D(512, 512)
	cpart := index.EqualPartition(csr.Range(), 16)
	b.Run("CSR/MatVecInput", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dpart.MatVecInputPartition(csr.RowRelation(), csr.ColRelation(), cpart)
		}
	})
}

// BenchmarkRuntimeLaunch measures the real task runtime: launch + analysis
// + scheduling throughput for a CG-shaped dependence pattern, with the
// dependence analysis run in full every iteration ("replay=off") and
// memoized by trace replay ("replay=on"). The replay=on case warms the
// trace through record and calibrate before the timer starts, so the
// timed region is pure steady-state splicing.
func BenchmarkRuntimeLaunch(b *testing.B) {
	m := machine.Lassen(1)
	a := sparse.Laplacian2D(64, 64)
	n := a.Domain().Size()
	for _, tracing := range []bool{false, true} {
		name := "cg-step-real/replay=off"
		if tracing {
			name = "cg-step-real/replay=on"
		}
		b.Run(name, func(b *testing.B) {
			p := core.NewPlanner(core.Config{Machine: m})
			si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), 4))
			ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), 4))
			p.AddOperator(a, si, ri)
			p.Finalize()
			p.SetTracing(tracing)
			s := solvers.NewCG(p)
			for i := 0; i < 3; i++ {
				s.Step() // warm: record, calibrate, first replay
			}
			p.Drain()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			p.Drain()
		})
	}
}

// BenchmarkSimulator measures discrete-event simulation throughput on a
// realistic solver graph.
func BenchmarkSimulator(b *testing.B) {
	m := machine.Lassen(16)
	p := core.NewPlanner(core.Config{Machine: m, Virtual: true})
	n := int64(1) << 24
	op := sparse.NewStencilOperator(sparse.Stencil2D5, sparse.Stencil2D5.GridFor(n))
	si := p.AddSolVectorVirtual(n, index.EqualPartition(index.NewSpace("D", n), 64))
	ri := p.AddRHSVectorVirtual(n, index.EqualPartition(index.NewSpace("R", n), 64))
	p.AddOperator(op, si, ri)
	p.Finalize()
	s := solvers.NewCG(p)
	solvers.RunIterations(s, 10)
	p.Drain()
	g := p.Runtime().Graph()
	opts := sim.Options{TaskOverhead: figures.KDRTaskOverhead, TracedOverhead: figures.KDRTracedOverhead}
	b.Run(fmt.Sprintf("tasks=%d", g.Len()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sim.Simulate(g, m, opts)
		}
	})
}

// BenchmarkAssembly measures the concurrent matrix builder: raw
// contribution throughput and the merge into CSR.
func BenchmarkAssembly(b *testing.B) {
	const n = 128
	b.Run("add-and-finish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bd := assemble.NewBuilder(n*n, n*n, 8)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				w := w
				go func() {
					defer wg.Done()
					for r := int64(w); r < n*n; r += 8 {
						bd.Add(r, r, 4)
						if r+1 < n*n {
							bd.Add(r, r+1, -1)
						}
					}
				}()
			}
			wg.Wait()
			_ = bd.Finish()
		}
	})
}

// BenchmarkMatrixMarket measures the I/O round trip for a mid-size
// stencil matrix.
func BenchmarkMatrixMarket(b *testing.B) {
	a := sparse.Laplacian2D(128, 128)
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := sparse.WriteMatrixMarket(&w, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := sparse.ReadMatrixMarket(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
