package main

import (
	"fmt"

	"kdrsolvers/internal/jobspec"
)

// kind selects which driver runs a workload's repetitions.
type kind int

const (
	oneshot       kind = iota // what cmd/mmsolve runs: load, fresh runtime, RunSolve
	servedSolo                // closed loop, one connection, POST /solve?wait=1
	servedBatch               // waves of coalescible jobs, submit then poll
	servedDurable             // closed loop against a WAL-backed server, then a restart
)

// workload is one named set of generated inputs. Matrix sizes are part
// of a workload's identity and never change with the time budget; only
// repetition and job counts do.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	kind kind
	spec jobspec.Spec

	// Served workloads: untimed warm-up jobs, then timed jobs per
	// repetition (solo, durable) or waves × waveJobs (batch).
	warmup   int
	jobs     int
	waves    int
	waveJobs int
	// probeJobs is the job count per connection of the two-connection
	// probe the traced served-solo run adds.
	probeJobs int
	// maxActive overrides serve.Config.MaxActive (0 keeps the default).
	maxActive int

	// minReps repetitions always run, whatever the time budget says.
	minReps int
}

// spec returns the settings every workload shares: tol 1e-8, 8 pieces,
// maxiter 10000 — the mmsolve and mmserve defaults — over the given
// system and method.
func spec(matrix, solver, format string) jobspec.Spec {
	s := jobspec.Default()
	s.Matrix, s.Solver, s.Format = matrix, solver, format
	return s
}

// workloads returns the six workloads at the given scale. "full" is the
// benchmark; "smoke" keeps every code path and shrinks every size so
// the whole suite runs in about a second under go test.
func workloads(scale string) ([]workload, error) {
	large, mid, solo, durable := "lap2d:512x512", "lap2d:256x256", "lap2d:32x32", "lap2d:64x64"
	warm, soloJobs, probeJobs, waves, waveJobs, durJobs, every := 20, 300, 200, 12, 48, 100, 20
	switch scale {
	case "full":
	case "smoke":
		large, mid, solo, durable = "lap2d:24x24", "lap2d:16x16", "lap2d:8x8", "lap2d:12x12"
		warm, soloJobs, probeJobs, waves, waveJobs, durJobs, every = 2, 6, 4, 1, 10, 3, 5
	default:
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	dur := spec(durable, "cg", "csr")
	dur.CheckpointEvery = every
	return []workload{
		{
			name: "oneshot-large-csr", kind: oneshot, minReps: 2,
			why:  "CG lap2d:512x512 csr, fresh process per solve: DRAM-bound CSR piece kernels and fused sweeps dominate, scheduling is hidden",
			spec: spec(large, "cg", "csr"),
		},
		{
			name: "oneshot-large-auto", kind: oneshot, minReps: 2,
			why:  "same system with format auto: tuner calibration in set-up plus the DIA/ELL piece kernels in the loop, which the csr workload bypasses",
			spec: spec(large, "cg", "auto"),
		},
		{
			name: "oneshot-mid-bicg", kind: oneshot, minReps: 3,
			why:  "BiCG lap2d:256x256 csr: the only workload that runs the transposed kernels (MatmulT), at a size next to L2",
			spec: spec(mid, "bicg", "csr"),
		},
		{
			name: "served-solo", kind: servedSolo, minReps: 2,
			why:  "closed loop, 1 connection, POST /solve?wait=1 of CG lap2d:32x32: scheduler- and per-job set-up-bound, coalescing bypassed",
			spec: spec(solo, "cg", "csr"), warmup: warm, jobs: soloJobs, probeJobs: probeJobs,
		},
		{
			name: "served-batch", kind: servedBatch, minReps: 2,
			why:  "waves of 48 same-operator jobs submitted then polled, MaxActive 1: block-diagonal coalescing amortises per-task cost 8x",
			spec: spec(solo, "cg", "csr"), warmup: warm, waves: waves, waveJobs: waveJobs, maxActive: 1,
		},
		{
			name: "served-durable", kind: servedDurable, minReps: 2,
			why:  "closed loop of checkpointing CG lap2d:64x64 jobs on a WAL server with fsync per record, then a restart: journal, wal and resilient driver",
			spec: dur, jobs: durJobs,
		},
	}, nil
}

// findWorkload returns the named workload at the given scale.
func findWorkload(name, scale string) (workload, error) {
	ws, err := workloads(scale)
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef is one reported metric: its unit, which direction is
// better, and for end-to-end metrics the share of the parent's value
// by which it may worsen before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	// peak marks a metric reported as the largest repetition's rather
	// than the best one's: a peak is a maximum.
	peak bool
}

// e2eMetrics are the end-to-end metrics every workload reports, and
// later changes are gated on. The README gives each one's meaning per
// workload kind. Three numbers a reader may miss here are reported but
// not gated: fail_share is carried as attempted/failed counts (it is 0
// at the seed, and a bound that is a share of 0 bounds nothing, so it
// "may not rise at all"); throughput and the p50 and p90 of job latency
// are per-layer metrics, because on a shared host they move with the
// neighbours by more than any bound worth having.
var e2eMetrics = []metricDef{
	{name: "solve_s", unit: "s", better: "lower", bound: 0.25},
	{name: "iter_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "job_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20, peak: true},
}

// layerMetrics are the per-layer metrics of the traced run, named
// <module>.<metric>. A workload that bypasses a layer reports 0 for it.
var layerMetrics = []metricDef{
	{name: "jobspec.load_ms", unit: "ms", better: "lower"},
	{name: "jobspec.rhs_ms", unit: "ms", better: "lower"},
	{name: "sparse.convert_ms", unit: "ms", better: "lower"},
	{name: "sparse.spmv_whole_us", unit: "us", better: "lower"},
	{name: "sparse.spmv_whole_gbps_computed", unit: "GB/s", better: "higher"},
	{name: "sparse.bytes_per_nnz_computed", unit: "B", better: "lower"},
	{name: "core.plan_ms", unit: "ms", better: "lower"},
	{name: "core.task_us.matmul", unit: "us", better: "lower"},
	{name: "core.task_us.vector", unit: "us", better: "lower"},
	{name: "core.task_us.reduce", unit: "us", better: "lower"},
	{name: "core.busy_share.matmul", unit: "share", better: "higher"},
	{name: "core.tasks_per_iter", unit: "count", better: "lower"},
	{name: "taskrt.launched", unit: "count", better: "lower"},
	{name: "taskrt.dep_edges", unit: "count", better: "lower"},
	{name: "taskrt.launch_ns_analyzed", unit: "ns", better: "lower"},
	{name: "taskrt.launch_ns_spliced", unit: "ns", better: "lower"},
	{name: "taskrt.trace_hit_share", unit: "share", better: "higher"},
	{name: "taskrt.trace_fallbacks", unit: "count", better: "lower"},
	{name: "taskrt.queue_latency_us", unit: "us", better: "lower"},
	{name: "taskrt.worker_busy_share", unit: "share", better: "higher"},
	{name: "taskrt.critpath_share", unit: "share", better: "higher"},
	{name: "taskrt.wall_us_per_task", unit: "us", better: "lower"},
	{name: "solvers.iterations", unit: "count", better: "lower"},
	{name: "solvers.true_residual", unit: "norm", better: "lower"},
	{name: "solvers.step_launch_us", unit: "us", better: "lower"},
	{name: "solvers.sync_wait_us", unit: "us", better: "lower"},
	{name: "solvers.checkpoints_per_job", unit: "count", better: "lower"},
	{name: "serve.submit_us", unit: "us", better: "lower"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.solve_ms", unit: "ms", better: "lower"},
	{name: "serve.job_overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.job_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.job_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "serve.http_rtt_us", unit: "us", better: "lower"},
	{name: "serve.host_residual_ms", unit: "ms", better: "lower"},
	{name: "serve.coalesce_width", unit: "count", better: "higher"},
	{name: "serve.batches", unit: "count", better: "higher"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.rss_kb_per_job", unit: "kB", better: "lower"},
	{name: "serve.unaccounted_share", unit: "share", better: "lower"},
	{name: "serve.concurrent.fail_share", unit: "share", better: "lower"},
	{name: "serve.concurrent.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "wal.records_per_job", unit: "count", better: "lower"},
	{name: "wal.bytes_per_job", unit: "B", better: "lower"},
	{name: "wal.fsyncs_per_job", unit: "count", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.replay_ms", unit: "ms", better: "lower"},
	{name: "wal.records_replayed", unit: "count", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "share", better: "lower"},
	{name: "obs.spans", unit: "count", better: "lower"},
}
