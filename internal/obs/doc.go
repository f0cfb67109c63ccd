// Package obs is the runtime observability layer: lightweight counters
// and timers, a wall-clock span recorder the task runtime feeds, a
// critical-path analyzer over recorded executions, and a Chrome-trace
// (chrome://tracing / Perfetto) exporter.
//
// A Recorder records spans only. A task failure shows in its span's
// Outcome (retried, failed, poisoned); counts of failures, retries and
// stragglers are the task runtime's Stats.
//
// The package deliberately depends on nothing but the standard library,
// so both the real runtime (package taskrt) and the discrete-event
// simulator (package sim) can produce Spans without an import cycle:
// taskrt records real wall-clock spans, sim records simulated-schedule
// spans, and the same analysis and export code consumes either.
//
// Times are float64 seconds on a common epoch — time since the
// Recorder's creation for real spans, simulated time zero for simulated
// spans.
package obs
