// Mmserve is the solver-as-a-service front end: a long-running HTTP
// server multiplexing many solve jobs over one shared task runtime.
// Each job (the same specification cmd/mmsolve takes as flags, as a
// JSON body) runs in its own runtime session — scoped failure state,
// scoped fault injection, scoped phase labels — while sharing the
// scheduler, the loaded matrices, and the per-operator recycle caches
// with every other tenant. Jobs that name the same matrix with the same
// plain-solve parameters are coalesced into one batched multi-RHS
// solve.
//
//	mmserve -addr :8080 -max-active 4 -queue-depth 64
//
//	curl -d '{"matrix":"lap2d:64x64","solver":"cg"}' localhost:8080/solve?wait=1
//	curl localhost:8080/jobs/job-1
//	curl localhost:8080/metrics
//
// Admission is a bounded FIFO queue: submissions past -queue-depth are
// rejected with 503 + Retry-After rather than growing memory without
// bound. On SIGTERM or SIGINT the server drains gracefully — in-flight
// solves finish, queued jobs complete immediately with a retryable
// rejection, new submissions get 503 — then exits 0.
//
// With -wal-dir the server is crash-durable: every accepted job, every
// verified resilient checkpoint, and every terminal state is journaled
// to a write-ahead log. On startup the journal is replayed — finished
// jobs keep their results, unfinished jobs re-enter the queue, jobs
// with a persisted checkpoint resume from it — and a drain persists
// queued jobs for the next start instead of rejecting them.
//
//	mmserve -addr :8080 -wal-dir /var/lib/mmserve/wal -fsync-every 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kdrsolvers/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxActive := flag.Int("max-active", 4, "concurrently executing solve sessions")
	queueDepth := flag.Int("queue-depth", 64, "bounded admission queue length")
	coalesceMax := flag.Int("coalesce-max", 8, "max same-operator jobs fused into one multi-RHS solve (1 disables)")
	tracing := flag.Bool("trace", true, "memoize dependence analysis of repeated solver iterations")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory for crash durability (empty disables)")
	fsyncEvery := flag.Int("fsync-every", 16, "fsync the journal every N records (1 = every record)")
	retainDone := flag.Int("retain-done", 256, "completed jobs kept for GET /jobs/{id} before LRU eviction")
	flag.Parse()
	if *maxActive < 1 || *queueDepth < 1 || *coalesceMax < 1 {
		fmt.Fprintln(os.Stderr, "mmserve: -max-active, -queue-depth, and -coalesce-max must be at least 1")
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Printf("mmserve: "+format+"\n", args...)
	}
	srv, err := serve.NewServer(serve.Config{
		MaxActive:   *maxActive,
		QueueDepth:  *queueDepth,
		CoalesceMax: *coalesceMax,
		Tracing:     *tracing,
		WALDir:      *walDir,
		FsyncEvery:  *fsyncEvery,
		RetainDone:  *retainDone,
		Log:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmserve:", err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *addr, Handler: serve.Handler(srv)}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		s := <-sig
		if *walDir != "" {
			logf("caught %v, draining (in-flight jobs finish, queued jobs persist to the journal)", s)
		} else {
			logf("caught %v, draining (in-flight jobs finish, queued jobs rejected retryable)", s)
		}
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		close(drained)
	}()

	logf("listening on %s (max-active %d, queue-depth %d, coalesce-max %d)",
		*addr, *maxActive, *queueDepth, *coalesceMax)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mmserve:", err)
		os.Exit(1)
	}
	<-drained
	m := srv.Metrics()
	logf("drained: %d job(s) completed (%d failed), %d coalesced into %d batch(es)",
		m.Completed, m.Failed, m.CoalescedJobs, m.Batches)
}
