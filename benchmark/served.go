package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// liveServer is a serve.Server behind serve.Handler on a real loopback
// listener — what cmd/mmserve runs — with the one client that loads it.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer brings a server up and returns once GET /healthz says 200.
func startServer(cfg serve.Config, conns int) (*liveServer, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: serve.Handler(srv)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if status, _, err := s.do(http.MethodGet, "/healthz", nil); err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server never became healthy")
		}
	}
}

// stop drains the server (closing its journal), shuts the listener down
// and waits for the serving goroutine to end.
func (s *liveServer) stop() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	s.client.CloseIdleConnections()
	return err
}

func (s *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// request sends one job-API request and decodes the reply, naming the
// failure when it is not the wanted status with a decodable job view.
func (s *liveServer) request(method, path string, sp *jobspec.Spec, want int) (serve.JobView, string) {
	var body []byte
	if sp != nil {
		body, _ = json.Marshal(sp) // a Spec of strings and numbers always encodes
	}
	status, reply, err := s.do(method, path, body)
	if err != nil {
		return serve.JobView{}, "transport error"
	}
	return checkResponse(status, want, reply)
}

// solveWait is one closed-loop operation: POST /solve?wait=1, timed as
// the client sees it, verified before it counts.
func (s *liveServer) solveWait(sp jobspec.Spec, t *tally) {
	t0 := time.Now()
	v, reason := s.request(http.MethodPost, "/solve?wait=1", &sp, http.StatusOK)
	latency := time.Since(t0)
	if reason == "" {
		reason = checkDone(v, sp.Tol)
	}
	t.record(latency, v.QueueWait, v.Result, reason)
}

// waveTimeout bounds the polling of one wave; a job still unfinished
// then is a failed operation, not a hung benchmark.
const waveTimeout = time.Minute

// wave submits n coalescible jobs with plain POST /solve (202), then
// polls GET /jobs/{id} in submission order with a 1 ms back-off until
// each is done. A job's time runs from its own submission to the poll
// that saw it finished; the wave's time, from the first submission to
// the last such poll, is returned.
func (s *liveServer) wave(n int, next func() jobspec.Spec, t *tally) time.Duration {
	start := time.Now()
	type pending struct {
		id     string
		tol    float64
		t0     time.Time
		reason string
	}
	jobs := make([]pending, n)
	for i := range jobs {
		sp := next()
		jobs[i].tol, jobs[i].t0 = sp.Tol, time.Now()
		v, reason := s.request(http.MethodPost, "/solve", &sp, http.StatusAccepted)
		if reason == "" && v.ID == "" {
			reason = "no job id"
		}
		jobs[i].id, jobs[i].reason = v.ID, reason
	}
	deadline := time.Now().Add(waveTimeout)
	for _, j := range jobs {
		var v serve.JobView
		reason := j.reason
		for reason == "" {
			v, reason = s.request(http.MethodGet, "/jobs/"+j.id, nil, http.StatusOK)
			if reason != "" || v.State == serve.StateDone {
				break
			}
			if time.Now().After(deadline) {
				reason = "poll timeout"
				break
			}
			time.Sleep(time.Millisecond)
		}
		latency := time.Since(j.t0)
		if reason == "" {
			reason = checkDone(v, j.tol)
		}
		t.record(latency, v.QueueWait, v.Result, reason)
	}
	return time.Since(start)
}

func (s *liveServer) metrics() (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	status, body, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: http %d", status)
	}
	return m, json.Unmarshal(body, &m)
}

// rssKB is this process's current resident set, from /proc/self/statm.
func rssKB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / 1024
}

func dirBytes(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return float64(n), err
}

// servedRep is one fresh-server repetition of a served workload. The
// server is configured as cmd/mmserve configures it by default (every
// serve.Config default, trace memoization on) except where the
// workload says otherwise.
func servedRep(w workload, a repArgs) (repResult, error) {
	cfg := serve.Config{Tracing: true, MaxActive: w.maxActive}
	conns := 1
	switch w.kind {
	case servedBatch:
		conns = 2
	case servedDurable:
		cfg.WALDir = filepath.Join(a.Workdir, "wal")
		cfg.FsyncEvery = 1
	}
	job := 0
	next := func() jobspec.Spec {
		sp := w.spec
		sp.RHS = fmt.Sprintf("rand:%d", a.Seed+int64(a.Rep)*100_000+int64(job))
		job++
		return sp
	}

	t0 := time.Now()
	s, err := startServer(cfg, conns)
	if err != nil {
		return repResult{}, err
	}
	// Warm-up jobs are verified and counted like any other, but leave no
	// samples: the timed phase starts from their counts alone.
	var warm tally
	for i := 0; i < w.warmup; i++ {
		s.solveWait(next(), &warm)
	}
	setup := time.Since(t0)

	l := layers{}
	if a.Traced {
		// Probes of the live server run before the counters are read, so
		// the timed phase's deltas hold the timed jobs alone.
		if err := l.liveProbes(s, next); err != nil {
			s.stop()
			return repResult{}, err
		}
	}
	m0, err := s.metrics()
	if err != nil {
		s.stop()
		return repResult{}, err
	}
	rt0, rss0 := readRuntime(s.srv.Runtime()), rssKB()

	t := tally{attempted: warm.attempted, failed: warm.failed, reasons: warm.reasons}
	var waveJobMS []float64 // per wave: its time over its verified jobs
	start := time.Now()
	if w.kind == servedBatch {
		for i := 0; i < w.waves; i++ {
			before := t.ok()
			d := s.wave(w.waveJobs, next, &t)
			if done := t.ok() - before; done > 0 {
				waveJobMS = append(waveJobMS, ms(d)/float64(done))
			}
		}
	} else {
		for i := 0; i < w.jobs; i++ {
			s.solveWait(next(), &t)
		}
	}
	wall := time.Since(start)

	rt1, rss1 := readRuntime(s.srv.Runtime()), rssKB()
	m1, err := s.metrics()
	if err != nil {
		s.stop()
		return repResult{}, err
	}
	if err := s.stop(); err != nil {
		return repResult{}, err
	}

	if w.kind == servedDurable {
		// Restart time: a new server on the same journal, from NewServer to
		// the first healthy reply — the replay every crash or deploy pays.
		t1 := time.Now()
		s2, err := startServer(cfg, 1)
		if err != nil {
			return repResult{}, err
		}
		setup = time.Since(t1)
		m2, err := s2.metrics()
		if stopErr := s2.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return repResult{}, err
		}
		if a.Traced {
			if err := l.journal(cfg, m1, m2); err != nil {
				return repResult{}, err
			}
		}
	}

	res := t.result()
	if len(t.latMS) == 0 {
		return res, nil
	}
	res.E2E = map[string]float64{
		"solve_s": lowerDecile(t.elapsedS),
		"iter_us": lowerDecile(t.iterUS),
		"setup_s": setup.Seconds(),
		"job_ms":  lowerDecile(t.latMS),
	}
	if w.kind == servedBatch {
		// What a batch client waits for is the wave, not any one job in
		// it: a wave's time amortised over its jobs — the reciprocal of
		// throughput, which is what coalescing exists to raise.
		res.E2E["job_ms"] = lowerDecile(waveJobMS)
	}
	if !a.Traced {
		return res, nil
	}

	l.runtime(rt0, rt1, t.iters, t.solveSecs)
	l["solvers.iterations"] = median(t.iterations)
	l["solvers.true_residual"] = quantile(t.trueRes, 1)
	l["solvers.checkpoints_per_job"] = share(t.ckpts, float64(len(t.latMS)))
	// Means, so that the three parts add up to the mean client latency
	// exactly: overhead is defined as what queue wait and solve leave.
	l["serve.queue_wait_ms"] = mean(t.queueMS)
	l["serve.solve_ms"] = mean(t.elapsedS) * 1e3
	l["serve.job_overhead_ms"] = mean(t.latMS) - l["serve.queue_wait_ms"] - l["serve.solve_ms"]
	l["serve.job_p50_ms"] = median(t.latMS)
	l["serve.job_p90_ms"] = tail(t.latMS, 0.9)
	l["serve.jobs_per_s"] = float64(len(t.latMS)) / wall.Seconds()
	batches := float64(m1.Batches - m0.Batches)
	l["serve.batches"] = batches
	l["serve.coalesce_width"] = share(float64(m1.CoalescedJobs-m0.CoalescedJobs), batches)
	l["serve.rejected"] = float64(m1.RejectedFull + m1.RejectedInvalid + m1.RejectedDraining -
		m0.RejectedFull - m0.RejectedInvalid - m0.RejectedDraining)
	l["serve.rss_kb_per_job"] = share(rss1-rss0, float64(t.attempted-warm.attempted))
	if err := l.direct(w, next(), a.Workdir); err != nil {
		return res, err
	}
	// What the probe exhibits is a data race in the program under test;
	// under the race detector it would fail the run instead of being
	// counted, so a -race build leaves the probe out.
	if w.kind == servedSolo && !raceDetector {
		if err := l.concurrent(w, next); err != nil {
			return res, err
		}
	}
	res.Layers = l
	return res, nil
}

// liveProbes times the two thinnest calls into a running server:
// Server.Submit called directly (admission, and on a durable server the
// journaled accept) and a GET /healthz round trip (the HTTP stack with
// no solve behind it).
func (l layers) liveProbes(s *liveServer, next func() jobspec.Spec) error {
	var submitErr error
	submit := make([]float64, 20)
	for i := range submit {
		sp := next()
		t0 := time.Now()
		j, err := s.srv.Submit(sp)
		submit[i] = us(time.Since(t0))
		if err != nil {
			submitErr = err
			continue
		}
		<-j.Done()
	}
	l["serve.submit_us"] = median(submit)
	l["serve.http_rtt_us"] = us(medianOf(50, func() { s.do(http.MethodGet, "/healthz", nil) }))
	return submitErr
}

// journal fills the wal.* metrics of a durable repetition: what the
// first server journaled per job (m1, read before it drained), what the
// restarted one replayed (m2), the journal's size on disk, and the time
// serve.OpenJournal takes to recover and fold it.
func (l layers) journal(cfg serve.Config, m1, m2 serve.MetricsSnapshot) error {
	if m1.WAL == nil || m2.WAL == nil {
		return errors.New("durable server reports no wal metrics")
	}
	jobs := float64(m1.Completed)
	size, err := dirBytes(cfg.WALDir)
	if err != nil {
		return err
	}
	l["wal.records_per_job"] = share(float64(m1.WAL.RecordsAppended), jobs)
	l["wal.fsyncs_per_job"] = share(float64(m1.WAL.Fsyncs), jobs)
	l["wal.bytes_per_job"] = share(size, jobs)
	l["wal.records_replayed"] = float64(m2.WAL.RecordsReplayed)
	t0 := time.Now()
	jn, _, err := serve.OpenJournal(cfg.WALDir, cfg.FsyncEvery)
	if err != nil {
		return err
	}
	l["wal.replay_ms"] = ms(time.Since(t0))
	return jn.Close()
}

// directSolve runs sp through serve.RunSolve on a fresh runtime, with a
// recorder when rec is non-nil — the one-shot path, used here to see a
// served job's solve from inside this process.
func directSolve(a *sparse.CSR, sp jobspec.Spec, rec *obs.Recorder) (serve.JobResult, *taskrt.Runtime, time.Duration) {
	rt := taskrt.New()
	t0 := time.Now()
	out := serve.RunSolve(a, sp, serve.Options{Session: rt.DefaultSession(), Tracing: true, Recorder: rec})
	return out, rt, time.Since(t0)
}

// direct fills the layers under a served job that the server gives no
// handle on — task spans, set-up stages, solver launch and wait, the
// cost of recording — by running the job's spec in this process.
func (l layers) direct(w workload, sp jobspec.Spec, workdir string) error {
	t0 := time.Now()
	a, err := jobspec.LoadMatrix(sp.Matrix)
	if err != nil {
		return err
	}
	l["jobspec.load_ms"] = ms(time.Since(t0))

	rec := obs.NewRecorder()
	out, rt, _ := directSolve(a, sp, rec)
	if reason := checkResult(&out, sp.Tol); reason != "" {
		return fmt.Errorf("direct solve of %s: %s", w.name, reason)
	}
	l.spans(rec.Spans(), rt.Graph().DepLists())

	// Recording cost: the same solve with and without a recorder, in
	// alternation so drift hits both sides alike.
	var plain, recorded []float64
	for i := 0; i < 15; i++ {
		_, _, d := directSolve(a, sp, nil)
		plain = append(plain, d.Seconds())
		_, _, d = directSolve(a, sp, obs.NewRecorder())
		recorded = append(recorded, d.Seconds())
	}
	l["obs.trace_overhead_share"] = share(median(recorded)-median(plain), median(plain))

	pl, err := l.setup(a, sp)
	if err != nil {
		return err
	}
	l.solver(pl, sp, probeSteps(out.Iterations))
	l["serve.host_residual_ms"] = ms(medianOf(9, func() { serve.HostResidual(a, out.X, pl.b) }))
	if w.kind == servedDurable {
		return l.walAppend(workdir, out.X)
	}
	return nil
}

// concurrent is the probe that keeps a seed defect on the board: two
// closed-loop connections against a server at cmd/mmserve's defaults
// (MaxActive 4), where concurrent traced sessions return NaN answers.
// It gates nothing and its failures are not the workload's.
func (l layers) concurrent(w workload, next func() jobspec.Spec) error {
	s, err := startServer(serve.Config{Tracing: true}, 2)
	if err != nil {
		return err
	}
	var mu sync.Mutex // guards next, whose job counter the two clients share
	tallies := make([]tally, 2)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for i := 0; i < w.probeJobs; i++ {
				mu.Lock()
				sp := next()
				mu.Unlock()
				s.solveWait(sp, t)
			}
		}(&tallies[c])
	}
	wg.Wait()
	wall := time.Since(start)
	attempted := tallies[0].attempted + tallies[1].attempted
	ok := tallies[0].ok() + tallies[1].ok()
	l["serve.concurrent.fail_share"] = share(float64(attempted-ok), float64(attempted))
	l["serve.concurrent.jobs_per_s"] = float64(ok) / wall.Seconds()
	return s.stop()
}
