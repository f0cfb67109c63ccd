package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
	"kdrsolvers/internal/wal"
)

// defaultRetainDone is Config.RetainDone's default, and what a journal
// opened without a server (OpenJournal) keeps through compaction.
const defaultRetainDone = 256

// Admission errors. ErrQueueFull and ErrDraining are retryable — the
// client should resubmit later (the HTTP front end maps them to 503 with
// a Retry-After); a validation error from Submit is not.
var (
	ErrQueueFull = errors.New("serve: admission queue full, retry later")
	ErrDraining  = errors.New("serve: server draining, retry against a live replica")
)

// ErrJournal wraps a WAL append failure during admission: the job was
// NOT accepted (a job the journal cannot make durable must not be
// acknowledged). The HTTP front end maps it to 500.
var ErrJournal = errors.New("serve: journal append failed")

// Config sizes a Server.
type Config struct {
	// MaxActive bounds concurrently executing solve sessions (batches
	// count once). Default 4.
	MaxActive int
	// QueueDepth bounds the admission queue; a Submit past the bound
	// fails with ErrQueueFull instead of growing memory without limit.
	// Default 64.
	QueueDepth int
	// CoalesceMax caps how many compatible queued jobs are fused into
	// one batched multi-RHS solve (sharing the operator the multirhs
	// pattern aliases). 1 disables coalescing. Default (0) 8.
	CoalesceMax int
	// Tracing enables per-session trace memoization of solver iteration
	// loops.
	Tracing bool
	// WALDir, when non-empty, makes the server crash-durable: every
	// accepted job, every verified resilient checkpoint, and every
	// terminal state is journaled to a write-ahead log in this
	// directory. NewServer replays the journal — finished jobs keep
	// their results, unfinished jobs re-enter the queue, and jobs with a
	// persisted checkpoint resume from it instead of iteration 0 — and
	// Drain persists queued jobs for the next start instead of
	// rejecting them. Empty disables durability (the PR-9 behavior).
	WALDir string
	// FsyncEvery batches the journal's fsyncs: records are synced to
	// disk every N appends (1 = every record, the strictest setting; a
	// crash can lose at most the newest N−1 acknowledged records).
	// Default 16.
	FsyncEvery int
	// RetainDone bounds how many completed jobs the registry keeps for
	// GET /jobs/{id}: past the bound the oldest-completed are evicted
	// (lookups then 404). Default 256.
	RetainDone int
	// RetainTTL additionally expires completed jobs by age; 0 disables
	// the TTL (eviction is then purely LRU via RetainDone).
	RetainTTL time.Duration
	// Log, when non-nil, receives server progress lines.
	Log func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.MaxActive <= 0 {
		c.MaxActive = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = 8
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 16
	}
	if c.RetainDone <= 0 {
		c.RetainDone = defaultRetainDone
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// Job is one submitted solve and its lifecycle. Fields other than ID and
// Spec are owned by the server; read them through Snapshot or after Done
// is closed.
type Job struct {
	ID   string
	Spec jobspec.Spec

	// num is the job's number, which the journal takes: ID is "job-num".
	num int64

	// resume, when non-nil, is the persisted checkpoint a replayed job
	// restarts from. Set only during journal replay, before the job is
	// visible to workers.
	resume *ResumePoint

	mu        sync.Mutex
	state     string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time

	// done is closed when the job reaches StateDone.
	done chan struct{}
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is a point-in-time copy of a job's externally visible state,
// shaped for the HTTP layer's JSON responses.
type JobView struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Spec      jobspec.Spec  `json:"spec"`
	Submitted time.Time     `json:"submitted"`
	Started   time.Time     `json:"started,omitempty"`
	Finished  time.Time     `json:"finished,omitempty"`
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	Result    *JobResult    `json:"result,omitempty"`
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Result: j.result,
	}
	if !j.started.IsZero() {
		v.QueueWait = j.started.Sub(j.submitted)
	}
	return v
}

// Result blocks until the job finishes and returns its result.
func (j *Job) Result() *JobResult {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Metrics are the server's cumulative counters, exported at /metrics.
type Metrics struct {
	Submitted        obs.Counter
	RejectedFull     obs.Counter
	RejectedInvalid  obs.Counter
	RejectedDraining obs.Counter
	Completed        obs.Counter
	Failed           obs.Counter // completed with an error, breakdown, or no convergence
	CoalescedJobs    obs.Counter // jobs that ran inside a shared multi-RHS batch
	Batches          obs.Counter // multi-RHS batches executed
	ErrsDropped      obs.Counter // session error-window evictions, summed over completed jobs
	EvictedJobs      obs.Counter // completed jobs evicted from the registry (TTL/LRU)
	SolveTime        obs.Timer
	QueueTime        obs.Timer
}

// MetricsSnapshot is the JSON shape of one metrics read: the counters
// plus the instantaneous gauges and the shared runtime's own stats.
type MetricsSnapshot struct {
	Submitted        int64 `json:"submitted"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
	RejectedDraining int64 `json:"rejected_draining"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	CoalescedJobs    int64 `json:"coalesced_jobs"`
	Batches          int64 `json:"batches"`

	// ErrsDropped sums, over completed jobs, the permanent task failures
	// each job's session evicted from its bounded error window
	// (taskrt.SessionStats.ErrsDropped) — visibility into how much
	// failure history the windows have shed.
	ErrsDropped int64 `json:"errs_dropped"`
	// EvictedJobs counts completed jobs the registry evicted (TTL/LRU).
	EvictedJobs int64 `json:"evicted_jobs"`

	Active   int  `json:"active"`
	Queued   int  `json:"queued"`
	Sessions int  `json:"sessions"`
	Draining bool `json:"draining"`

	// WAL is the journal's counters; absent when durability is off.
	WAL *WALMetricsSnapshot `json:"wal,omitempty"`

	SolveTimeNS     int64 `json:"solve_time_ns"`
	MeanSolveNS     int64 `json:"mean_solve_ns"`
	QueueTimeNS     int64 `json:"queue_time_ns"`
	MeanQueueWaitNS int64 `json:"mean_queue_wait_ns"`

	Runtime taskrt.Stats `json:"runtime"`
}

// matrixEntry loads one matrix exactly once and shares the loaded object
// across every job naming the same spec string, which is what makes
// coalescing possible at all. cache is the matrix's one recycle space:
// each gcrodr job on the matrix, whatever its storage format,
// warm-starts from the space the last one harvested.
type matrixEntry struct {
	once  sync.Once
	a     *sparse.CSR
	err   error
	cache solvers.RecycleCache
}

// Server multiplexes many solve jobs over one shared taskrt.Runtime,
// giving each job (or coalesced batch) its own session: scoped failure
// state, scoped fault injection, scoped phase labels, one shared
// scheduler underneath. Admission is a bounded FIFO queue drained by
// MaxActive workers — fairness is arrival order, with the single
// exception that a worker popping the head also claims any
// coalescible queued jobs so same-operator tenants amortize one
// planner.
type Server struct {
	cfg Config
	rt  *taskrt.Runtime

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*Job
	jobs      map[string]*Job
	doneOrder []string // completed job ids, oldest first (eviction order)
	active    int
	draining  bool
	nextID    int64

	journal      *Journal // nil when durability is off
	journalClose sync.Once

	matrices map[string]*matrixEntry

	workers sync.WaitGroup
	metrics Metrics
}

// NewServer starts a server with cfg.MaxActive workers over one fresh
// shared runtime. With cfg.WALDir set it first replays the journal:
// finished jobs keep their journaled results, unfinished jobs re-enter
// the queue in their original acceptance order, and jobs with a
// persisted checkpoint are marked to resume from it. The only error is
// a journal that cannot be opened (corruption is recovered by
// truncation, never an error).
func NewServer(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	rt := taskrt.New()
	// Nothing in the server reads the task graph, and a retained graph
	// keeps a Node per launched task for the life of the process.
	rt.SetGraphRetention(false)
	s := &Server{
		cfg:      cfg,
		rt:       rt,
		jobs:     make(map[string]*Job),
		matrices: make(map[string]*matrixEntry),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.WALDir != "" {
		if err := s.replayJournal(); err != nil {
			return nil, err
		}
	}
	s.workers.Add(cfg.MaxActive)
	for i := 0; i < cfg.MaxActive; i++ {
		go s.worker(i)
	}
	return s, nil
}

// replayJournal opens the WAL and folds its history back into the
// server: done jobs into the registry, pending jobs into the queue.
// Runs before workers start, so no locking is needed on the maps.
func (s *Server) replayJournal() error {
	jn, rep, err := openJournal(s.cfg.WALDir, wal.Options{FsyncEvery: s.cfg.FsyncEvery}, s.cfg.RetainDone)
	if err != nil {
		return fmt.Errorf("serve: open wal journal: %w", err)
	}
	s.journal = jn
	mt, checkpoints := jn.Metrics(), jn.state.checkpoints
	s.nextID = rep.MaxID
	now := time.Now()
	// The journal retains RetainDone done jobs, the registry's bound, and
	// they finish now, so none is evicted here.
	for _, id := range rep.DoneOrder {
		j := &Job{ID: id, state: StateDone, result: rep.Done[id], finished: now,
			done: make(chan struct{})}
		close(j.done)
		s.jobs[id] = j
		s.doneOrder = append(s.doneOrder, id)
	}
	for _, rj := range rep.Pending {
		j := &Job{
			ID: rj.ID, num: rj.Num, Spec: rj.Spec, resume: rj.Resume,
			state: StateQueued, submitted: rj.Submitted,
			done: make(chan struct{}),
		}
		if j.submitted.IsZero() {
			j.submitted = now
		}
		s.jobs[j.ID] = j
		s.queue = append(s.queue, j)
	}
	if mt.RecordsReplayed > 0 || mt.RecordsTruncated > 0 {
		s.cfg.Log("wal: replayed %d record(s), %d bytes in %v (%d truncation(s)): %d done, %d requeued, %d resuming from a checkpoint (checkpoint vectors: %d decoded, %d skipped)",
			mt.RecordsReplayed, mt.BytesOnDisk, time.Duration(mt.RecoveryNS), mt.RecordsTruncated,
			len(rep.DoneOrder), len(rep.Pending), mt.JobsResumed, mt.JobsResumed, checkpoints-mt.JobsResumed)
	}
	if rep.Skipped > 0 {
		s.cfg.Log("wal: skipped %d undecodable record(s) (version skew?)", rep.Skipped)
	}
	return nil
}

// Runtime exposes the shared runtime (tests assert on its stats).
func (s *Server) Runtime() *taskrt.Runtime { return s.rt }

// Submit validates and enqueues one job. It returns the queued job, or
// an error: a validation error (reject with 400/exit 2 — same Validate
// the CLI runs), ErrQueueFull, or ErrDraining (both retryable).
func (s *Server) Submit(spec jobspec.Spec) (*Job, error) {
	s.metrics.Submitted.Inc()
	if err := spec.Validate(); err != nil {
		s.metrics.RejectedInvalid.Inc()
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.RejectedDraining.Inc()
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.RejectedFull.Inc()
		return nil, ErrQueueFull
	}
	s.nextID++
	j := &Job{
		ID:        jobID(s.nextID),
		num:       s.nextID,
		Spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if s.journal != nil {
		// Journal before acknowledging: a job the log cannot make durable
		// must not be accepted (the client would believe it survives a
		// crash when it wouldn't).
		if err := s.journal.Accept(j.num, j.Spec, j.submitted); err != nil {
			s.nextID--
			s.mu.Unlock()
			s.cfg.Log("wal: journal accept: %v", err)
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.cond.Signal()
	s.mu.Unlock()
	return j, nil
}

// Job looks up a submitted job by ID. Unknown ids — never submitted,
// or completed and since evicted by the retention policy — report
// false.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictDoneLocked(time.Now())
	j, ok := s.jobs[id]
	return j, ok
}

// evictDoneLocked enforces the completed-job retention policy: drop
// jobs older than RetainTTL (when set), then the oldest-completed past
// the RetainDone bound. Queued and running jobs are never evicted.
// Called with s.mu held.
func (s *Server) evictDoneLocked(now time.Time) {
	evict := func(id string) {
		delete(s.jobs, id)
		s.metrics.EvictedJobs.Inc()
	}
	if ttl := s.cfg.RetainTTL; ttl > 0 {
		keep := s.doneOrder[:0]
		for _, id := range s.doneOrder {
			j := s.jobs[id]
			if j == nil {
				continue
			}
			j.mu.Lock()
			expired := now.Sub(j.finished) > ttl
			j.mu.Unlock()
			if expired {
				evict(id)
			} else {
				keep = append(keep, id)
			}
		}
		for i := len(keep); i < len(s.doneOrder); i++ {
			s.doneOrder[i] = ""
		}
		s.doneOrder = keep
	}
	for len(s.doneOrder) > s.cfg.RetainDone {
		evict(s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// Metrics returns a point-in-time snapshot of the server's counters and
// gauges.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	active, queued, draining := s.active, len(s.queue), s.draining
	s.mu.Unlock()
	m := &s.metrics
	snap := MetricsSnapshot{
		Submitted:        m.Submitted.Load(),
		RejectedFull:     m.RejectedFull.Load(),
		RejectedInvalid:  m.RejectedInvalid.Load(),
		RejectedDraining: m.RejectedDraining.Load(),
		Completed:        m.Completed.Load(),
		Failed:           m.Failed.Load(),
		CoalescedJobs:    m.CoalescedJobs.Load(),
		Batches:          m.Batches.Load(),
		ErrsDropped:      m.ErrsDropped.Load(),
		EvictedJobs:      m.EvictedJobs.Load(),
		Active:           active,
		Queued:           queued,
		Sessions:         s.rt.Sessions(),
		Draining:         draining,
		Runtime:          s.rt.Stats(),
	}
	st := m.SolveTime.Snapshot()
	snap.SolveTimeNS = int64(st.Total)
	snap.MeanSolveNS = int64(st.Mean())
	qt := m.QueueTime.Snapshot()
	snap.QueueTimeNS = int64(qt.Total)
	snap.MeanQueueWaitNS = int64(qt.Mean())
	if s.journal != nil {
		wm := s.journal.Metrics()
		snap.WAL = &wm
	}
	return snap
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the server down gracefully: new submissions are rejected
// with ErrDraining, jobs still queued complete immediately with a
// retryable rejection result, and Drain returns once every in-flight
// solve has finished. With a journal, queued jobs are persisted rather
// than lost: they still finish in-memory with the retryable rejection
// (this process won't run them), but no terminal record is journaled,
// so the next start replays and runs them. Safe to call more than
// once.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		rejected := s.queue
		s.queue = nil
		for _, j := range rejected {
			s.finishJob(j, &JobResult{Err: ErrDraining.Error(), Retryable: true}, time.Time{})
			s.metrics.RejectedDraining.Inc()
		}
		if len(rejected) > 0 {
			if s.journal != nil {
				s.cfg.Log("drain: persisted %d queued job(s) to the journal for the next start", len(rejected))
			} else {
				s.cfg.Log("drain: rejected %d queued job(s) as retryable", len(rejected))
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
	s.rt.Drain()
	if s.journal != nil {
		s.journalClose.Do(func() {
			if err := s.journal.Close(); err != nil {
				s.cfg.Log("wal: close journal: %v", err)
			}
		})
	}
}

// finishJob moves j to StateDone. Called with s.mu held or before the
// job is visible to workers.
func (s *Server) finishJob(j *Job, res *JobResult, started time.Time) {
	j.mu.Lock()
	j.state = StateDone
	j.result = res
	j.started = started
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// worker drains the queue: pop the head (FIFO), claim coalescible
// followers, run the group in one fresh session, repeat.
func (s *Server) worker(id int) {
	defer s.workers.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.draining {
			s.mu.Unlock()
			return
		}
		group := s.claimGroupLocked()
		s.active++
		s.mu.Unlock()

		now := time.Now()
		for _, j := range group {
			j.mu.Lock()
			j.state = StateRunning
			j.started = now
			j.mu.Unlock()
			s.metrics.QueueTime.Observe(now.Sub(j.Snapshot().Submitted))
		}
		s.runGroup(id, group)

		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}
}

// claimGroupLocked pops the queue head plus any compatible followers
// (same operator, same solve parameters, plain solve) up to CoalesceMax.
// Non-matching jobs keep their queue positions — coalescing never
// reorders strangers, so FIFO fairness holds for everyone else.
func (s *Server) claimGroupLocked() []*Job {
	head := s.queue[0]
	s.queue = s.queue[1:]
	group := []*Job{head}
	// A resumed job owns its session outright: its solution vector is
	// pre-seeded from the checkpoint, which the block-diagonal batch
	// layout cannot express. (Specs that checkpoint are non-coalescible
	// anyway — this guards the invariant, not a reachable case.)
	if s.cfg.CoalesceMax <= 1 || !coalescible(head.Spec) || head.resume != nil {
		return group
	}
	key := coalesceKey(head.Spec)
	rest := s.queue[:0]
	for _, j := range s.queue {
		if len(group) < s.cfg.CoalesceMax && coalescible(j.Spec) && coalesceKey(j.Spec) == key {
			group = append(group, j)
		} else {
			rest = append(rest, j)
		}
	}
	// Zero the tail so claimed jobs don't linger in the backing array.
	for i := len(rest); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = rest
	return group
}

// coalescible reports whether a job may share a planner with strangers:
// a plain solve (no fault plan, no resilience, no SDC detection, no
// retry/watchdog knobs) by a method whose joint block-system iteration
// is equivalent to solving each system alone. Preconditioned and
// recycling methods keep their own planner; anything with per-job
// failure-handling semantics must own its session outright.
func coalescible(sp jobspec.Spec) bool {
	switch sp.Solver {
	case "cg", "bicgstab", "minres", "bicg", "cgs":
	default:
		return false
	}
	return sp.Faults == "" && sp.Retries <= 1 && sp.CheckpointEvery == 0 &&
		!sp.DetectSDC && sp.Watchdog == 0
}

// coalesceKey groups jobs that can share one multi-RHS planner: same
// matrix (hence, through the server's matrix cache, the same object),
// same method and storage format, same stopping rule, same partition.
func coalesceKey(sp jobspec.Spec) string {
	return fmt.Sprintf("%s|%s|%s|%g|%d|%d", sp.Matrix, sp.Solver, sp.Format, sp.Tol, sp.MaxIter, sp.Pieces)
}

// matrix returns the shared entry for a spec string, loading the
// matrix on first use. Concurrent callers share one load. A failed load
// leaves the map, so the next job naming the key loads it afresh.
func (s *Server) matrix(key string) *matrixEntry {
	s.mu.Lock()
	e := s.matrices[key]
	if e == nil {
		e = &matrixEntry{}
		s.matrices[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.a, e.err = jobspec.LoadMatrix(key) })
	if e.err != nil {
		s.mu.Lock()
		if s.matrices[key] == e {
			delete(s.matrices, key)
		}
		s.mu.Unlock()
	}
	return e
}

// runGroup executes one claimed group — solo or coalesced — in one
// session, completing every member job.
func (s *Server) runGroup(worker int, group []*Job) {
	spec := group[0].Spec
	e := s.matrix(spec.Matrix)
	if e.err != nil {
		for _, j := range group {
			s.completeJob(j, &JobResult{Solver: j.Spec.Solver, Err: e.err.Error()})
		}
		return
	}
	sess := s.rt.NewSession(group[0].ID)
	defer sess.Close()
	start := time.Now()
	if len(group) > 1 {
		s.metrics.Batches.Inc()
		s.metrics.CoalescedJobs.Add(int64(len(group)))
		s.cfg.Log("coalesce: %d %s jobs on %s into one block-diagonal multi-RHS solve",
			len(group), spec.Solver, spec.Matrix)
		results := runBatch(e.a, group, sess, s.cfg.Tracing)
		s.metrics.SolveTime.ObserveN(time.Since(start), int64(len(group)))
		for i, j := range group {
			s.completeJob(j, results[i])
		}
		return
	}
	j := group[0]
	opt := Options{
		Session: sess,
		Cache:   &e.cache,
		Tracing: s.cfg.Tracing,
		Resume:  j.resume,
	}
	if s.journal != nil && j.Spec.CheckpointEvery > 0 {
		opt.CheckpointSink = func(iter int, residual float64, x []float64) {
			if err := s.journal.Checkpoint(j.num, iter, residual, x); err != nil {
				s.cfg.Log("wal: journal checkpoint for %s: %v", j.ID, err)
			}
		}
	}
	if j.resume != nil {
		s.cfg.Log("resume: %s restarts from verified checkpoint at iteration %d (residual %.3e)",
			j.ID, j.resume.Iter, j.resume.Residual)
	}
	out := RunSolve(e.a, j.Spec, opt)
	s.metrics.SolveTime.Observe(time.Since(start))
	s.completeJob(j, &out)
}

// completeJob finishes one job and updates the outcome counters. With
// a journal, the terminal state is journaled first: once the done
// record is durable, replay skips the job forever. A crash between the
// solve and the done record merely re-runs a deterministic solve.
func (s *Server) completeJob(j *Job, res *JobResult) {
	if s.journal != nil {
		if err := s.journal.Done(j.num, res); err != nil {
			s.cfg.Log("wal: journal done for %s: %v", j.ID, err)
		}
	}
	s.metrics.Completed.Inc()
	if res.Err != "" || res.Breakdown != "" || !res.Converged {
		s.metrics.Failed.Inc()
	}
	s.metrics.ErrsDropped.Add(res.Session.ErrsDropped)
	started := j.Snapshot().Started
	s.mu.Lock()
	s.finishJob(j, res, started)
	s.doneOrder = append(s.doneOrder, j.ID)
	s.evictDoneLocked(time.Now())
	s.mu.Unlock()
}

// runBatch solves the group's systems jointly as one concatenated
// block-diagonal system: x and b of length k·n over diag(a, …, a), one
// (sol, rhs) region pair partitioned into the spec's piece count. The
// concatenation is what amortizes scheduling, not just planning —
// per-piece task overhead is most of a small solve's wall time, and the
// aliased one-pair-per-RHS layout launches k× the tasks per sweep. Here
// a k-wide batch launches exactly as many tasks per iteration as one
// solo solve, each doing k× the arithmetic; that division of the launch
// budget is where the server's aggregate throughput over sequential
// one-shot runs comes from. The operator is stored once: the block
// diagonal is a sparse.BlockDiag view whose k tiles alias one converted
// n×n operator, so a batch costs k× the vectors, not k× the matrix. The
// joint residual norm reaching tol implies each member's residual did;
// each job still gets its own host-recomputed true residual as
// independent evidence.
func runBatch(a *sparse.CSR, group []*Job, sess *taskrt.Session, tracing bool) []*JobResult {
	spec := group[0].Spec
	rows, _ := sparse.Dims(a)
	n := int(rows)
	k := len(group)

	bigX := make([]float64, k*n)
	bigB := make([]float64, k*n)
	for i, j := range group {
		copy(bigB[i*n:(i+1)*n], j.Spec.BuildRHS(a, n))
	}
	joint := solveSystem(a, k, bigX, bigB, spec, Options{Session: sess, Tracing: tracing})

	results := make([]*JobResult, k)
	for i := range group {
		// Every member reports the joint solve (Residual is the
		// block-system norm) under its own dimensions and evidence.
		out := joint
		out.N, out.NNZ, out.Coalesced = n, a.NNZ(), k
		out.X = bigX[i*n : (i+1)*n : (i+1)*n]
		out.TrueResidual = HostResidual(a, out.X, bigB[i*n:(i+1)*n])
		// A member is judged by its own residual, in both directions:
		// the joint norm neither vouches for a member nor condemns it.
		out.Converged = out.TrueResidual <= spec.Tol
		results[i] = &out
	}
	return results
}
