package serve

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/wal"
)

// The journal is the server's durable job history: every accepted job,
// every verified checkpoint, every terminal state. Replay folds the
// record stream into "who is done, who still owes work, and where can
// the work pick up" — so a restart is a replay, not data loss.
//
// # Records
//
// Each WAL record is one journal record, and its first byte says which
// decoder it needs. Accept and done records are JSON objects
// (journalRecord; they are small and carry jobspec.Spec and JobResult).
// A checkpoint record is binary, because it is the solution vector and
// a vector costs what its bytes cost:
//
//	ckptTag | i64 iter | u64 residual bits | u32 n | u16 len(id) |
//	id | n × u64 float64 bits  (little-endian)
//
// so a checkpoint round-trips bit for bit by construction — NaN
// payloads, −0 and subnormals included — and a record is valid only if
// its length is exactly what its fields say. A record of a kind replay
// does not read — an older build's resume record, or its checkpoint as
// JSON or with a basis string — is skipped: a checkpoint only saves
// progress, so its job replays from its accept record.
//
// # The fold
//
// Replay is an idempotent fold with three rules: a job is pending from
// its first accept until a done record, the latest checkpoint of a
// pending job wins, and once more than retain (the server's RetainDone)
// done records are held the oldest by ordinal leaves. Pending jobs and
// done jobs are ordered by the ordinal (journalRecord.Seq) stamped on
// accept and done records when they are first written, not by where a
// copy of the record sits in the log. A record's id is parsed once, as it
// folds: one that is not "job-N" counts as skipped. Replay keeps a
// checkpoint's bytes and decodes the vector once, at the end, for jobs
// still pending: a checkpoint of a finished job, or a superseded one,
// costs a header parse.
//
// The live journal is the same fold. An append writes its record and
// folds it with the code a replay runs, so the journal's state is the
// fold of its log at every step, retention included, and Replay, a
// reopened journal and the live one cannot disagree. Append has one rule
// of its own: an accept of job N at or below the highest number folded
// (MaxID) writes nothing, since the server issues numbers in increasing
// order, so that job was accepted before.
//
// # Compaction
//
// When the WAL has rotated and the log is at least twice the size the
// last compaction left (so rewriting never costs more than the history
// it replaces), the journal hands wal.Log.Compact a snapshot of the
// fold: its retained done records, and each pending job's accept and
// latest checkpoint. The snapshot's first record also carries MaxID, so
// the highest job number survives the records that held it. When MaxID
// is above zero the snapshot has a first record: the newest done job is
// always retained, and an accepted job is pending or done. Compact
// appends the snapshot, syncs, and deletes the segments sealed before it
// began; the journal on disk is bounded by snapshot + one segment
// instead of by history.
//
// Crash argument. A snapshot record is a copy of a record the log
// already held (same ordinal) or, for a checkpoint, of the latest one.
// A crash leaves one of: (1) all history + part of the snapshot — every
// snapshot record is a duplicate, and duplicates change nothing; (2)
// all history + the whole snapshot — likewise; (3) a suffix of history
// + the whole snapshot — records in the suffix whose job's accept was
// dropped are ignored (checkpoints) or restated (done), the snapshot
// re-establishes every pending job and retained done job with its
// original ordinal and MaxID, and what follows the snapshot is applied
// as it was live. Retention keeps the newest retain done records of
// whatever it has folded, and the snapshot's are the newest of history,
// so the suffix's done records leave again. In each case the fold equals
// the pre-crash fold on Pending, on every Resume, on DoneOrder and on
// MaxID.
const (
	recAccept = "accept" // job admitted: id + spec + submission time
	recDone   = "done"   // terminal state: converged, failed, or rejected — replay skips the job
)

// journalRecord is the JSON envelope of accept and done records.
type journalRecord struct {
	T  string `json:"t"`
	ID string `json:"id"`
	// Seq orders accept records among accepts and done records among
	// dones (see "The fold"). Records written before it existed carry
	// none and take their position's.
	Seq int64 `json:"n,omitempty"`
	// MaxID is the highest job number of the fold a snapshot restates, on
	// the snapshot's first record only (see "Compaction").
	MaxID     int64         `json:"max_id,omitempty"`
	Spec      *jobspec.Spec `json:"spec,omitempty"`
	Submitted time.Time     `json:"submitted,omitempty"`
	Result    *JobResult    `json:"result,omitempty"`

	num int64 // N of ID, set as the record folds
}

// jobID spells job number n as the journal and the server do.
func jobID(n int64) string { return "job-" + strconv.FormatInt(n, 10) }

// jobNumber parses the N of a "job-N" id as jobID spells it: N ≥ 1, no
// sign, no leading zero.
func jobNumber(id string) (int64, bool) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n, err == nil && n > 0 && jobID(n) == id
}

// ckptTag opens a binary checkpoint record. No JSON text starts with
// it (it is neither whitespace nor the first byte of any value).
const ckptTag = 0xCB

// ckptHeaderBytes is the fixed part of a checkpoint record: tag, iter,
// residual, n and the id's length.
const ckptHeaderBytes = 1 + 8 + 8 + 4 + 2

// appendCheckpoint appends the binary checkpoint record to b.
func appendCheckpoint(b []byte, id string, iter int, residual float64, x []float64) ([]byte, error) {
	if id == "" || len(id) > math.MaxUint16 || int64(len(x)) > math.MaxUint32 {
		return b, fmt.Errorf("serve: checkpoint of %q does not fit a record (id %d B, %d values)",
			id, len(id), len(x))
	}
	le := binary.LittleEndian
	b = slices.Grow(b, ckptHeaderBytes+len(id)+8*len(x))
	b = le.AppendUint64(append(b, ckptTag), uint64(int64(iter)))
	b = le.AppendUint64(b, math.Float64bits(residual))
	b = le.AppendUint32(b, uint32(len(x)))
	b = append(le.AppendUint16(b, uint16(len(id))), id...)
	for _, v := range x {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// parseCheckpoint validates a binary checkpoint record and returns its
// fields with the vector still encoded (8 bytes a value). ok is false
// unless the record is exactly as long as its header says.
func parseCheckpoint(p []byte) (id string, rp ResumePoint, x []byte, ok bool) {
	if len(p) < ckptHeaderBytes || p[0] != ckptTag {
		return "", rp, nil, false
	}
	le := binary.LittleEndian
	n, idLen := int64(le.Uint32(p[17:])), int(le.Uint16(p[21:]))
	if idLen == 0 || int64(len(p)) != ckptHeaderBytes+int64(idLen)+8*n {
		return "", rp, nil, false
	}
	rp.Iter = int(int64(le.Uint64(p[1:])))
	rp.Residual = math.Float64frombits(le.Uint64(p[9:]))
	p = p[ckptHeaderBytes:]
	return string(p[:idLen]), rp, p[idLen:], true
}

// decodeCheckpoint decodes a whole binary checkpoint record.
func decodeCheckpoint(p []byte) (string, *ResumePoint, bool) {
	id, rp, x, ok := parseCheckpoint(p)
	if !ok {
		return "", nil, false
	}
	if len(x) > 0 {
		rp.X = make([]float64, len(x)/8)
		for i := range rp.X {
			rp.X[i] = math.Float64frombits(binary.LittleEndian.Uint64(x[8*i:]))
		}
	}
	return id, &rp, true
}

// ResumePoint is where a replayed job picks up: the last persisted
// verified checkpoint.
type ResumePoint struct {
	// Iter is the absolute iteration the checkpoint was taken at.
	Iter int
	// Residual is the host-verified true residual at the checkpoint.
	Residual float64
	// X is the full checkpointed solution vector in index order.
	X []float64
}

// ReplayedJob is one journaled job a restart owes work on: accepted,
// never journaled done.
type ReplayedJob struct {
	ID string
	// Num is the job number the journal takes for this job's records: ID
	// is "job-Num".
	Num       int64
	Spec      jobspec.Spec
	Submitted time.Time
	// Resume is the job's last persisted checkpoint, nil when it never
	// checkpointed (replay re-runs it from iteration 0).
	Resume *ResumePoint
}

// JournalReplay is the folded state of one journal: what a restarting
// server reconstructs.
type JournalReplay struct {
	// Pending holds accepted-but-unfinished jobs in acceptance order —
	// the order they re-enter the queue, preserving FIFO fairness across
	// the crash.
	Pending []*ReplayedJob
	// Done maps the retained finished job ids — the newest RetainDone —
	// to their journaled results, so job status survives a restart.
	Done map[string]*JobResult
	// DoneOrder lists Done's keys in completion order (retention
	// eviction replays in the same order it would have happened live).
	DoneOrder []string
	// MaxID is the highest job number the journal has folded; the
	// server's id counter restarts past it so new submissions never
	// collide with journaled jobs.
	MaxID int64
	// Skipped counts records that passed the WAL checksum but failed to
	// decode, or name no "job-N" — writer version skew, not torn writes
	// (those the WAL truncates). They are skipped, not fatal: an old
	// journal must not brick a new server.
	Skipped int64
}

// pendingJob is the fold's state for one accepted, unfinished job.
type pendingJob struct {
	accept journalRecord
	ckpt   []byte // latest checkpoint record, binary; nil when none
}

// fold is the state the record stream reduces to. The same code folds
// a log being replayed and the records a live journal appends.
type fold struct {
	retain      int   // done records kept, at least 1
	seq         int64 // highest ordinal seen or assigned
	maxID       int64
	skipped     int64
	checkpoints int64 // valid checkpoint records seen
	pending     map[int64]*pendingJob
	done        []*journalRecord         // retained done records, ascending ordinal
	doneJobs    map[int64]*journalRecord // done's records by job number
}

func newFold(retain int) *fold {
	return &fold{retain: retain, pending: make(map[int64]*pendingJob), doneJobs: make(map[int64]*journalRecord)}
}

// apply folds one encoded record. payload is not retained.
func (f *fold) apply(payload []byte) {
	if len(payload) > 0 && payload[0] == ckptTag {
		f.applyCheckpoint(payload)
		return
	}
	var r journalRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		f.skipped++
		return
	}
	f.applyRecord(&r)
}

func (f *fold) applyCheckpoint(payload []byte) {
	id, _, _, ok := parseCheckpoint(payload)
	n, job := jobNumber(id)
	if !ok || !job {
		f.skipped++
		return
	}
	f.checkpoints++
	if p := f.pending[n]; p != nil {
		// Latest checkpoint wins: records are appended in order, so the
		// last one in the log is the furthest verified state.
		p.ckpt = append(p.ckpt[:0], payload...)
	}
}

// applyRecord folds a decoded accept or done record. r is retained.
func (f *fold) applyRecord(r *journalRecord) {
	n, ok := jobNumber(r.ID)
	if !ok || !(r.T == recAccept && r.Spec != nil || r.T == recDone) {
		f.skipped++
		return
	}
	r.num = n
	f.maxID = max(f.maxID, n, r.MaxID)
	r.MaxID = 0 // the next snapshot states its own
	f.stamp(r)
	if r.T == recDone {
		// A copy of a retained done record — a snapshot's — changes
		// nothing.
		if f.doneJobs[n] == nil {
			delete(f.pending, n)
			f.finish(r)
		}
		return
	}
	// Idempotent: a re-journaled accept is one job, and an accept of a
	// retained done job stays done.
	if f.pending[n] == nil && f.doneJobs[n] == nil {
		f.pending[n] = &pendingJob{accept: *r}
	}
}

// finish retains a done record in ordinal order and drops the oldest
// past retain. A record folded in order appends; one a snapshot restates
// out of order is placed by binary search, so nothing sorts.
func (f *fold) finish(r *journalRecord) {
	i := len(f.done)
	if i > 0 && f.done[i-1].Seq > r.Seq {
		i, _ = slices.BinarySearchFunc(f.done, r.Seq, func(d *journalRecord, seq int64) int { return cmp.Compare(d.Seq, seq) })
	}
	f.done = slices.Insert(f.done, i, r)
	f.doneJobs[r.num] = r
	if len(f.done) > f.retain {
		delete(f.doneJobs, f.done[0].num)
		f.done = slices.Delete(f.done, 0, 1)
	}
}

// stamp gives a record written before ordinals existed the next one —
// in such a log position is order — and otherwise advances the counter
// past the record's own.
func (f *fold) stamp(r *journalRecord) {
	if r.Seq == 0 {
		r.Seq = f.seq + 1
	}
	f.seq = max(f.seq, r.Seq)
}

func (f *fold) pendingInOrder() []*pendingJob {
	ps := make([]*pendingJob, 0, len(f.pending))
	for _, p := range f.pending {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(a, b *pendingJob) int { return cmp.Compare(a.accept.Seq, b.accept.Seq) })
	return ps
}

// replay is the fold as a restarting server consumes it. This is where
// checkpoint vectors are decoded: one per job still pending.
func (f *fold) replay() *JournalReplay {
	rep := &JournalReplay{Done: make(map[string]*JobResult, len(f.done)), MaxID: f.maxID, Skipped: f.skipped}
	for _, r := range f.done {
		rep.DoneOrder = append(rep.DoneOrder, r.ID)
		rep.Done[r.ID] = r.Result
	}
	for _, p := range f.pendingInOrder() {
		job := &ReplayedJob{ID: p.accept.ID, Num: p.accept.num, Spec: *p.accept.Spec, Submitted: p.accept.Submitted}
		if p.ckpt != nil {
			_, job.Resume, _ = decodeCheckpoint(p.ckpt)
		}
		rep.Pending = append(rep.Pending, job)
	}
	return rep
}

// snapshot restates the fold as records: what Compact writes in place
// of history. The first record carries maxID; checkpoint records alias
// the fold's buffers.
func (f *fold) snapshot() (recs [][]byte, err error) {
	add := func(r journalRecord) {
		if len(recs) == 0 {
			r.MaxID = f.maxID
		}
		b, e := json.Marshal(r)
		recs, err = append(recs, b), errors.Join(err, e)
	}
	for _, r := range f.done {
		add(*r)
	}
	for _, p := range f.pendingInOrder() {
		add(p.accept)
		if p.ckpt != nil {
			recs = append(recs, p.ckpt)
		}
	}
	return recs, err
}

// Journal is the job journal: typed records over one WAL, the fold of
// everything in it, and the compaction that keeps the two the same
// size. All methods are safe for concurrent use.
type Journal struct {
	log    *wal.Log
	retain int // done records the fold keeps: the server's RetainDone

	// mu makes "append a record, fold it, compact if due" one step, so
	// the fold always equals a replay of the log.
	mu        sync.Mutex
	state     *fold
	buf       []byte // checkpoint encoding scratch
	compacted int64  // log size right after the last compaction

	checkpoints obs.Counter // checkpoint records persisted
	resumed     obs.Counter // jobs re-enqueued from a checkpoint at replay
}

// OpenJournal opens (creating if needed) the journal in dir and replays
// it. fsyncEvery batches the WAL's fsyncs (1 = sync every record).
func OpenJournal(dir string, fsyncEvery int) (*Journal, *JournalReplay, error) {
	return openJournal(dir, wal.Options{FsyncEvery: fsyncEvery}, defaultRetainDone)
}

// openJournal is OpenJournal with the WAL's options and the number of
// done records the fold keeps (at least one, so a snapshot always has a
// record to carry MaxID) spelled out.
func openJournal(dir string, opts wal.Options, retainDone int) (*Journal, *JournalReplay, error) {
	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{log: l, retain: max(retainDone, 1)}
	if j.state, err = j.fold(); err != nil {
		l.Close()
		return nil, nil, err
	}
	rep := j.state.replay()
	for _, p := range rep.Pending {
		if p.Resume != nil {
			j.resumed.Inc()
		}
	}
	return j, rep, nil
}

func (j *Journal) fold() (*fold, error) {
	f := newFold(j.retain)
	return f, j.log.Replay(func(payload []byte) error {
		f.apply(payload)
		return nil
	})
}

// Replay folds the journal's current record stream into a
// JournalReplay. It is a pure function of the log contents: replaying
// twice — or closing and reopening between replays, or compacting —
// yields identical state, and a job appears in Pending at most once no
// matter how many times its records were written.
func (j *Journal) Replay() (*JournalReplay, error) {
	f, err := j.fold()
	if err != nil {
		return nil, err
	}
	return f.replay(), nil
}

// append journals one accept or done record and folds it. An accept of
// a job numbered at or below the highest number folded writes nothing
// (see "The fold").
func (j *Journal) append(r *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if r.T == recAccept && r.num <= j.state.maxID {
		return nil
	}
	r.Seq = j.state.seq + 1
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	if err := j.log.Append(payload); err != nil {
		return err
	}
	j.state.applyRecord(r)
	return j.compactIfDue()
}

// compactIfDue replaces history with a snapshot of the fold once the
// WAL has sealed a segment and the log has doubled since the last
// compaction. A failure is reported by the append that ran into it —
// whose own record is in the log regardless — and retried a doubling
// later, not on every append.
func (j *Journal) compactIfDue() error {
	if j.log.Segments() == 1 || j.log.Stats().BytesOnDisk < 2*j.compacted {
		return nil
	}
	snap, err := j.state.snapshot()
	if err == nil {
		err = j.log.Compact(snap)
	}
	j.compacted = j.log.Stats().BytesOnDisk
	if err != nil {
		return fmt.Errorf("serve: journal compaction: %w", err)
	}
	return nil
}

// Accept journals the admission of job n, as the server numbers jobs.
// Once the covering fsync runs, a crash cannot lose the job.
func (j *Journal) Accept(n int64, spec jobspec.Spec, submitted time.Time) error {
	return j.append(&journalRecord{T: recAccept, ID: jobID(n), num: n, Spec: &spec, Submitted: submitted})
}

// Checkpoint journals one verified checkpoint of job n: iteration, true
// residual and the full solution vector.
func (j *Journal) Checkpoint(n int64, iter int, residual float64, x []float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.buf, err = appendCheckpoint(j.buf[:0], jobID(n), iter, residual, x); err != nil {
		return err
	}
	if err := j.log.Append(j.buf); err != nil {
		return err
	}
	j.checkpoints.Inc()
	j.state.applyCheckpoint(j.buf)
	return j.compactIfDue()
}

// Done journals the terminal state of job n. Replay skips done jobs,
// making restart idempotent; a done record lost to a crash (batched
// fsync) merely re-runs a deterministic solve.
func (j *Journal) Done(n int64, res *JobResult) error {
	return j.append(&journalRecord{T: recDone, ID: jobID(n), Result: res})
}

// Close syncs and closes the underlying WAL.
func (j *Journal) Close() error { return j.log.Close() }

// WALMetricsSnapshot is the journal's slice of GET /metrics: the
// underlying WAL's counters plus the journal-level ones.
type WALMetricsSnapshot struct {
	RecordsAppended      int64 `json:"records_appended"`
	RecordsReplayed      int64 `json:"records_replayed"`
	RecordsTruncated     int64 `json:"records_truncated"`
	TruncatedBytes       int64 `json:"truncated_bytes"`
	Fsyncs               int64 `json:"fsyncs"`
	RecoveryNS           int64 `json:"recovery_ns"`
	Segments             int   `json:"segments"`
	CheckpointsPersisted int64 `json:"checkpoints_persisted"`
	JobsResumed          int64 `json:"jobs_resumed"`
	Compactions          int64 `json:"compactions"`
	SegmentsDropped      int64 `json:"segments_dropped"`
	BytesOnDisk          int64 `json:"bytes_on_disk"`
}

// Metrics snapshots the journal's counters.
func (j *Journal) Metrics() WALMetricsSnapshot {
	st := j.log.Stats()
	return WALMetricsSnapshot{
		RecordsAppended:      st.RecordsAppended,
		RecordsReplayed:      st.RecordsRecovered,
		RecordsTruncated:     st.Truncations,
		TruncatedBytes:       st.TruncatedBytes,
		Fsyncs:               st.Fsyncs,
		RecoveryNS:           st.RecoveryNS,
		Segments:             j.log.Segments(),
		CheckpointsPersisted: j.checkpoints.Load(),
		JobsResumed:          j.resumed.Load(),
		Compactions:          st.Compactions,
		SegmentsDropped:      st.SegmentsDropped,
		BytesOnDisk:          st.BytesOnDisk,
	}
}
