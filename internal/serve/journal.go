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
// Replay is an idempotent fold with two rules: a job is pending from
// its first accept until a done record, and the latest checkpoint of a
// pending job wins. Pending jobs and done jobs are ordered by the
// ordinal (journalRecord.Seq) stamped on accept and done records when
// they are first written, not by where a copy of the record sits in the
// log. Replay keeps a checkpoint's bytes and decodes the vector once, at
// the end, for jobs still pending: a checkpoint of a finished job, or a
// superseded one, costs a header parse.
//
// # Compaction
//
// The journal keeps that fold current as it appends. When the WAL has
// rotated and the log is at least twice the size the last compaction
// left (so rewriting never costs more than the history it replaces),
// the journal hands wal.Log.Compact a snapshot: the last RetainDone done
// records, and each pending job's accept and latest checkpoint. Compact
// appends it, syncs, and deletes the segments sealed before it began;
// the journal on disk is bounded by snapshot + one segment instead of
// by history.
//
// Crash argument. A snapshot record is a copy of a record the log
// already held (same ordinal) or, for a checkpoint, of the latest one.
// A crash leaves one of: (1) all history + part of the snapshot — every
// snapshot record is a duplicate, and duplicates change nothing; (2)
// all history + the whole snapshot — likewise; (3) a suffix of history
// + the whole snapshot — records in the suffix whose job's accept was
// dropped are ignored (checkpoints) or restated (done), the snapshot
// re-establishes every pending job and retained done job with its
// original ordinal, and what follows the snapshot is applied as it was
// live. In each case the fold equals the pre-crash fold on Pending, on
// every Resume, on the retained tail of DoneOrder and on MaxID (the
// done record of the highest job id is never dropped).
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
	Seq       int64         `json:"n,omitempty"`
	Spec      *jobspec.Spec `json:"spec,omitempty"`
	Submitted time.Time     `json:"submitted,omitempty"`
	Result    *JobResult    `json:"result,omitempty"`
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
	ID        string
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
	// Done maps finished job ids to their journaled results, so job
	// status survives a restart.
	Done map[string]*JobResult
	// DoneOrder lists Done's keys in completion order (retention
	// eviction replays in the same order it would have happened live).
	DoneOrder []string
	// MaxID is the highest numeric suffix among journaled "job-N" ids;
	// the server's id counter restarts past it so new submissions never
	// collide with replayed jobs.
	MaxID int64
	// Skipped counts records that passed the WAL checksum but failed to
	// decode — writer version skew, not torn writes (those the WAL
	// truncates). They are skipped, not fatal: an old journal must not
	// brick a new server.
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
	seq         int64 // highest ordinal seen or assigned
	maxID       int64
	skipped     int64
	checkpoints int64 // valid checkpoint records seen
	pending     map[string]*pendingJob
	done        map[string]*journalRecord
}

func newFold() *fold {
	return &fold{pending: make(map[string]*pendingJob), done: make(map[string]*journalRecord)}
}

// apply folds one encoded record. payload is not retained.
func (f *fold) apply(payload []byte) {
	if len(payload) > 0 && payload[0] == ckptTag {
		f.applyCheckpoint(payload)
		return
	}
	var r journalRecord
	if err := json.Unmarshal(payload, &r); err != nil || r.ID == "" {
		f.skipped++
		return
	}
	f.applyRecord(&r)
}

func (f *fold) applyCheckpoint(payload []byte) {
	id, _, _, ok := parseCheckpoint(payload)
	if !ok {
		f.skipped++
		return
	}
	f.noteID(id)
	f.checkpoints++
	if p := f.pending[id]; p != nil {
		// Latest checkpoint wins: records are appended in order, so the
		// last one in the log is the furthest verified state.
		p.ckpt = append(p.ckpt[:0], payload...)
	}
}

// applyRecord folds a decoded accept or done record. r is retained.
func (f *fold) applyRecord(r *journalRecord) {
	f.noteID(r.ID)
	switch r.T {
	case recAccept:
		if r.Spec == nil {
			f.skipped++
			return
		}
		f.stamp(r)
		// Idempotent: a re-journaled accept is one job, and an accept
		// after done stays done.
		if f.pending[r.ID] == nil && f.done[r.ID] == nil {
			f.pending[r.ID] = &pendingJob{accept: *r}
		}
	case recDone:
		f.stamp(r)
		f.done[r.ID] = r
		delete(f.pending, r.ID)
	default:
		f.skipped++
	}
}

func (f *fold) noteID(id string) {
	if n, ok := numericSuffix(id); ok && n > f.maxID {
		f.maxID = n
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

// bySeq returns m's values ordered by ordinal.
func bySeq[T any](m map[string]*T, seq func(*T) int64) []*T {
	vs := make([]*T, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	slices.SortFunc(vs, func(a, b *T) int { return cmp.Compare(seq(a), seq(b)) })
	return vs
}

func (f *fold) doneInOrder() []*journalRecord {
	return bySeq(f.done, func(r *journalRecord) int64 { return r.Seq })
}

func (f *fold) pendingInOrder() []*pendingJob {
	return bySeq(f.pending, func(p *pendingJob) int64 { return p.accept.Seq })
}

// replay is the fold as a restarting server consumes it. This is where
// checkpoint vectors are decoded: one per job still pending.
func (f *fold) replay() *JournalReplay {
	rep := &JournalReplay{Done: make(map[string]*JobResult), MaxID: f.maxID, Skipped: f.skipped}
	for _, r := range f.doneInOrder() {
		rep.DoneOrder = append(rep.DoneOrder, r.ID)
		rep.Done[r.ID] = r.Result
	}
	for _, p := range f.pendingInOrder() {
		job := &ReplayedJob{ID: p.accept.ID, Spec: *p.accept.Spec, Submitted: p.accept.Submitted}
		if p.ckpt != nil {
			_, job.Resume, _ = decodeCheckpoint(p.ckpt)
		}
		rep.Pending = append(rep.Pending, job)
	}
	return rep
}

// snapshot restates the fold as records: what Compact writes in place
// of history. Checkpoint records alias the fold's buffers.
func (f *fold) snapshot() (recs [][]byte, err error) {
	add := func(r *journalRecord) {
		b, e := json.Marshal(r)
		recs, err = append(recs, b), errors.Join(err, e)
	}
	for _, r := range f.doneInOrder() {
		add(r)
	}
	for _, p := range f.pendingInOrder() {
		add(&p.accept)
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
	retain int // done records a snapshot keeps: the server's RetainDone

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
// done records compaction keeps spelled out.
func openJournal(dir string, opts wal.Options, retainDone int) (*Journal, *JournalReplay, error) {
	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{log: l, retain: retainDone}
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
	j.trimDone()
	return j, rep, nil
}

func (j *Journal) fold() (*fold, error) {
	f := newFold()
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

// numericSuffix parses the N of a "job-N" id.
func numericSuffix(id string) (int64, bool) {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// append journals one accept or done record and folds it. An accept of
// a "job-N" at or below the highest id journaled writes nothing: the
// server accepts only ids above it, so such a job was accepted before —
// the fold holds it pending or done, or trimDone dropped its done record,
// which a replay of the log may still read. Were it written, the fold
// would ignore it, or reopen a finished job, and a copy stamped with a
// fresh ordinal could sit ahead of a snapshot's copy and reorder the next
// replay.
func (j *Journal) append(r *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n, _ := numericSuffix(r.ID); r.T == recAccept && n <= j.state.maxID {
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
	if r.T == recDone {
		j.trimDone()
	}
	return j.compactIfDue()
}

// trimDone drops all but the newest retain done records from the fold,
// and so from the next snapshot. The record of the highest job id
// stays whatever its age: the server's id counter restarts from it.
func (j *Journal) trimDone() {
	f := j.state
	if len(f.done) <= j.retain {
		return
	}
	recs := f.doneInOrder()
	for _, r := range recs[:len(recs)-j.retain] {
		if n, ok := numericSuffix(r.ID); !ok || n != f.maxID {
			delete(f.done, r.ID)
		}
	}
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

// Accept journals a job admission. Once the covering fsync runs, a
// crash cannot lose the job. id must be "job-N", as the server issues
// them: the journal tells a new job from a finished one by N, so any
// other id is an error and writes nothing.
func (j *Journal) Accept(id string, spec jobspec.Spec, submitted time.Time) error {
	if _, ok := numericSuffix(id); !ok {
		return fmt.Errorf("serve: journal accept of %q: want an id job-N", id)
	}
	return j.append(&journalRecord{T: recAccept, ID: id, Spec: &spec, Submitted: submitted})
}

// Checkpoint journals one verified checkpoint: iteration, true
// residual and the full solution vector.
func (j *Journal) Checkpoint(id string, iter int, residual float64, x []float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.buf, err = appendCheckpoint(j.buf[:0], id, iter, residual, x); err != nil {
		return err
	}
	if err := j.log.Append(j.buf); err != nil {
		return err
	}
	j.checkpoints.Inc()
	j.state.applyCheckpoint(j.buf)
	return j.compactIfDue()
}

// Done journals a terminal state. Replay skips done jobs, making
// restart idempotent; a done record lost to a crash (batched fsync)
// merely re-runs a deterministic solve.
func (j *Journal) Done(id string, res *JobResult) error {
	return j.append(&journalRecord{T: recDone, ID: id, Result: res})
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
