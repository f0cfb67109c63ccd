package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/wal"
)

// awkwardFloats are the values a text round trip is most likely to
// bend: NaNs with payloads, infinities, the signed zero, subnormals.
var awkwardFloats = []float64{
	math.Float64frombits(0x7FF8000000000001), // quiet NaN with a payload
	math.Float64frombits(0x7FF0000000000001), // signalling NaN
	math.Float64frombits(0xFFF8DEADBEEF0000), // negative NaN with a payload
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
	math.MaxFloat64, 0.1, -1e-300, 1 + 0x1p-52,
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// The binary checkpoint record is bit-exact by construction, through
// the encoder alone and through a journal on disk.
func TestCheckpointRoundTripBits(t *testing.T) {
	for _, residual := range awkwardFloats {
		rec, err := appendCheckpoint(nil, "job-7", 41, residual, awkwardFloats)
		if err != nil {
			t.Fatal(err)
		}
		id, rp, ok := decodeCheckpoint(rec)
		if !ok || id != "job-7" || rp.Iter != 41 ||
			math.Float64bits(rp.Residual) != math.Float64bits(residual) || !sameBits(rp.X, awkwardFloats) {
			t.Fatalf("residual %x: decoded %q %+v ok=%v", math.Float64bits(residual), id, rp, ok)
		}
	}
	if _, err := appendCheckpoint(nil, "", 1, 0, nil); err == nil {
		t.Fatal("a checkpoint without a job id was encoded")
	}

	dir := t.TempDir()
	jn, _, err := OpenJournal(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Accept(7, testSpec(nil), time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := jn.Checkpoint(7, -3, awkwardFloats[0], awkwardFloats); err != nil {
		t.Fatal(err)
	}
	jn.Close()
	_, rep, err := OpenJournal(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].Resume == nil {
		t.Fatalf("replay = %+v", rep)
	}
	rp := rep.Pending[0].Resume
	if rp.Iter != -3 || math.Float64bits(rp.Residual) != math.Float64bits(awkwardFloats[0]) || !sameBits(rp.X, awkwardFloats) {
		t.Fatalf("resume point after the disk round trip = %+v", rp)
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes behind the checkpoint tag
// to the decoder and to the fold. They never panic and never allocate
// past the payload's size; a record either fails cleanly — and the fold
// counts it in Skipped — or re-encodes to the same bytes, and the fold
// skips it only if its id is not "job-N".
func FuzzDecodeCheckpoint(f *testing.F) {
	good, _ := appendCheckpoint(nil, "job-1", 8, 1e-5, []float64{3, 4})
	f.Add(good[1:])
	f.Add(good[1 : len(good)-1])                  // one byte short
	f.Add(append(good[1:len(good):len(good)], 0)) // one byte long
	f.Add([]byte{})                               // tag alone
	f.Add(bytes.Repeat([]byte{0xFF}, 40))         // every length field hostile
	f.Add(make([]byte, ckptHeaderBytes-1))        // empty id
	huge := append([]byte(nil), good[1:]...)
	binary.LittleEndian.PutUint32(huge[16:], math.MaxUint32) // n claims 32 GiB
	f.Add(huge)
	empty, _ := appendCheckpoint(nil, "j", 0, 0, nil)
	f.Add(empty[1:])

	f.Fuzz(func(t *testing.T, body []byte) {
		payload := append([]byte{ckptTag}, body...)
		var id string
		var rp *ResumePoint
		var ok bool
		allocs := testing.AllocsPerRun(1, func() { id, rp, ok = decodeCheckpoint(payload) })
		fold := newFold(1)
		fold.pending[1] = &pendingJob{accept: journalRecord{T: recAccept, ID: "job-1", Seq: 1, num: 1}}
		fold.apply(payload)
		if !ok {
			if allocs > 2 { // at most the ResumePoint and the id the payload holds
				t.Fatalf("rejecting the record allocated %v times", allocs)
			}
			if fold.skipped != 1 || fold.pending[1].ckpt != nil {
				t.Fatalf("fold kept an undecodable checkpoint: skipped=%d", fold.skipped)
			}
			return
		}
		// id, the ResumePoint and the vector: nothing sized by a length
		// field the payload does not back.
		if allocs > 3 || 8*len(rp.X)+len(id) > len(payload) {
			t.Fatalf("decoding %d bytes allocated %v times, %d values", len(payload), allocs, len(rp.X))
		}
		again, err := appendCheckpoint(nil, id, rp.Iter, rp.Residual, rp.X)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("decoded record re-encodes differently (err %v):\n% x\n% x", err, payload, again)
		}
		if _, job := jobNumber(id); (fold.skipped == 0) != job || (id == "job-1") != (fold.pending[1].ckpt != nil) {
			t.Fatalf("fold disagrees with the decoder on a valid record for %q", id)
		}
	})
}

// appendRaw writes records straight into the WAL under dir, as an
// older server would have: a []byte as it is, anything else as JSON.
func appendRaw(t *testing.T, dir string, records ...any) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{FsyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range records {
		b, raw := r.([]byte)
		if !raw {
			if b, err = json.Marshal(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

// walPayloads reads every record under dir.
func walPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]byte
	if err := l.Replay(func(p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// withFields is rec's JSON with extra keys merged into its object at
// key (the whole record when key is ""): the fields an older build wrote
// that this one no longer declares.
func withFields(t *testing.T, rec journalRecord, key string, extra map[string]any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	obj := m
	if key != "" {
		obj = m[key].(map[string]any)
	}
	for k, v := range extra {
		obj[k] = v
	}
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return b
}

// parentCheckpoint is a binary checkpoint record in an older layout: a
// u16 basis length after the id's, and the basis string after the id.
func parentCheckpoint(id string, iter int, residual float64, x []float64, basis string) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64([]byte{ckptTag}, uint64(int64(iter)))
	b = le.AppendUint64(b, math.Float64bits(residual))
	b = le.AppendUint32(b, uint32(len(x)))
	b = le.AppendUint16(le.AppendUint16(b, uint16(len(id))), uint16(len(basis)))
	b = append(append(b, id...), basis...)
	for _, v := range x {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// A journal an older build wrote — no ordinals, specs and results
// carrying the since-removed periodic-replacement knobs and their
// accounting — replays every accept and done record. The records replay
// no longer reads — a checkpoint as JSON, one in the binary layout with
// a basis string, a resume record — are each skipped, so the job they
// name replays from its accept, and the first compaction drops them.
func TestJournalReplaysParentFormat(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(nil)
	now := time.Unix(1700000000, 0).UTC()
	appendRaw(t, dir,
		journalRecord{T: recAccept, ID: "job-1", Spec: &spec, Submitted: now},
		journalRecord{T: recAccept, ID: "job-2", Spec: &spec, Submitted: now},
		withFields(t, journalRecord{T: "checkpoint", ID: "job-2"}, "",
			map[string]any{"iter": 5, "residual": 0.5, "x": []float64{9, 9}, "basis": "fp"}),
		journalRecord{T: recDone, ID: "job-1", Result: &JobResult{Solver: "cg", Converged: true}},
		withFields(t, journalRecord{T: recAccept, ID: "job-3", Spec: &spec, Submitted: now},
			"spec", map[string]any{"replace_every": 50, "drift_tol": 1e-6}),
		parentCheckpoint("job-2", 10, 0x1p-30, []float64{1, 2, 3}, "*sparse.CSR@0xc000123456;"),
		withFields(t, journalRecord{T: "resume", ID: "job-2"}, "", map[string]any{"iter": 10}),
		withFields(t, journalRecord{T: recDone, ID: "job-4", Result: &JobResult{Solver: "cg"}},
			"result", map[string]any{"max_drift": 3.5e-9, "piece_restores": 2}),
	)

	check := func(rep *JournalReplay) {
		t.Helper()
		if len(rep.Pending) != 2 || rep.Pending[0].ID != "job-2" || rep.Pending[1].ID != "job-3" {
			t.Fatalf("pending = %+v", rep.Pending)
		}
		if rp := rep.Pending[0].Resume; rp != nil {
			t.Fatalf("job-2 resumes from %+v, want its accept", rp)
		}
		if !reflect.DeepEqual(rep.DoneOrder, []string{"job-1", "job-4"}) || !rep.Done["job-1"].Converged ||
			rep.Done["job-4"].Solver != "cg" {
			t.Fatalf("done = %v %+v", rep.DoneOrder, rep.Done)
		}
		if !reflect.DeepEqual(rep.Pending[1].Spec, spec) {
			t.Fatalf("job-3 spec = %+v, want %+v", rep.Pending[1].Spec, spec)
		}
		if rep.MaxID != 4 {
			t.Fatalf("MaxID %d", rep.MaxID)
		}
	}
	// Small segments: the old records already span several, so the
	// first append of this incarnation compacts.
	jn, rep, err := openJournal(dir, wal.Options{SegmentBytes: 512, FsyncEvery: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	check(rep)
	if rep.Skipped != 3 {
		t.Fatalf("skipped %d records, want the two checkpoints and the resume record", rep.Skipped)
	}
	if m := jn.Metrics(); m.JobsResumed != 0 {
		t.Fatalf("%d jobs resumed from skipped checkpoints", m.JobsResumed)
	}
	if err := jn.Checkpoint(1, 1, 0, nil); err != nil { // job-1 is done: the fold is unchanged
		t.Fatal(err)
	}
	if m := jn.Metrics(); m.Compactions != 1 || m.SegmentsDropped == 0 {
		t.Fatalf("no compaction on the first append to a multi-segment journal: %+v", m)
	}
	again, err := jn.Replay()
	if err != nil {
		t.Fatal(err)
	}
	check(again)
	jn.Close()

	for _, p := range walPayloads(t, dir) {
		if _, _, ok := decodeCheckpoint(p); ok {
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(p, &r); err != nil || (r.T != recAccept && r.T != recDone) {
			t.Fatalf("a record replay does not read survived compaction: %q", p)
		}
		if r.Seq == 0 {
			t.Fatalf("compaction wrote a %s record without an ordinal: %q", r.T, p)
		}
	}
}

// An accept record an older build wrote with the since-removed
// retry_backoff field still replays its job as pending, with the spec
// this build declares: the journal decodes with json.Unmarshal, which
// ignores the key, where the HTTP handler refuses it.
func TestFaultJournalReplaysRetryBackoffSpec(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(func(s *jobspec.Spec) { s.Faults = "panic=0.04,seed=1"; s.Retries = 3 })
	appendRaw(t, dir,
		withFields(t, journalRecord{T: recAccept, ID: "job-1", Spec: &spec, Submitted: journalEpoch},
			"spec", map[string]any{"retry_backoff": 1500000000}),
	)
	jn, rep, err := openJournal(dir, wal.Options{FsyncEvery: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	if len(rep.Pending) != 1 || rep.Pending[0].ID != "job-1" || rep.Skipped != 0 {
		t.Fatalf("replay = %+v, want job-1 pending and nothing skipped", rep)
	}
	if !reflect.DeepEqual(rep.Pending[0].Spec, spec) {
		t.Fatalf("job-1 spec = %+v, want %+v", rep.Pending[0].Spec, spec)
	}
}

// journalEpoch is the submission time of every job the journal tests
// accept.
var journalEpoch = time.Unix(1700000000, 0).UTC()

func mustOK(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dirFiles reads every file under dir.
func dirFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	mustOK(t, err)
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		mustOK(t, err)
		files[e.Name()] = b
	}
	return files
}

// writeFiles makes dir hold exactly files.
func writeFiles(t testing.TB, dir string, files map[string][]byte) {
	t.Helper()
	for name := range dirFiles(t, dir) {
		mustOK(t, os.Remove(filepath.Join(dir, name)))
	}
	for name, b := range files {
		mustOK(t, os.WriteFile(filepath.Join(dir, name), b, 0o644))
	}
}

// grownSegments lists, in log order, the segments that hold more bytes
// after an operation than before it.
func grownSegments(before, after map[string][]byte) []string {
	var names []string
	for name, b := range after {
		if len(b) > len(before[name]) {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// appended is how many bytes an operation wrote to the log, and how
// many of them its own record took: the first it wrote, ahead of any
// snapshot its compaction appended.
func appended(before, after map[string][]byte) (total, own int) {
	names := grownSegments(before, after)
	for _, name := range names {
		total += len(after[name]) - len(before[name])
	}
	if total > 0 {
		own = 8 + int(binary.LittleEndian.Uint32(after[names[0]][len(before[names[0]]):]))
	}
	return total, own
}

// tornLog is the directory a crash leaves when it lands cut bytes into
// what an operation wrote: the files as before, with the segments the
// operation grew or created holding their share of the first cut bytes.
// The segments its compaction deleted are still there, because deletion
// waits for the whole snapshot.
func tornLog(before, after map[string][]byte, cut int) map[string][]byte {
	torn := maps.Clone(before)
	for _, name := range grownSegments(before, after) {
		if cut == 0 {
			break
		}
		n := min(cut, len(after[name])-len(before[name]))
		torn[name] = after[name][:len(before[name])+n]
		cut -= n
	}
	return torn
}

// journalModel is the test's own fold of the traffic it generates: the
// journal's rules restated over job numbers.
type journalModel struct {
	retain  int
	pending []int64
	iter    map[int64]int
	x       map[int64][]float64
	done    []int64 // every finished job once, in completion order
	maxID   int64
}

func newJournalModel(retain int) *journalModel {
	return &journalModel{retain: retain, iter: map[int64]int{}, x: map[int64][]float64{}}
}

// accept admits job n unless a job numbered n or higher was journaled.
func (m *journalModel) accept(n int64) {
	if n > m.maxID {
		m.pending, m.maxID = append(m.pending, n), n
	}
}

// checkpoint moves job n's resume point, if n is pending.
func (m *journalModel) checkpoint(n int64, iter int, x []float64) {
	if slices.Contains(m.pending, n) {
		m.iter[n], m.x[n] = iter, x
	}
}

// finish closes job n, unless its done record is among the retained
// ones, which a second copy does not change.
func (m *journalModel) finish(n int64) {
	if slices.Contains(m.retained(), n) {
		return
	}
	m.pending = slices.DeleteFunc(m.pending, func(p int64) bool { return p == n })
	m.done = append(slices.DeleteFunc(m.done, func(d int64) bool { return d == n }), n)
	delete(m.iter, n)
	delete(m.x, n)
	m.maxID = max(m.maxID, n)
}

// retained is the newest retain finished jobs, oldest first.
func (m *journalModel) retained() []int64 { return m.done[max(0, len(m.done)-m.retain):] }

// check compares a replay with the model: Pending order, every resume
// point bit for bit, the retained done jobs — the newest retain — in
// order with their results and nothing else, MaxID.
func (m *journalModel) check(t testing.TB, what string, rep *JournalReplay) {
	t.Helper()
	var nums []int64
	for _, p := range rep.Pending {
		nums = append(nums, p.Num)
		switch want, ok := m.iter[p.Num]; {
		case !ok && p.Resume != nil:
			t.Fatalf("%s: %s resumes from iteration %d, never checkpointed", what, p.ID, p.Resume.Iter)
		case ok && (p.Resume == nil || p.Resume.Iter != want || !sameBits(p.Resume.X, m.x[p.Num])):
			t.Fatalf("%s: %s resume point = %+v, want iteration %d", what, p.ID, p.Resume, want)
		}
		if p.ID != jobID(p.Num) || p.Spec.Matrix != "lap2d:16x16" || p.Submitted.IsZero() {
			t.Fatalf("%s: job %d lost its accept record's content: %+v", what, p.Num, p)
		}
	}
	if !slices.Equal(nums, m.pending) {
		t.Fatalf("%s: pending = %v, want %v", what, nums, m.pending)
	}
	var done []string
	for _, n := range m.retained() {
		done = append(done, jobID(n))
	}
	if !slices.Equal(rep.DoneOrder, done) || len(rep.Done) != len(done) {
		t.Fatalf("%s: done = %v (%d results), want %v", what, rep.DoneOrder, len(rep.Done), done)
	}
	for _, id := range done {
		if r := rep.Done[id]; r == nil || r.Solver != id {
			t.Fatalf("%s: done result of %s = %+v", what, id, r)
		}
	}
	if rep.MaxID != m.maxID {
		t.Fatalf("%s: MaxID = %d, want %d", what, rep.MaxID, m.maxID)
	}
}

// checkViews holds every view to the model, so the views agree with one
// another on all the model states.
func (m *journalModel) checkViews(t testing.TB, what string, views []journalView) {
	t.Helper()
	for _, v := range views {
		m.check(t, what+": "+v.what, v.rep)
	}
}

// journalOp is one operation of a test's traffic, as a journal and as
// the model take it.
type journalOp struct {
	what   string
	run    func(*Journal) error
	update func(*journalModel)
}

func acceptOp(n int64) journalOp {
	spec := testSpec(nil)
	return journalOp{fmt.Sprintf("accept %d", n),
		func(j *Journal) error { return j.Accept(n, spec, journalEpoch) },
		func(m *journalModel) { m.accept(n) }}
}

// checkpointOp checkpoints job n at iter with a vector of the given
// length, drawn from awkwardFloats.
func checkpointOp(n int64, iter, values int) journalOp {
	x := make([]float64, values)
	for i := range x {
		x[i] = awkwardFloats[(i+iter)%len(awkwardFloats)]
	}
	return journalOp{fmt.Sprintf("checkpoint %d@%d", n, iter),
		func(j *Journal) error { return j.Checkpoint(n, iter, 1/float64(iter), x) },
		func(m *journalModel) { m.checkpoint(n, iter, x) }}
}

// doneOp finishes job n with a result naming it.
func doneOp(n int64) journalOp {
	return journalOp{fmt.Sprintf("done %d", n),
		func(j *Journal) error { return j.Done(n, &JobResult{Solver: jobID(n)}) },
		func(m *journalModel) { m.finish(n) }}
}

// apply runs op on jn and the model.
func (m *journalModel) apply(t testing.TB, jn *Journal, op journalOp) {
	t.Helper()
	if err := op.run(jn); err != nil {
		t.Fatalf("%s: %v", op.what, err)
	}
	op.update(m)
}

type journalView struct {
	what string
	rep  *JournalReplay
}

// journalViews returns the live fold of jn and every replay a restart
// could see of its log: Replay, and a copy of dir reopened, compacted,
// and compacted then reopened. jn stays open.
func journalViews(t testing.TB, jn *Journal, dir string, opts wal.Options) []journalView {
	t.Helper()
	jn.mu.Lock()
	live := jn.state.replay()
	jn.mu.Unlock()
	replayed, err := jn.Replay()
	mustOK(t, err)
	cp := t.TempDir()
	writeFiles(t, cp, dirFiles(t, dir))
	jc, reopened, err := openJournal(cp, opts, jn.retain)
	mustOK(t, err)
	mustOK(t, forceCompaction(jc))
	compacted, err := jc.Replay()
	mustOK(t, err)
	mustOK(t, jc.Close())
	jc, compactedReopened, err := openJournal(cp, opts, jn.retain)
	mustOK(t, err)
	mustOK(t, jc.Close())
	return []journalView{{"live fold", live}, {"replay", replayed}, {"reopened", reopened},
		{"compacted", compacted}, {"compacted and reopened", compactedReopened}}
}

// forceCompaction compacts jn whether or not a compaction is due.
func forceCompaction(jn *Journal) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	snap, err := jn.state.snapshot()
	if err != nil {
		return err
	}
	return jn.log.Compact(snap)
}

// Compaction is crash-safe: at every point a kill can land — part of
// the snapshot written, all of it synced and nothing deleted, some of
// the old segments deleted — the directory replays to the state the
// uncompacted history folds to.
func TestJournalCompactionCrashSafe(t *testing.T) {
	const retain = 3
	opts := wal.Options{SegmentBytes: 2048, FsyncEvery: 1 << 20}
	dir := t.TempDir()
	jn, _, err := openJournal(dir, opts, retain)
	mustOK(t, err)
	defer jn.Close()
	// The reference journal takes the same traffic and never rotates.
	ref, _, err := openJournal(t.TempDir(), wal.Options{FsyncEvery: 1 << 20}, retain)
	mustOK(t, err)
	defer ref.Close()
	model := newJournalModel(retain)
	states := 0

	// replayOf opens a copy of the journal made of files and checks it.
	replayOf := func(what string, files map[string][]byte) {
		t.Helper()
		tmp := t.TempDir()
		writeFiles(t, tmp, files)
		j2, rep, err := openJournal(tmp, opts, retain)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		j2.Close()
		model.check(t, what, rep)
		states++
	}

	// step applies one operation to both journals and the model; when it
	// compacted, it rebuilds every directory a crash inside that
	// compaction could have left and replays each.
	step := func(op journalOp) {
		t.Helper()
		before := dirFiles(t, dir)
		compactions := jn.Metrics().Compactions
		mustOK(t, op.run(ref))
		model.apply(t, jn, op)
		if jn.Metrics().Compactions == compactions {
			return
		}
		after := dirFiles(t, dir)
		refRep, err := ref.Replay()
		mustOK(t, err)
		model.check(t, op.what+": uncompacted fold", refRep)

		// Kill point 2: the snapshot is durable, nothing is deleted yet.
		// A file in both is the active segment, which only grew.
		synced := maps.Clone(before)
		var dropped []string
		for name := range before {
			if _, kept := after[name]; !kept {
				dropped = append(dropped, name)
			}
		}
		for name, b := range after {
			if !bytes.HasPrefix(b, before[name]) {
				t.Fatalf("%s: compaction rewrote %s in place", op.what, name)
			}
			synced[name] = b
		}
		slices.Sort(dropped)
		if len(dropped) == 0 {
			t.Fatalf("%s: a compaction dropped nothing", op.what)
		}
		replayOf(op.what+": snapshot synced, nothing deleted", synced)

		// Kill point 3: the old segments go oldest first.
		for k := 1; k <= len(dropped); k++ {
			partial := make(map[string][]byte)
			for name, b := range synced {
				if !slices.Contains(dropped[:k], name) {
					partial[name] = b
				}
			}
			replayOf(fmt.Sprintf("%s: %d of %d old segments deleted", op.what, k, len(dropped)), partial)
		}

		// Kill point 1: the operation's own record is down, the snapshot
		// behind it is cut short — at a record boundary, inside a record,
		// and (when the snapshot rotated) in an earlier segment.
		total, own := appended(before, after)
		snapshot := total - own
		for _, keep := range []int{0, 1, snapshot / 3, snapshot / 2, snapshot - 1} {
			replayOf(fmt.Sprintf("%s: %d of %d snapshot bytes written", op.what, keep, snapshot),
				tornLog(before, after, own+keep))
		}
	}

	// Three jobs in flight at a time, finishing out of acceptance order,
	// every one checkpointing; each job's checkpoints are a quarter of a
	// segment, so a handful of jobs is a rotation.
	step(acceptOp(1))
	step(acceptOp(2))
	for n := int64(3); n <= 24; n++ {
		step(acceptOp(n))
		for iter := 10; iter <= 30; iter += 10 {
			step(checkpointOp(n-1, iter, 20))
		}
		step(checkpointOp(n, 5, 20))
		if n%2 == 0 {
			step(doneOp(n - 1))
			step(doneOp(n - 2))
		}
	}
	// A job whose checkpoint alone is larger than a segment: every
	// snapshot from here on rotates the log while it is being written.
	step(acceptOp(25))
	for iter := 1; iter <= 6; iter++ {
		step(checkpointOp(25, iter, 400))
		step(checkpointOp(24, 40+iter, 20))
	}
	step(doneOp(25))
	// The highest job finishes first and more than retain jobs after it:
	// its done record leaves the retained tail, and its number stays ...
	for n := int64(26); n <= 31; n++ {
		step(acceptOp(n))
	}
	step(doneOp(31))
	for n := int64(26); n <= 30; n++ {
		for iter := 1; iter <= 4; iter++ {
			step(checkpointOp(n, iter, 30))
		}
		step(doneOp(n))
	}
	// ... through compactions that copy no record of job 31's: the
	// snapshot's first record carries it.
	compactions := jn.Metrics().Compactions
	for iter := 50; jn.Metrics().Compactions < compactions+2; iter++ {
		step(checkpointOp(24, iter, 100))
	}

	m := jn.Metrics()
	if m.Compactions < 5 {
		t.Fatalf("only %d compactions; the traffic was meant to cross at least 5", m.Compactions)
	}
	final, err := jn.Replay()
	mustOK(t, err)
	model.check(t, "final compacted journal", final)
	if _, ok := final.Done[jobID(31)]; ok || final.MaxID != 31 {
		t.Fatalf("done set on disk %v, MaxID %d: want job-31's record gone and its number kept", final.DoneOrder, final.MaxID)
	}
	t.Logf("%d compactions dropped %d segments; %d crash states replayed", m.Compactions, m.SegmentsDropped, states)
}

// A second accept of a job the journal already holds writes nothing, so
// it cannot reorder a replay: were it written with a fresh ordinal, the
// compaction its own append triggers would leave it in the active
// segment ahead of the snapshot's copy, and the reopened journal would
// list job-2 after job-3.
func TestJournalDuplicateAcceptKeepsOrdinal(t *testing.T) {
	opts := wal.Options{SegmentBytes: 1024, FsyncEvery: 1 << 20}
	dir := t.TempDir()
	m := newJournalModel(4)
	jn, _, err := openJournal(dir, opts, m.retain)
	mustOK(t, err)
	defer jn.Close()
	for _, op := range []journalOp{acceptOp(1), acceptOp(2), doneOp(1), acceptOp(3)} {
		m.apply(t, jn, op)
	}
	// Fill the first segment, so the next record rotates the log and
	// its append compacts.
	for jn.Metrics().BytesOnDisk < opts.SegmentBytes {
		m.apply(t, jn, checkpointOp(3, 1, 8))
	}
	appended := jn.Metrics().RecordsAppended
	m.apply(t, jn, acceptOp(2)) // pending: the duplicate
	m.apply(t, jn, acceptOp(1)) // done: stays done
	if got := jn.Metrics().RecordsAppended - appended; got != 0 {
		t.Errorf("accepts of held jobs appended %d records", got)
	}
	m.apply(t, jn, checkpointOp(3, 2, 8))
	if jn.Metrics().Compactions == 0 {
		t.Fatal("no compaction: the scenario needs one")
	}
	if !slices.Equal(m.pending, []int64{2, 3}) {
		t.Fatalf("model pending %v, want [2 3]", m.pending)
	}
	m.checkViews(t, "after the duplicate accepts", journalViews(t, jn, dir, opts))
}

// A done record that retention dropped from the fold still closes its
// job. With one done record retained, job-1, job-2 and job-3 finish, and
// job-1 is accepted again: the accept writes nothing, so the live fold,
// a replay, a compacted journal and a reopened one all hold no pending
// job and job-3's done record alone. (The live fold once reopened job-1
// while a replay of the same log kept it done.)
func TestJournalReacceptAfterTrimmedDoneStaysDone(t *testing.T) {
	opts := wal.Options{SegmentBytes: 256, FsyncEvery: 1 << 20}
	dir := t.TempDir()
	m := newJournalModel(1)
	jn, _, err := openJournal(dir, opts, m.retain)
	mustOK(t, err)
	defer jn.Close()
	for n := int64(1); n <= 3; n++ {
		m.apply(t, jn, acceptOp(n))
		m.apply(t, jn, doneOp(n))
	}
	appended := jn.Metrics().RecordsAppended
	m.apply(t, jn, acceptOp(1))
	if got := jn.Metrics().RecordsAppended - appended; got != 0 {
		t.Errorf("re-accepting a finished job appended %d records", got)
	}
	m.checkViews(t, "after the re-accept", journalViews(t, jn, dir, opts))
}

// foreignRecords are records whose ids are not "job-N" as jobID spells
// it, in the order an old journal could hold them: the server never
// wrote one, and Accept's number cannot spell one.
func foreignRecords() []any {
	spec := testSpec(nil)
	accept := func(id string) journalRecord {
		return journalRecord{T: recAccept, ID: id, Spec: &spec, Submitted: journalEpoch}
	}
	done := func(id string) journalRecord {
		return journalRecord{T: recDone, ID: id, Result: &JobResult{Solver: id}}
	}
	ckpt, _ := appendCheckpoint(nil, "a", 1, 0, []float64{1})
	return []any{accept("a"), done("a"), accept("b"), done("b"), accept("a"), ckpt,
		accept("job-x"), accept("job-"), accept("1"), accept("job-0"), accept("job-07"),
		accept("job--3"), accept("job-+4"), done("job-99999999999999999999")}
}

// The journal tells a new job from a finished one by the N of its "job-N"
// id, so a record of any other id is skipped by every view and never
// pending. Once such ids were journaled, retain 1 and a re-accepted "a"
// left the live fold with a pending job that a replay of the same log did
// not list.
func TestJournalRejectsIDWithoutJobNumber(t *testing.T) {
	opts := wal.Options{FsyncEvery: 1 << 20}
	dir := t.TempDir()
	foreign := foreignRecords()
	appendRaw(t, dir, foreign...)
	m := newJournalModel(1)
	jn, rep, err := openJournal(dir, opts, m.retain)
	mustOK(t, err)
	defer jn.Close()
	if rep.Skipped != int64(len(foreign)) {
		t.Errorf("skipped %d of %d foreign records", rep.Skipped, len(foreign))
	}
	m.checkViews(t, "foreign records alone", journalViews(t, jn, dir, opts))
	for _, op := range []journalOp{acceptOp(1), acceptOp(2), doneOp(1), acceptOp(1)} {
		m.apply(t, jn, op)
	}
	m.checkViews(t, "foreign records, then jobs", journalViews(t, jn, dir, opts))
}

// FuzzJournal drives a journal with random traffic — accept the next
// job or re-accept an old one, checkpoint or finish a job, compact,
// close and reopen, or crash inside one of the first four — and holds
// the live fold and every replay a restart could see (journalViews) to
// journalModel after each operation. The journal syncs every record, so
// a crash costs at most the operation it cut short: no acknowledged
// accept is lost, and no finished job is pending again. foreign starts
// the log with foreignRecords, which every view skips.
//
// An operation is one byte: the low three bits its kind, the rest its
// argument (see op below).
func FuzzJournal(f *testing.F) {
	const (
		accept = iota
		reaccept
		checkpoint
		done
		compact
		reopen
		crash
	)
	op := func(kind, arg int) byte { return byte(arg<<3 | kind) }
	// TestJournalDuplicateAcceptKeepsOrdinal, retain 4: checkpoints of
	// job 3 (the second pending job) of 48 values fill the first segment.
	f.Add(uint8(3), false, []byte{op(accept, 0), op(accept, 0), op(done, 0), op(accept, 0),
		op(checkpoint, 25), op(checkpoint, 25), op(checkpoint, 25), op(reaccept, 2), op(reaccept, 1),
		op(checkpoint, 25), op(compact, 0), op(reopen, 0)})
	// TestJournalReacceptAfterTrimmedDoneStaysDone, retain 1.
	f.Add(uint8(0), false, []byte{op(accept, 0), op(done, 0), op(accept, 0), op(done, 0),
		op(accept, 0), op(done, 0), op(reaccept, 1), op(reopen, 0), op(compact, 0)})
	// A crash inside a compaction, retain 2: the checkpoint the crash
	// cuts short rotates the log and compacts, and the cut lands at 7/8
	// of what it wrote, inside the snapshot.
	f.Add(uint8(1), false, []byte{op(accept, 0), op(accept, 0), op(checkpoint, 24), op(checkpoint, 25),
		op(checkpoint, 24), op(done, 1), op(accept, 0), op(checkpoint, 25), op(checkpoint, 24),
		op(crash, 30), op(checkpoint, 25), op(crash, 14)})
	// A log holding records whose ids are not "job-N".
	f.Add(uint8(2), true, []byte{op(accept, 0), op(checkpoint, 8), op(reaccept, 0), op(done, 0),
		op(reopen, 0), op(accept, 0)})

	f.Fuzz(func(t *testing.T, retain uint8, foreign bool, ops []byte) {
		opts := wal.Options{SegmentBytes: 1024, FsyncEvery: 1}
		dir := t.TempDir()
		if foreign {
			appendRaw(t, dir, foreignRecords()...)
		}
		m := newJournalModel(1 + int(retain%4))
		jn, _, err := openJournal(dir, opts, m.retain)
		mustOK(t, err)
		defer func() { jn.Close() }()
		iter := 0
		// traffic is the operation of a kind below compact: a checkpoint
		// or a done names a pending job when there is one, and otherwise
		// the next job number, which no journal holds.
		traffic := func(kind, arg int) journalOp {
			n := m.maxID + 1
			if len(m.pending) > 0 {
				n = m.pending[arg%len(m.pending)]
			}
			switch kind {
			case accept:
				return acceptOp(m.maxID + 1)
			case reaccept:
				return acceptOp(int64(arg) % (m.maxID + 1))
			case checkpoint:
				iter++
				return checkpointOp(n, iter, 16*(arg/8))
			}
			return doneOp(n)
		}
		for i, b := range ops[:min(len(ops), 64)] {
			kind, arg := int(b&7), int(b>>3)
			what := ""
			switch kind {
			case compact:
				what = "compact"
				mustOK(t, forceCompaction(jn))
			case reopen:
				what = "reopen"
				mustOK(t, jn.Close())
				jn, _, err = openJournal(dir, opts, m.retain)
				mustOK(t, err)
			case crash, crash + 1:
				// The crash lands in [0, 7/8] of what the operation wrote;
				// the operation counts if its own record is whole.
				o := traffic(arg%4, arg)
				before := dirFiles(t, dir)
				mustOK(t, o.run(jn))
				mustOK(t, jn.Close())
				after := dirFiles(t, dir)
				total, own := appended(before, after)
				cut := total * (arg / 4) / 8
				what = fmt.Sprintf("crash %d of %d bytes into %s", cut, total, o.what)
				if total > 0 {
					writeFiles(t, dir, tornLog(before, after, cut))
				}
				if cut >= own {
					o.update(m)
				}
				jn, _, err = openJournal(dir, opts, m.retain)
				mustOK(t, err)
			default:
				o := traffic(kind, arg)
				what = o.what
				m.apply(t, jn, o)
			}
			m.checkViews(t, fmt.Sprintf("op %d, %s", i, what), journalViews(t, jn, dir, opts))
		}
	})
}

// The journal on disk follows the live set, not history: ten times the
// jobs leave it within a segment of where the first batch left it.
func TestJournalSizeBoundedByLiveSet(t *testing.T) {
	opts := wal.Options{SegmentBytes: 8192, FsyncEvery: 1 << 20}
	dir := t.TempDir()
	jn, _, err := openJournal(dir, opts, 4)
	mustOK(t, err)
	defer jn.Close()
	spec := testSpec(nil)
	x := make([]float64, 64)
	run := func(from, to int64) (peak int64) {
		for n := from; n < to; n++ {
			mustOK(t, jn.Accept(n, spec, time.Now()))
			for iter := 1; iter <= 5; iter++ {
				mustOK(t, jn.Checkpoint(n, iter, 1, x))
				peak = max(peak, jn.Metrics().BytesOnDisk)
			}
			mustOK(t, jn.Done(n, &JobResult{Solver: "cg"}))
		}
		return peak
	}
	const jobs = 40
	first := run(1, jobs+1)
	rest := run(jobs+1, 11*jobs+1)
	if jn.Metrics().Compactions < 10 {
		t.Fatalf("%d compactions over %d jobs", jn.Metrics().Compactions, 11*jobs)
	}
	if rest > first+opts.SegmentBytes {
		t.Fatalf("journal peaked at %d bytes over 10x more jobs, %d over the first %d: not within a %d-byte segment",
			rest, first, jobs, opts.SegmentBytes)
	}
	var onDisk int64
	for _, b := range dirFiles(t, dir) {
		onDisk += int64(len(b))
	}
	if got := jn.Metrics().BytesOnDisk; got != onDisk {
		t.Fatalf("bytes_on_disk = %d, the directory holds %d", got, onDisk)
	}
}
