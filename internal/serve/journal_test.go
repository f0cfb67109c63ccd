package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

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
	if err := jn.Accept("job-7", testSpec(nil), time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := jn.Checkpoint("job-7", -3, awkwardFloats[0], awkwardFloats); err != nil {
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
// counts it in Skipped — or re-encodes to the same bytes.
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
		fold := newFold()
		fold.pending["job-1"] = &pendingJob{accept: journalRecord{T: recAccept, ID: "job-1", Seq: 1}}
		fold.apply(payload)
		if !ok {
			if allocs > 2 { // at most the ResumePoint and the id the payload holds
				t.Fatalf("rejecting the record allocated %v times", allocs)
			}
			if fold.skipped != 1 || fold.pending["job-1"].ckpt != nil {
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
		if fold.skipped != 0 || (id == "job-1") != (fold.pending["job-1"].ckpt != nil) {
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
	if err := jn.Checkpoint("job-1", 1, 0, nil); err != nil { // job-1 is done: the fold is unchanged
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

// dirFiles reads every file under dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// journalModel is the test's own fold of the traffic it generates.
type journalModel struct {
	pending []string
	iter    map[string]int
	x       map[string][]float64
	done    []string
	maxID   int64
}

func (m *journalModel) accept(id string) {
	m.pending = append(m.pending, id)
	n, _ := numericSuffix(id)
	m.maxID = max(m.maxID, n)
}

func (m *journalModel) finish(id string) {
	m.pending = slices.DeleteFunc(m.pending, func(p string) bool { return p == id })
	m.done = append(m.done, id)
}

// check compares a replay with the model: Pending order, every resume
// point bit for bit, the newest retain done jobs in order, MaxID.
func (m *journalModel) check(t *testing.T, what string, rep *JournalReplay, retain int) {
	t.Helper()
	var ids []string
	for _, p := range rep.Pending {
		ids = append(ids, p.ID)
		switch want, ok := m.iter[p.ID]; {
		case !ok && p.Resume != nil:
			t.Fatalf("%s: %s resumes from iteration %d, never checkpointed", what, p.ID, p.Resume.Iter)
		case ok && (p.Resume == nil || p.Resume.Iter != want || !sameBits(p.Resume.X, m.x[p.ID])):
			t.Fatalf("%s: %s resume point = %+v, want iteration %d", what, p.ID, p.Resume, want)
		}
		if p.Spec.Matrix != "lap2d:16x16" || p.Submitted.IsZero() {
			t.Fatalf("%s: %s lost its accept record's content: %+v", what, p.ID, p)
		}
	}
	if !slices.Equal(ids, m.pending) {
		t.Fatalf("%s: pending = %v, want %v", what, ids, m.pending)
	}
	tail := func(s []string) []string { return s[max(0, len(s)-retain):] }
	if got, want := tail(rep.DoneOrder), tail(m.done); !slices.Equal(got, want) {
		t.Fatalf("%s: newest %d done = %v, want %v (all: %v)", what, retain, got, want, rep.DoneOrder)
	}
	for _, id := range tail(rep.DoneOrder) {
		if r := rep.Done[id]; r == nil || r.Solver != id {
			t.Fatalf("%s: done result of %s = %+v", what, id, r)
		}
	}
	if rep.MaxID != m.maxID {
		t.Fatalf("%s: MaxID = %d, want %d", what, rep.MaxID, m.maxID)
	}
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
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	// The reference journal takes the same traffic and never rotates.
	ref, _, err := openJournal(t.TempDir(), wal.Options{FsyncEvery: 1 << 20}, retain)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	model := &journalModel{iter: map[string]int{}, x: map[string][]float64{}}
	spec := testSpec(nil)
	now := time.Unix(1700000000, 0).UTC()
	states := 0

	// replayOf opens a copy of the journal made of files and checks it.
	replayOf := func(what string, files map[string][]byte) {
		t.Helper()
		tmp := t.TempDir()
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(tmp, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j2, rep, err := openJournal(tmp, opts, retain)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		j2.Close()
		model.check(t, what, rep, retain)
		states++
	}

	// step applies one operation to both journals and the model; when it
	// compacted, it rebuilds every directory a crash inside that
	// compaction could have left and replays each.
	step := func(what string, op func(j *Journal) error, update func()) {
		t.Helper()
		before := dirFiles(t, dir)
		compactions := jn.Metrics().Compactions
		for _, j := range []*Journal{jn, ref} {
			if err := op(j); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		update()
		if jn.Metrics().Compactions == compactions {
			return
		}
		after := dirFiles(t, dir)
		refRep, err := ref.Replay()
		if err != nil {
			t.Fatal(err)
		}
		model.check(t, what+": uncompacted fold", refRep, retain)

		// Kill point 2: the snapshot is durable, nothing is deleted yet.
		// A file in both is the active segment, which only grew.
		synced := make(map[string][]byte)
		var dropped, grown []string
		for name, b := range before {
			synced[name] = b
			if _, kept := after[name]; !kept {
				dropped = append(dropped, name)
			}
		}
		for name, b := range after {
			if !bytes.HasPrefix(b, before[name]) {
				t.Fatalf("%s: compaction rewrote %s in place", what, name)
			}
			if len(b) > len(before[name]) {
				grown = append(grown, name)
			}
			synced[name] = b
		}
		slices.Sort(dropped)
		slices.Sort(grown)
		if len(dropped) == 0 {
			t.Fatalf("%s: a compaction dropped nothing", what)
		}
		replayOf(what+": snapshot synced, nothing deleted", synced)

		// Kill point 3: the old segments go oldest first.
		for k := 1; k <= len(dropped); k++ {
			partial := make(map[string][]byte)
			for name, b := range synced {
				if !slices.Contains(dropped[:k], name) {
					partial[name] = b
				}
			}
			replayOf(fmt.Sprintf("%s: %d of %d old segments deleted", what, k, len(dropped)), partial)
		}

		// Kill point 1: the operation's own record is down, the snapshot
		// behind it is cut short — at a record boundary, inside a record,
		// and (when the snapshot rotated) in an earlier segment.
		first := grown[0]
		own := len(before[first]) + 8 + int(binary.LittleEndian.Uint32(after[first][len(before[first]):]))
		var written int
		for _, name := range grown {
			written += len(after[name]) - len(before[name])
		}
		snapshot := written - (own - len(before[first]))
		for _, keep := range []int{0, 1, snapshot / 3, snapshot / 2, snapshot - 1} {
			torn := make(map[string][]byte)
			for name, b := range before {
				torn[name] = b
			}
			left := own - len(before[first]) + keep
			for _, name := range grown {
				n := min(left, len(after[name])-len(before[name]))
				torn[name] = after[name][:len(before[name])+n]
				if left -= n; left == 0 {
					break
				}
			}
			replayOf(fmt.Sprintf("%s: %d of %d snapshot bytes written", what, keep, snapshot), torn)
		}
	}

	accept := func(id string) {
		step("accept "+id, func(j *Journal) error { return j.Accept(id, spec, now) }, func() { model.accept(id) })
	}
	checkpoint := func(id string, iter, n int) {
		x := make([]float64, n)
		for i := range x {
			x[i] = awkwardFloats[(i+iter)%len(awkwardFloats)]
		}
		step(fmt.Sprintf("checkpoint %s@%d", id, iter),
			func(j *Journal) error { return j.Checkpoint(id, iter, 1/float64(iter), x) },
			func() { model.iter[id], model.x[id] = iter, x })
	}
	done := func(id string) {
		step("done "+id, func(j *Journal) error { return j.Done(id, &JobResult{Solver: id}) }, func() { model.finish(id) })
	}
	job := func(n int) string { return fmt.Sprintf("job-%d", n) }

	// Three jobs in flight at a time, finishing out of acceptance order,
	// every one checkpointing; each job's checkpoints are a quarter of a
	// segment, so a handful of jobs is a rotation.
	accept(job(1))
	accept(job(2))
	for n := 3; n <= 24; n++ {
		accept(job(n))
		for iter := 10; iter <= 30; iter += 10 {
			checkpoint(job(n-1), iter, 20)
		}
		checkpoint(job(n), 5, 20)
		if n%2 == 0 {
			done(job(n - 1))
			done(job(n - 2))
		}
	}
	// A job whose checkpoint alone is larger than a segment: every
	// snapshot from here on rotates the log while it is being written.
	accept(job(25))
	for iter := 1; iter <= 6; iter++ {
		checkpoint(job(25), iter, 400)
		checkpoint(job(24), 40+iter, 20)
	}
	done(job(25))
	// The highest id finishes first and more than retain jobs after it:
	// its done record leaves the retained tail, the id must not.
	for n := 26; n <= 31; n++ {
		accept(job(n))
	}
	done(job(31))
	for n := 26; n <= 30; n++ {
		for iter := 1; iter <= 4; iter++ {
			checkpoint(job(n), iter, 30)
		}
		done(job(n))
	}
	// ... through compactions that copy nothing else of job-31's.
	compactions := jn.Metrics().Compactions
	for iter := 50; jn.Metrics().Compactions < compactions+2; iter++ {
		checkpoint(job(24), iter, 100)
	}

	m := jn.Metrics()
	if m.Compactions < 5 {
		t.Fatalf("only %d compactions; the traffic was meant to cross at least 5", m.Compactions)
	}
	final, err := jn.Replay()
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, "final compacted journal", final, retain)
	if _, ok := final.Done[job(31)]; !ok || len(jn.state.done) != retain+1 {
		t.Fatalf("done set on disk %v, %d in the live fold: want job-31 kept beside the newest %d",
			final.DoneOrder, len(jn.state.done), retain)
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
	jn, _, err := openJournal(dir, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(nil)
	now := time.Unix(1700000000, 0).UTC()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jn.Accept("job-1", spec, now))
	must(jn.Accept("job-2", spec, now))
	must(jn.Done("job-1", &JobResult{Solver: "cg"}))
	must(jn.Accept("job-3", spec, now))
	// Fill the first segment, so the next record rotates the log and
	// its append compacts.
	for jn.Metrics().BytesOnDisk < opts.SegmentBytes {
		must(jn.Checkpoint("job-3", 1, 1, make([]float64, 8)))
	}
	appended := jn.Metrics().RecordsAppended
	must(jn.Accept("job-2", spec, now)) // pending: the duplicate
	must(jn.Accept("job-1", spec, now)) // done: stays done
	if got := jn.Metrics().RecordsAppended - appended; got != 0 {
		t.Errorf("accepts of held jobs appended %d records", got)
	}
	must(jn.Checkpoint("job-3", 2, 1, make([]float64, 8)))
	if jn.Metrics().Compactions == 0 {
		t.Fatal("no compaction: the scenario needs one")
	}
	live, err := jn.Replay()
	must(err)
	must(jn.Close())
	jn2, reopened, err := openJournal(dir, opts, 4)
	must(err)
	defer jn2.Close()
	for what, rep := range map[string]*JournalReplay{"live": live, "reopened": reopened} {
		var ids []string
		for _, p := range rep.Pending {
			ids = append(ids, p.ID)
		}
		if !slices.Equal(ids, []string{"job-2", "job-3"}) {
			t.Errorf("%s journal: pending %v, want [job-2 job-3]", what, ids)
		}
	}
}

// A done record that trimming dropped from the fold still closes its job.
// With one done record retained, job-1, job-2 and job-3 finish, and job-1
// is accepted again: the accept writes nothing, so the live fold, a
// replay, a compacted journal and a reopened one all hold no pending job.
// (The live fold used to reopen job-1 while a replay of the same log kept
// it done.)
func TestJournalReacceptAfterTrimmedDoneStaysDone(t *testing.T) {
	opts := wal.Options{SegmentBytes: 256, FsyncEvery: 1 << 20}
	dir := t.TempDir()
	jn, _, err := openJournal(dir, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(nil)
	now := time.Unix(1700000000, 0).UTC()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		must(jn.Accept(id, spec, now))
		must(jn.Done(id, &JobResult{Solver: "cg"}))
	}
	appended := jn.Metrics().RecordsAppended
	must(jn.Accept("job-1", spec, now))
	if got := jn.Metrics().RecordsAppended - appended; got != 0 {
		t.Errorf("re-accepting a finished job appended %d records", got)
	}
	jn.mu.Lock()
	live := jn.state.replay()
	jn.mu.Unlock()
	replayed, err := jn.Replay()
	must(err)
	jn.mu.Lock()
	snap, err := jn.state.snapshot()
	if err == nil {
		err = jn.log.Compact(snap)
	}
	jn.mu.Unlock()
	must(err)
	compacted, err := jn.Replay()
	must(err)
	must(jn.Close())
	jn2, reopened, err := openJournal(dir, opts, 1)
	must(err)
	defer jn2.Close()
	for _, c := range []struct {
		what string
		rep  *JournalReplay
	}{{"live fold", live}, {"replay", replayed}, {"compacted", compacted}, {"reopened", reopened}} {
		var ids []string
		for _, p := range c.rep.Pending {
			ids = append(ids, p.ID)
		}
		if len(ids) != 0 || c.rep.MaxID != 3 {
			t.Errorf("%s: pending %v, max id %d; want none pending, max id 3", c.what, ids, c.rep.MaxID)
		}
	}
}

// The journal on disk follows the live set, not history: ten times the
// jobs leave it within a segment of where the first batch left it.
func TestJournalSizeBoundedByLiveSet(t *testing.T) {
	opts := wal.Options{SegmentBytes: 8192, FsyncEvery: 1 << 20}
	dir := t.TempDir()
	jn, _, err := openJournal(dir, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	spec := testSpec(nil)
	x := make([]float64, 64)
	run := func(from, to int) (peak int64) {
		for n := from; n < to; n++ {
			id := fmt.Sprintf("job-%d", n)
			if err := jn.Accept(id, spec, time.Now()); err != nil {
				t.Fatal(err)
			}
			for iter := 1; iter <= 5; iter++ {
				if err := jn.Checkpoint(id, iter, 1, x); err != nil {
					t.Fatal(err)
				}
				peak = max(peak, jn.Metrics().BytesOnDisk)
			}
			if err := jn.Done(id, &JobResult{Solver: "cg"}); err != nil {
				t.Fatal(err)
			}
		}
		return peak
	}
	const jobs = 40
	first := run(0, jobs)
	rest := run(jobs, 11*jobs)
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
