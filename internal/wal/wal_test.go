package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// replayAll collects every record in the log.
func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := l.Replay(func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-gamma"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: %q vs %q", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must find every record, no truncation.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.RecordsRecovered != int64(len(want)) || st.Truncations != 0 {
		t.Fatalf("recovered %d records with %d truncations, want %d and 0",
			st.RecordsRecovered, st.Truncations, len(want))
	}
	got = replayAll(t, l2)
	if len(got) != len(want) || !bytes.Equal(got[3], want[3]) {
		t.Fatalf("post-reopen replay mismatch: %d records", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{7}, 100)
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", segs)
	}
	if got := replayAll(t, l); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.RecordsRecovered != n || st.Truncations != 0 {
		t.Fatalf("recovered %d/%d truncations %d", st.RecordsRecovered, n, st.Truncations)
	}
}

func TestFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 8; i++ {
		if err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 2 {
		t.Fatalf("8 appends at FsyncEvery=4 issued %d fsyncs, want 2", st.Fsyncs)
	}
	if err := l.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 3 {
		t.Fatalf("explicit Sync of a pending batch issued %d fsyncs total, want 3", st.Fsyncs)
	}
	// Sync with nothing pending is free.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 3 {
		t.Fatalf("idle Sync issued an fsync (total %d)", st.Fsyncs)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := make([]byte, MaxRecordBytes+1)
	if err := l.Append(huge); err == nil {
		t.Fatal("append past MaxRecordBytes succeeded")
	}
}

// TestRecoveryTruncatesTornTail cuts a valid log at every possible byte
// length and proves recovery always lands on the longest valid record
// prefix — and that the log accepts appends afterwards.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	records := [][]byte{
		[]byte("first"), []byte("second-record"), []byte(""),
		bytes.Repeat([]byte{0x5C}, 64), []byte("tail"),
	}
	full, ends := buildSegment(records)

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		wantN := 0
		for _, end := range ends {
			if end <= cut {
				wantN++
			}
		}
		got := replayAll(t, l)
		if len(got) != wantN {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(got[i], records[i]) {
				t.Fatalf("cut=%d: record %d corrupted by recovery", cut, i)
			}
		}
		// Partial bytes past the last valid record must be counted.
		if st := l.Stats(); cut > endOf(ends, wantN) && st.Truncations == 0 {
			t.Fatalf("cut=%d: torn tail not counted as truncation", cut)
		}
		// The recovered log must keep working: append, close, reopen.
		if err := l.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l.Close()
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		got = replayAll(t, l2)
		if len(got) != wantN+1 || !bytes.Equal(got[wantN], []byte("post-recovery")) {
			t.Fatalf("cut=%d: post-recovery append lost (got %d records)", cut, len(got))
		}
		l2.Close()
	}
}

// endOf returns the end offset of the first n records (0 for n == 0).
func endOf(ends []int, n int) int {
	if n == 0 {
		return 0
	}
	return ends[n-1]
}

// TestRecoveryBitFlips flips every bit of a small log, one at a time:
// recovery must always yield exactly the records before the flipped
// one, never panic, and never surface altered payload bytes.
func TestRecoveryBitFlips(t *testing.T) {
	records := [][]byte{[]byte("aaaa"), []byte("bbbbbbbb"), []byte("cc"), []byte("dddddd")}
	full, ends := buildSegment(records)

	for pos := 0; pos < len(full); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("pos=%d bit=%d: open: %v", pos, bit, err)
			}
			// The record containing the flipped byte and everything after
			// it must be dropped; everything before survives intact.
			wantN := 0
			for _, end := range ends {
				if pos >= end {
					wantN++
				}
			}
			got := replayAll(t, l)
			if len(got) != wantN {
				t.Fatalf("pos=%d bit=%d: recovered %d records, want %d", pos, bit, len(got), wantN)
			}
			for i := 0; i < wantN; i++ {
				if !bytes.Equal(got[i], records[i]) {
					t.Fatalf("pos=%d bit=%d: surviving record %d altered", pos, bit, i)
				}
			}
			if st := l.Stats(); st.Truncations == 0 {
				t.Fatalf("pos=%d bit=%d: bit flip not counted as truncation", pos, bit)
			}
			l.Close()
		}
	}
}

// TestRecoveryDiscardsSegmentsPastTear corrupts a middle segment:
// everything after the first tear — including whole, internally valid
// later segments — is unordered history and must be discarded.
func TestRecoveryDiscardsSegmentsPastTear(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 12; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i)}, 40)
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if segs < 4 {
		t.Fatalf("need >= 4 segments for the scenario, got %d", segs)
	}
	l.Close()

	// Flip a byte in the middle of segment 2.
	seg2 := filepath.Join(dir, segName(2))
	raw, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(seg2, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	// Records from segment 1 plus segment 2's prefix survive; nothing
	// from segments 3+.
	perSeg := 0
	for perSeg*48 < 128 { // 40B payload + 8B header
		perSeg++
	}
	if len(got) >= len(want) || len(got) == 0 {
		t.Fatalf("recovered %d of %d records past a mid-log tear", len(got), len(want))
	}
	for i, r := range got {
		if !bytes.Equal(r, want[i]) {
			t.Fatalf("record %d altered after mid-log tear recovery", i)
		}
	}
	st := l2.Stats()
	if st.Truncations < int64(segs-2) {
		t.Fatalf("discarding %d later segments counted only %d truncations", segs-2, st.Truncations)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(uint64(segs)))); !os.IsNotExist(err) {
		t.Fatalf("segment past the tear still on disk (stat err %v)", err)
	}
	// Appends continue in the truncated segment and survive reopen.
	if err := l2.Append([]byte("afterwards")); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096, FsyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := replayAll(t, l); len(got) != goroutines*each {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*each)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.RecordsRecovered != goroutines*each || st.Truncations != 0 {
		t.Fatalf("recovered %d with %d truncations", st.RecordsRecovered, st.Truncations)
	}
}

// A length field is believed only as far as the file backs it: a record
// claiming 200 MiB in a 19-byte segment is a tear, found without
// allocating what it claims.
func TestRecoveryBoundsLengthByFile(t *testing.T) {
	dir := t.TempDir()
	raw, _ := buildSegment([][]byte{[]byte("hostile-len")})
	binary.LittleEndian.PutUint32(raw[0:4], 200<<20) // under MaxRecordBytes, far past the file
	if err := os.WriteFile(filepath.Join(dir, segName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("recovery allocated %d bytes for a record that is not there", got)
	}
	st := l.Stats()
	if st.RecordsRecovered != 0 || st.Truncations != 1 || st.TruncatedBytes != int64(len(raw)) || st.BytesOnDisk != 0 {
		t.Fatalf("stats = %+v, want the segment truncated to empty", st)
	}
}

// Replay hands every record the same buffer: what a callback keeps it
// must copy, and what it copies is intact.
func TestReplayReusesPayloadBuffer(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range []string{"first-record", "second", "third-record!"} {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	var kept [][]byte
	if err := l.Replay(func(p []byte) error {
		kept = append(kept, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if &kept[0][0] != &kept[1][0] {
		t.Fatal("records of one segment did not share a buffer")
	}
	if got := replayAll(t, l); string(got[0]) != "first-record" || string(got[2]) != "third-record!" {
		t.Fatalf("copied records = %q", got)
	}
}

// Compact replaces the segments sealed before it with a snapshot: what
// replays afterwards is the active segment's records, then the
// snapshot, and a snapshot that rotates the log keeps what it sealed.
func TestCompactDropsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, FsyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte { return []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{'x'}, 80))) }
	for i := 0; i < 10; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealed := l.Segments() - 1
	if sealed < 2 {
		t.Fatalf("only %d sealed segments before compaction", sealed)
	}
	all := replayAll(t, l)
	inActive := all[len(all)-(10-3*sealed):] // 3 records seal a 256-byte segment
	fsyncs := l.Stats().Fsyncs

	// Six records: more than one segment, so the snapshot rotates.
	snapshot := [][]byte{rec(100), rec(101), rec(102), rec(103), rec(104), rec(105)}
	if err := l.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	want := append(append([][]byte(nil), inActive...), snapshot...)
	check := func(l *Log) {
		t.Helper()
		got := replayAll(t, l)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records after compaction, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
		size, err := dirSize(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.BytesOnDisk != size {
			t.Fatalf("BytesOnDisk = %d, directory holds %d", st.BytesOnDisk, size)
		}
	}
	check(l)
	st := l.Stats()
	if st.Compactions != 1 || st.SegmentsDropped != int64(sealed) {
		t.Fatalf("stats = %+v, want 1 compaction dropping %d segments", st, sealed)
	}
	if st.Fsyncs == fsyncs {
		t.Fatal("compaction deleted history without syncing the snapshot")
	}
	if l.Segments() < 2 {
		t.Fatal("the segments the snapshot itself sealed are gone")
	}
	// The compacted log — first segment number past 1 — reopens the same
	// and keeps appending.
	if err := l.Append(rec(200)); err != nil {
		t.Fatal(err)
	}
	want = append(want, rec(200))
	l.Close()
	if err := l.Compact(nil); err != ErrClosed {
		t.Fatalf("Compact on a closed log = %v, want ErrClosed", err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncations != 0 || st.RecordsRecovered != int64(len(want)) {
		t.Fatalf("reopen after compaction: %+v", st)
	}
	check(l2)
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
