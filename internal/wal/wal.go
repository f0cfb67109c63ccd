// Package wal implements an append-only, segmented write-ahead log:
// the durability substrate under the job server's journal. Records are
// length-prefixed and CRC32C-checksummed, appends are fsync-batched,
// and Open recovers from a crash by truncating the log at the first
// torn or corrupt record — restart means replay, never a panic and
// never trusting bytes past the tear.
//
// On-disk layout: a directory of numbered segment files
// (wal-00000001.seg, wal-00000002.seg, …). Each record is
//
//	[4B little-endian payload length][4B CRC32C(payload)][payload]
//
// written with a single write call so a crash tears at most the final
// record. Appends go to the highest-numbered segment; when it passes
// Options.SegmentBytes it is synced, sealed, and a new segment begins.
//
// Recovery walks segments in order validating every record. The first
// record that fails — short header, length past the checksum cap or the
// file end, checksum mismatch — ends the log: the containing segment is
// truncated to the last valid byte and every later segment is
// discarded. Anything after a tear is unordered history and cannot be
// trusted (the matrixone tae/wal + replaystore recovery discipline).
//
// The log is bounded by Compact, the only operation that deletes valid
// records: the caller hands it a snapshot — records that restate
// everything in the log it still needs — and Compact appends the
// snapshot, syncs it (file, then directory), and only then removes the
// segments sealed before the call, oldest first. Every crash point
// therefore leaves history, or a suffix of history, followed by as much
// of the snapshot as was written; a caller whose replay is an
// idempotent fold (internal/serve's journal) reads the same state from
// each of them. Segment numbers need not start at 1 or be contiguous.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

const (
	headerBytes = 8
	// MaxRecordBytes caps one record's payload. A recovered length field
	// past the cap is treated as corruption, bounding how far a flipped
	// length bit can drag the scanner.
	MaxRecordBytes = 256 << 20

	defaultSegmentBytes = 16 << 20
	segPrefix           = "wal-"
	segSuffix           = ".seg"
)

// maxKeptBuffer is the largest framing buffer Append keeps between
// calls; one huge record must not pin its size for the log's life.
const maxKeptBuffer = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options size a Log.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that finds the
	// active segment at or past this size seals it and starts the next.
	// Default 16 MiB.
	SegmentBytes int64
	// FsyncEvery batches fsyncs: the file is synced after every N
	// appended records (and on rotation, Sync, and Close). 1 syncs every
	// record — strictest durability, every acknowledged record survives
	// a crash; N > 1 amortizes the sync at the cost of the newest < N
	// records on power loss. Default 1.
	FsyncEvery int
}

func (o *Options) fillDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.FsyncEvery < 1 {
		o.FsyncEvery = 1
	}
}

// Stats are the log's cumulative counters, snapshot via Log.Stats.
type Stats struct {
	// RecordsAppended counts records written through Append this open.
	RecordsAppended int64
	// RecordsRecovered counts valid records found by Open's recovery
	// scan — the records a Replay will deliver before new appends.
	RecordsRecovered int64
	// Truncations counts recovery truncation events: one for a torn or
	// corrupt segment tail cut back to the last valid record, and one
	// per whole later segment discarded. Each event loses an unknowable
	// number of records, so this counts cuts, not records.
	Truncations int64
	// TruncatedBytes is the total bytes those events discarded.
	TruncatedBytes int64
	// Fsyncs counts file syncs issued.
	Fsyncs int64
	// Compactions counts completed Compact calls, SegmentsDropped the
	// sealed segments they deleted.
	Compactions     int64
	SegmentsDropped int64
	// BytesOnDisk is the current size of every segment file together.
	BytesOnDisk int64
	// RecoveryNS is the wall-clock nanoseconds Open spent validating and
	// truncating.
	RecoveryNS int64
}

// Log is an open write-ahead log. Append, Sync, Replay, and Stats are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	active    *os.File
	activeSeq uint64
	activeLen int64
	sealed    []sealedSegment // ascending
	sinceSync int
	buf       []byte // Append's framing buffer, reused under mu
	stats     Stats
	closed    bool
}

// sealedSegment is a segment no append will touch again.
type sealedSegment struct {
	seq  uint64
	size int64
}

// Open opens (creating if needed) the log in dir, runs recovery, and
// positions the log for appends. Corruption is not an error: a torn or
// corrupt tail is truncated away and counted in Stats; only real I/O
// failures are returned.
func Open(dir string, opts Options) (*Log, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	start := time.Now()
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.stats.RecoveryNS = time.Since(start).Nanoseconds()
	return l, nil
}

// segName formats the file name of segment seq.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// listSegments returns the directory's segment sequence numbers in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &seq); err == nil &&
			name == segName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recover validates every segment in order, truncates at the first
// corruption, discards later segments, and opens the tail for appends.
func (l *Log) recover() error {
	seqs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		seqs = []uint64{1}
		f, err := os.OpenFile(filepath.Join(l.dir, segName(1)), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	tail := len(seqs) - 1
	for i, seq := range seqs {
		path := filepath.Join(l.dir, segName(seq))
		valid, count, scanErr := scanSegment(path, nil)
		l.stats.RecordsRecovered += count
		l.sealed = append(l.sealed, sealedSegment{seq, valid})
		if scanErr == nil {
			continue
		}
		var ce *corruptionError
		if !errors.As(scanErr, &ce) {
			return scanErr // real I/O failure, not a tear to recover from
		}
		// First tear: cut this segment back to its last valid record and
		// discard everything after it — later segments are history past
		// the tear and cannot be trusted.
		info, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if info.Size() > valid {
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("wal: truncate torn segment: %w", err)
			}
			l.stats.Truncations++
			l.stats.TruncatedBytes += info.Size() - valid
		}
		for _, later := range seqs[i+1:] {
			lp := filepath.Join(l.dir, segName(later))
			if info, err := os.Stat(lp); err == nil {
				l.stats.TruncatedBytes += info.Size()
			}
			if err := os.Remove(lp); err != nil {
				return fmt.Errorf("wal: discard segment past tear: %w", err)
			}
			l.stats.Truncations++
		}
		tail = i
		break
	}
	l.activeSeq = seqs[tail]
	l.sealed = l.sealed[:tail]
	path := filepath.Join(l.dir, segName(l.activeSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.active = f
	l.activeLen = info.Size()
	return nil
}

// corruptionError marks a scan stop that recovery handles by truncation
// (as opposed to an I/O error it must surface).
type corruptionError struct{ reason string }

func (e *corruptionError) Error() string { return "wal: " + e.reason }

// scanSegment validates path record by record, invoking fn (when
// non-nil) with each valid payload, which it may read only until it
// returns: one buffer serves every record. It returns the byte offset
// of the end of the last valid record, the valid record count, and a
// *corruptionError when the scan stopped early at a torn or corrupt
// record (a callback error or real I/O error is returned as-is).
func scanSegment(path string, fn func([]byte) error) (validEnd int64, count int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	size := info.Size()
	br := bufio.NewReaderSize(f, int(min(size, 1<<20)))
	var hdr [headerBytes]byte
	var payload []byte
	for {
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return validEnd, count, nil // clean record boundary
		}
		if err == io.ErrUnexpectedEOF {
			return validEnd, count, &corruptionError{"torn record header"}
		}
		if err != nil {
			return validEnd, count, fmt.Errorf("wal: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordBytes {
			return validEnd, count, &corruptionError{"record length past cap"}
		}
		// A length field is trusted only as far as the file backs it: a
		// flipped bit must cost a truncation, not an allocation.
		if int64(length) > size-validEnd-headerBytes {
			return validEnd, count, &corruptionError{"record length past segment end"}
		}
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return validEnd, count, &corruptionError{"torn record payload"}
			}
			return validEnd, count, fmt.Errorf("wal: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return validEnd, count, &corruptionError{"record checksum mismatch"}
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return validEnd, count, err
			}
		}
		validEnd += headerBytes + int64(length)
		count++
	}
}

// Append writes one record. The payload is durable once the batched
// fsync covering it has run (every record when FsyncEvery is 1).
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(payload); err != nil {
		return err
	}
	if l.sinceSync >= l.opts.FsyncEvery {
		return l.syncLocked()
	}
	return nil
}

// appendLocked frames and writes one record, rotating first when the
// active segment is full. Syncing is the caller's policy.
func (l *Log) appendLocked(payload []byte) error {
	if int64(len(payload)) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds cap %d", len(payload), int64(MaxRecordBytes))
	}
	if l.closed {
		return ErrClosed
	}
	if l.activeLen >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	rec := append(append(l.buf[:0], hdr[:]...), payload...)
	if cap(rec) <= maxKeptBuffer {
		l.buf = rec
	}
	// One write call: a crash mid-append tears at most this record, which
	// recovery truncates away.
	if _, err := l.active.Write(rec); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.activeLen += int64(len(rec))
	l.stats.RecordsAppended++
	l.sinceSync++
	return nil
}

// rotateLocked seals the active segment (synced so sealed history is
// always durable) and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.sealed = append(l.sealed, sealedSegment{l.activeSeq, l.activeLen})
	l.activeSeq++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.activeSeq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.active = f
	l.activeLen = 0
	return nil
}

func (l *Log) syncLocked() error {
	if l.sinceSync == 0 {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Fsyncs++
	l.sinceSync = 0
	return nil
}

// Sync forces any batched appends to durable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Replay delivers every record currently in the log, oldest first, to
// fn. It re-reads and re-validates from disk; a record corrupted
// behind the log's back stops replay with an error. Appends made
// before Replay returns are included; fn must not call back into the
// log. The payload slice is valid only until fn returns — the next
// record overwrites it — so fn copies whatever it keeps.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Appends are unbuffered writes, so disk is current; no flush needed.
	for _, s := range append(slices.Clone(l.sealed), sealedSegment{seq: l.activeSeq}) {
		if _, _, err := scanSegment(filepath.Join(l.dir, segName(s.seq)), fn); err != nil {
			return err
		}
	}
	return nil
}

// Compact bounds the log: it appends snapshot — records that restate
// everything in the log the caller still needs — syncs it, and deletes
// every segment that was sealed before the call. The snapshot may
// itself rotate the log; segments it seals are kept. Nothing is deleted
// unless the whole snapshot is durable, and deletion runs oldest first,
// so a crash anywhere leaves history or a suffix of it under whatever
// part of the snapshot was written (see the package comment).
func (l *Log) Compact(snapshot [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	old := len(l.sealed)
	for _, payload := range snapshot {
		if err := l.appendLocked(payload); err != nil {
			return err
		}
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	// The segment holding the snapshot must be in the directory before
	// the history it replaces leaves it.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	for ; old > 0; old-- {
		if err := os.Remove(filepath.Join(l.dir, segName(l.sealed[0].seq))); err != nil {
			return fmt.Errorf("wal: drop compacted segment: %w", err)
		}
		l.sealed = l.sealed[1:]
		l.stats.SegmentsDropped++
	}
	l.stats.Compactions++
	return syncDir(l.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.BytesOnDisk = l.activeLen
	for _, s := range l.sealed {
		st.BytesOnDisk += s.size
	}
	return st
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Close syncs and closes the log. Further operations fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}
