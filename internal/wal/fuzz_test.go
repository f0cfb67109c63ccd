package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment encodes records into raw segment bytes and returns them
// with the end offset of each record — ground truth for corruption
// tests.
func buildSegment(records [][]byte) (raw []byte, ends []int) {
	var buf bytes.Buffer
	for _, r := range records {
		var hdr [headerBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(r)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(r, castagnoli))
		buf.Write(hdr[:])
		buf.Write(r)
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// FuzzRecover throws arbitrary bytes at recovery as a segment file.
// Whatever the input — truncated tails, torn headers, flipped bits,
// hostile length fields — Open must not panic, must recover only
// checksum-valid records, and must leave a log that accepts appends
// and replays them back intact after a reopen.
func FuzzRecover(f *testing.F) {
	valid, _ := buildSegment([][]byte{[]byte("alpha"), []byte("bravo-bravo"), []byte("")})
	f.Add(valid)                          // intact log
	f.Add(valid[:len(valid)-1])           // torn payload
	f.Add(valid[:len(valid)-12])          // torn mid-record
	f.Add(valid[:3])                      // torn header
	f.Add([]byte{})                       // empty segment
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // hostile length fields
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x10 // bit flip inside the first payload
	f.Add(flipped)
	long := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(long[0:4], MaxRecordBytes+7) // length past cap
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery returned an error on corrupt input (must truncate instead): %v", err)
		}
		var recovered [][]byte
		if err := l.Replay(func(p []byte) error {
			recovered = append(recovered, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("replay after recovery: %v", err)
		}
		// Every recovered record must checksum-verify against the raw
		// input at its claimed position: recovery may only ever surface a
		// prefix of the original byte stream, bit-for-bit.
		off := 0
		for i, r := range recovered {
			if off+headerBytes+len(r) > len(data) {
				t.Fatalf("record %d extends past the input", i)
			}
			if int(binary.LittleEndian.Uint32(data[off:off+4])) != len(r) {
				t.Fatalf("record %d length disagrees with input bytes", i)
			}
			if !bytes.Equal(data[off+headerBytes:off+headerBytes+len(r)], r) {
				t.Fatalf("record %d payload altered by recovery", i)
			}
			off += headerBytes + len(r)
		}
		// The recovered log must be writable and the write durable.
		post := []byte("post-recovery-record")
		if err := l.Append(post); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		var again [][]byte
		if err := l2.Replay(func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if len(again) != len(recovered)+1 || !bytes.Equal(again[len(again)-1], post) {
			t.Fatalf("reopen lost records: %d then %d", len(recovered), len(again))
		}
		for i := range recovered {
			if !bytes.Equal(again[i], recovered[i]) {
				t.Fatalf("record %d unstable across reopen", i)
			}
		}
	})
}
