package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	rt   RecordType
	data []byte
}

func collect(t *testing.T, l *Log) []rec {
	t.Helper()
	var out []rec
	if err := l.Replay(func(_ int, rt RecordType, payload []byte) error {
		out = append(out, rec{rt: rt, data: append([]byte(nil), payload...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{
		{1, []byte("vote")},
		{2, []byte{}},
		{3, bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range want {
		if err := l.Append(r.rt, r.data); err != nil {
			t.Fatal(err)
		}
	}
	if !l.Dirty() {
		t.Fatal("expected staged records")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].rt != want[i].rt || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and confirm the records survive plus new appends go after them.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(4, []byte("post-restart")); err != nil {
		t.Fatal(err)
	}
	got = collect(t, l2)
	if len(got) != len(want)+1 || got[3].rt != 4 {
		t.Fatalf("after reopen: got %d records, want %d", len(got), len(want)+1)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{7}, 100)
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.Segments < 5 {
		t.Fatalf("expected several segments, got %d", s.Segments)
	}
	if got := collect(t, l); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
}

// TestTornTailTruncated simulates a crash mid-write: the last record is cut
// short on disk. Open must recover the valid prefix and resume appending.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop 10 bytes off the last record.
	path := filepath.Join(dir, segmentName(0))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-10); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 4 {
		t.Fatalf("torn tail: replayed %d records, want 4", len(got))
	}
	// The truncated slot must be reusable.
	if err := l2.Append(2, []byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	got = collect(t, l2)
	if len(got) != 5 || got[4].rt != 2 {
		t.Fatalf("append after torn-tail recovery: got %d records", len(got))
	}
}

// TestFinalSegmentBitRotRefusesOpen: a CRC flip on a FULLY PRESENT record
// in the live segment is bit rot, not a torn tail — the scan that follows
// Open must refuse rather than truncate away the fsynced records after it,
// and the log then takes no appends.
func TestFinalSegmentBitRotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the SECOND record; records 3..5 stay valid.
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[(headerSize+64)+headerSize+5] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Replay(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over bit rot: %v, want ErrCorrupt", err)
	}
	if err := l2.Append(1, []byte("x")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("append after bit rot: %v, want ErrCorrupt", err)
	}
}

// TestStraySegmentLookalikesIgnored: wal-000000.log.bak must not alias the
// real segment and double-replay the history.
func TestStraySegmentLookalikesIgnored(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("once")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)+".bak"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (backup file aliased a segment)", len(got))
	}
}

// TestMidLogCorruptionDetected flips a byte inside a sealed segment; replay
// must fail loudly rather than skip records of the voted history.
func TestMidLogCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first (sealed) segment's first record payload.
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+5] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Replay(func(int, RecordType, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt for mid-log damage, got %v", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	if err := l.Replay(func(int, RecordType, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("expected callback error to propagate, got %v", err)
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
}

// TestAppendAllocFree is the PR-2 guard: steady-state appends on the vote
// path must not allocate (the frame header lives in a fixed array and the
// batch buffer is reused across flushes).
func TestAppendAllocFree(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{1}, 160) // a marker strong-vote's size class
	// Warm up: size the batch buffer and fault in the segment.
	for i := 0; i < 64; i++ {
		if err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WAL append+flush allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkAppendFlush(b *testing.B) {
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("fsync=%v", sync), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{NoSync: !sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := bytes.Repeat([]byte{1}, 160)
			b.SetBytes(int64(len(payload) + headerSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
				if err := l.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	l, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{1}, 160)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * (len(payload) + headerSize)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := l.Replay(func(int, RecordType, []byte) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d records, want %d", count, n)
		}
	}
}

// TestRotateRemoveFirst: the owner's bounding tools. Rotate starts a segment
// whose First record is the next append, Remove drops a sealed segment from
// disk and from every later replay, and the active segment cannot be removed.
func TestRotateRemoveFirst(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, data := range []string{"a", "b", "c"} {
		if i > 0 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(RecordType(i+1), []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); len(got) != 3 || l.Active() != 2 {
		t.Fatalf("segments %v, active %d; want [0 1 2], 2", got, l.Active())
	}
	if rt, payload, err := l.First(1); err != nil || rt != 2 || string(payload) != "b" {
		t.Fatalf("first record of segment 1: %d %q %v", rt, payload, err)
	}
	if err := l.Remove(2); err == nil {
		t.Fatal("removed the active segment")
	}
	if err := l.Remove(0); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 2 || string(got[0].data) != "b" {
		t.Fatalf("after removing segment 0 replayed %v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("segment 0 still on disk: %v", err)
	}
	// An empty segment has no first record.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if rt, _, err := l.First(3); err != nil || rt != 0 {
		t.Fatalf("first record of an empty segment: %d %v", rt, err)
	}
}
