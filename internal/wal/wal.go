// Package wal implements the append-only write-ahead log underlying the
// durability layer: segmented files of CRC-framed records with batched
// fsync and a replay iterator.
//
// The log is record-type agnostic — callers pass an opaque one-byte record
// type plus a payload, and internal/core.Journal defines the replica-level
// schema (votes, QCs, blocks, commits) on top of it. Appends accumulate in
// an internal buffer; Flush writes and (by default) fsyncs the batch, so a
// consensus engine groups every record of one event under a single fsync —
// the batched group-commit the durability contract relies on (see
// doc.go: nothing leaves the replica before the records it depends on are
// flushed).
//
// Crash tolerance: a torn write at the tail of the last segment — a record
// cut short at EOF, the only damage a crashed single appender can leave —
// is detected by its length frame and truncated away by the first Replay
// after Open (the same pass that hands the records back, so the final
// segment is read once). Bit rot (a CRC mismatch on fully present bytes, or
// a nonsense length) anywhere, final segment included, is NOT survivable
// silently: Replay reports it instead of handing back a hole in the voted
// history.
//
// The log is bounded by its owner: Rotate seals the active segment and Remove
// deletes a sealed one, which internal/core.Journal does once a checkpoint
// record covers everything the segment held.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// RecordType discriminates records; the schema lives in the caller
// (internal/core.Journal). Zero is reserved as invalid.
type RecordType uint8

// Framing constants.
const (
	// headerSize is the per-record frame overhead: 4-byte payload length
	// (including the type byte), 4-byte CRC-32C over type+payload, then the
	// type byte itself.
	headerSize = 9
	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot drive replay into a giant allocation.
	maxRecordBytes = 64 << 20
)

// Errors returned by the log.
var (
	ErrClosed    = errors.New("wal: log closed")
	ErrCorrupt   = errors.New("wal: corrupt record")
	ErrBadRecord = errors.New("wal: invalid record type")
)

// errShortRecord marks a frame that ends before its declared length — the
// signature of a torn tail write (a crash persists a PREFIX of the final
// append batch, so the only legitimate damage is a record cut short at
// EOF). A CRC mismatch on a fully present frame, or a nonsense length
// field, is bit rot instead and must surface as ErrCorrupt: truncating it
// away would silently destroy fsynced voted history.
var errShortRecord = errors.New("wal: short record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; a segment that reaches it is
	// sealed and a new one started. Default 256 KiB: small against the
	// window a pruning replica keeps, so the segments its checkpoints delete
	// follow the prune cut closely (see internal/core.Journal).
	SegmentBytes int
	// NoSync skips the fsync in Flush. The discrete-event simulator uses it:
	// simulated crashes stop a replica's event dispatch, not the host
	// process, so page-cache durability suffices and runs stay fast. Close
	// always fsyncs regardless.
	NoSync bool
	// ObserveFlush, if non-nil, is called after each non-empty Flush with
	// its wall-clock duration, the bytes written, and whether the flush
	// fsynced. Pure observation for the metrics layer; errors still surface
	// through Flush itself.
	ObserveFlush func(d time.Duration, bytes int, synced bool)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 256 << 10
	}
	return o
}

// Log is an append-only segmented record log. Not safe for concurrent use;
// the owning engine serializes all appends (engines are single-threaded
// event loops).
type Log struct {
	dir  string
	opts Options

	seg     *os.File // active segment, opened for append
	segIdx  int      // index of the active segment
	segSize int64    // bytes in the active segment (including buffered)
	segs    []int    // indices of the segments on disk, ascending
	// tail marks a log opened over existing segments whose last segment has
	// not been scanned yet: the first Replay (or, without one, the first
	// write) truncates its torn tail and opens it for appending.
	tail   bool
	closed bool

	buf   []byte // records appended since the last Flush
	rbuf  []byte // Replay's read buffer, reused across segments within a pass
	hdr   [headerSize]byte
	err   error // sticky: a log that failed an IO operation stays failed
	stats Stats
}

// Stats counts log activity since Open.
type Stats struct {
	Appends  int64
	Flushes  int64
	Syncs    int64
	Bytes    int64
	Segments int // segments on disk
}

func segmentName(idx int) string { return fmt.Sprintf("wal-%06d.log", idx) }

// Open creates or opens the log in dir. An existing log is not read here:
// the first Replay scans it, truncating a torn tail record (a crash
// mid-write) off the last segment in the same pass, and appends then
// continue at the end of that segment. A write before any Replay scans first.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, buf: make([]byte, 0, 64<<10)}
	if len(segs) == 0 {
		if err := l.openSegment(0); err != nil {
			return nil, err
		}
		l.segs = []int{0}
		l.stats.Segments = 1
		return l, nil
	}
	l.segs, l.segIdx, l.tail = segs, segs[len(segs)-1], true
	l.stats.Segments = len(segs)
	return l, nil
}

// listSegments returns the sorted segment indices present in dir. Only
// exact segment names count — wal-000001.log.bak or editor leftovers must
// not alias a real segment and cause double replay.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.log", &idx); err == nil && e.Name() == segmentName(idx) {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// parseRecord parses one framed record from the front of b, returning the
// total frame length consumed, the record type, and the payload (aliasing
// b). errShortRecord means b ends before the frame does (torn tail); every
// other error is corruption of fully present bytes.
func parseRecord(b []byte) (int64, RecordType, []byte, error) {
	if len(b) < headerSize {
		return 0, 0, nil, errShortRecord
	}
	size := binary.BigEndian.Uint32(b[0:4]) // len(payload) + 1 type byte
	sum := binary.BigEndian.Uint32(b[4:8])
	if size == 0 || size > maxRecordBytes {
		return 0, 0, nil, ErrCorrupt
	}
	total := int64(8) + int64(size)
	if int64(len(b)) < total {
		return 0, 0, nil, errShortRecord
	}
	body := b[8:total] // type byte + payload
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, 0, nil, ErrCorrupt
	}
	rt := RecordType(body[0])
	if rt == 0 {
		return 0, 0, nil, ErrBadRecord
	}
	return total, rt, body[1:], nil
}

// Append stages one record. The payload is copied into the log's batch
// buffer, so the caller may reuse its own scratch immediately. Records
// become durable at the next Flush (or Close).
//
// Steady-state appends are allocation-free: the frame header is built in a
// fixed array and the batch buffer is reused across flushes.
func (l *Log) Append(rt RecordType, payload []byte) error {
	if err := l.writable(); err != nil {
		return err
	}
	if rt == 0 {
		return ErrBadRecord
	}
	if len(payload)+1 > maxRecordBytes {
		return l.fail(fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload)))
	}
	frame := int64(headerSize + len(payload))
	if l.segSize > 0 && l.segSize+frame > int64(l.opts.SegmentBytes) {
		if err := l.Rotate(); err != nil {
			return err
		}
	}
	binary.BigEndian.PutUint32(l.hdr[0:4], uint32(len(payload)+1))
	l.hdr[8] = byte(rt)
	sum := crc32.Update(crc32.Checksum(l.hdr[8:9], castagnoli), castagnoli, payload)
	binary.BigEndian.PutUint32(l.hdr[4:8], sum)
	l.buf = append(l.buf, l.hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.segSize += frame
	l.stats.Appends++
	l.stats.Bytes += frame
	return nil
}

// Dirty reports whether records are staged but not yet flushed.
func (l *Log) Dirty() bool { return len(l.buf) > 0 }

// Flush writes the staged batch to the active segment and fsyncs it (unless
// Options.NoSync). One Flush per engine event gives group commit: every
// record the event produced shares a single fsync.
func (l *Log) Flush() error {
	if err := l.writable(); err != nil {
		return err
	}
	if len(l.buf) == 0 {
		return nil
	}
	var start time.Time
	if l.opts.ObserveFlush != nil {
		start = time.Now()
	}
	bytes := len(l.buf)
	if _, err := l.seg.Write(l.buf); err != nil {
		return l.fail(fmt.Errorf("wal: write: %w", err))
	}
	l.buf = l.buf[:0]
	l.stats.Flushes++
	if !l.opts.NoSync {
		if err := l.seg.Sync(); err != nil {
			return l.fail(fmt.Errorf("wal: fsync: %w", err))
		}
		l.stats.Syncs++
	}
	if l.opts.ObserveFlush != nil {
		l.opts.ObserveFlush(time.Since(start), bytes, !l.opts.NoSync)
	}
	return nil
}

// Sync flushes and forces an fsync even under Options.NoSync — the shutdown
// path uses it so a graceful stop never relies on the page cache.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if l.seg == nil {
		return l.err
	}
	if err := l.seg.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.stats.Syncs++
	return nil
}

// writable reports the log's sticky error, scanning an opened log's tail
// first if no Replay has yet.
func (l *Log) writable() error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return l.fail(ErrClosed)
	}
	if l.tail {
		return l.Replay(nil)
	}
	return nil
}

// Close flushes, fsyncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.closed {
		return l.err
	}
	if l.seg == nil { // opened and never scanned, or failed mid-rotation
		l.closed = true
		if l.err == nil {
			l.err = ErrClosed
			return nil
		}
		return l.err
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	l.seg = nil
	if l.err == nil {
		l.err = ErrClosed
	}
	return err
}

// Stats returns a copy of the activity counters.
func (l *Log) Stats() Stats { return l.stats }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Segments returns the indices of the segments on disk, ascending; the last
// is the active one. The slice is the log's own: read it, do not keep it.
func (l *Log) Segments() []int { return l.segs }

// Active returns the index of the segment appends go to.
func (l *Log) Active() int { return l.segIdx }

func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Rotate seals the active segment (flushed and, unless Options.NoSync,
// fsynced, so sealed segments are immutable and as durable as the log is)
// and starts the next one. Append rotates on its own when a segment fills;
// the journal rotates so that a checkpoint opens a segment of its own.
func (l *Log) Rotate() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.seg.Sync(); err != nil {
			return l.fail(fmt.Errorf("wal: seal fsync: %w", err))
		}
	}
	if err := l.seg.Close(); err != nil {
		return l.fail(fmt.Errorf("wal: seal: %w", err))
	}
	l.seg = nil
	if err := l.openSegment(l.segIdx + 1); err != nil {
		return err
	}
	l.segs = append(l.segs, l.segIdx)
	l.stats.Segments++
	return nil
}

// Remove deletes the sealed segment idx. Its records are gone for every later
// Replay; the owner removes only what a later record supersedes.
func (l *Log) Remove(idx int) error {
	if err := l.writable(); err != nil {
		return err
	}
	i, ok := slices.BinarySearch(l.segs, idx)
	if !ok || idx == l.segIdx {
		return fmt.Errorf("wal: segment %d is not a sealed segment", idx)
	}
	if err := os.Remove(filepath.Join(l.dir, segmentName(idx))); err != nil {
		return l.fail(fmt.Errorf("wal: remove segment: %w", err))
	}
	l.segs = slices.Delete(l.segs, i, i+1)
	l.stats.Segments--
	return nil
}

func (l *Log) openSegment(idx int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(idx)), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return l.fail(fmt.Errorf("wal: open segment: %w", err))
	}
	l.seg, l.segIdx, l.segSize = f, idx, 0
	return nil
}

// First returns segment idx's first record, or type 0 when the segment is
// empty or its first record is torn. The payload is only valid until the
// next First or Replay. The journal reads its newest checkpoint this way
// before the one pass of Replay.
func (l *Log) First(idx int) (RecordType, []byte, error) {
	f, err := os.Open(filepath.Join(l.dir, segmentName(idx)))
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[0:4])
	if size == 0 || size > maxRecordBytes {
		return 0, nil, fmt.Errorf("%w: segment %d offset 0", ErrCorrupt, idx)
	}
	frame := 8 + int(size) // the length and CRC words, then type and payload
	l.rbuf = slices.Grow(l.rbuf[:0], frame)[:frame]
	copy(l.rbuf, hdr[:])
	if _, err := io.ReadFull(f, l.rbuf[headerSize:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	_, rt, payload, err := parseRecord(l.rbuf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: segment %d offset 0", ErrCorrupt, idx)
	}
	return rt, payload, nil
}

// Replay calls fn for every record in the log, oldest first, across all
// segments, with the index of the segment the record is in. Each segment is
// read once, into one buffer reused across the pass and released after it:
// the payload slice is only valid during the callback, so a caller keeps a
// copy of what it needs. Staged (unflushed) records are flushed first so
// replay observes a consistent prefix. The first Replay after Open also
// truncates a torn tail off the final segment and opens that segment for
// appending; fn may be nil for that alone. Corruption anywhere else returns
// ErrCorrupt — a log whose middle is damaged cannot vouch for the voted
// history and the caller must treat the replica's durable state as lost.
func (l *Log) Replay(fn func(seg int, rt RecordType, payload []byte) error) error {
	if l.Dirty() {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	defer func() { l.rbuf = nil }()
	for i, idx := range l.segs {
		last := i == len(l.segs)-1
		data, err := l.read(idx)
		if err != nil {
			return l.fail(err)
		}
		var off int64
		for int(off) < len(data) {
			n, rt, payload, err := parseRecord(data[off:])
			if err != nil {
				if last && errors.Is(err, errShortRecord) {
					break // torn tail: a crash persisted a prefix of the batch
				}
				// Sealed segments cannot have torn tails (they were closed
				// cleanly), and bit rot anywhere is unrecoverable state loss.
				return l.fail(fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, idx, off))
			}
			if fn != nil {
				if err := fn(idx, rt, payload); err != nil {
					return err
				}
			}
			off += n
		}
		if last && l.tail && !l.closed {
			if err := l.openTail(idx, off); err != nil {
				return err
			}
		}
	}
	return nil
}

// read loads segment idx into the reused replay buffer.
func (l *Log) read(idx int) ([]byte, error) {
	f, err := os.Open(filepath.Join(l.dir, segmentName(idx)))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.rbuf = slices.Grow(l.rbuf[:0], int(info.Size()))[:info.Size()]
	n, err := io.ReadFull(f, l.rbuf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return l.rbuf[:n], nil
}

// openTail cuts the final segment after its last valid record and opens it
// for appending.
func (l *Log) openTail(idx int, valid int64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(idx)), os.O_RDWR, 0o644)
	if err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: truncate torn tail: %w", err))
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	l.seg, l.segSize, l.tail = f, valid, false
	return nil
}
