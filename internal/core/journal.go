package core

import (
	"fmt"
	"time"

	"repro/internal/types"
	"repro/internal/wal"
)

// The journal is the replica-level schema over the write-ahead log
// (internal/wal): the records a replica's safety depends on, serialized with
// the pinned types encodings (internal/types/wire.go). A replica rebuilt by
// Recover reaches a state whose next vote cannot contradict its pre-crash
// markers: every block it accepted, every vote it cast, every certificate it
// registered outside a block, its lock round, and its committed prefix are
// all replayable in original order.
//
// Durability contract (see also the package comment of internal/wal): the
// engines append records while processing an event and Flush the batch
// before the event's outputs are handed to the network — in particular, a
// strong-vote never leaves the replica before the vote record (and the
// record of the block it endorses) is flushed. One event, one fsync batch.

// Bounded by the prune cut: once a pruning engine's cut passes whole sealed
// segments, the journal opens a new segment with one checkpoint record — the
// cut (the floor), the lock round, the highest voted round, the last commit,
// the high QC and, with an app, the executor's checkpoint — and deletes those
// segments. Recover starts from the newest checkpoint, reads each segment
// once and skips block records below its floor undecoded, so a restart costs
// the kept window, not the chain.

// Journal record types.
const (
	// RecBlock is a block accepted into the replica's store: its height (8
	// bytes, so replay can skip a block below the floor undecoded), then the
	// full pinned encoding (the embedded justify QC certifies its parent).
	RecBlock wal.RecordType = iota + 1
	// RecVote is a strong-vote this replica cast. Replay rebuilds the
	// VoteHistory and the highest-voted round from these.
	RecVote
	// RecQC is a certificate registered from something other than an
	// accepted block's justify (a locally formed QC, a timeout's high QC):
	// certificates arriving inside blocks are already durable via RecBlock.
	RecQC
	// RecLock is the locked round after a 2-chain lock advance (8 bytes).
	RecLock
	// RecCommit marks a block committed: id + height + round.
	RecCommit
	// RecCheckpoint summarizes every record before it at a prune cut (see
	// Checkpoint); it is the first record of its segment.
	RecCheckpoint
)

// Journal wraps a WAL with typed appenders for the consensus records. The
// encoding scratch buffer is reused, so steady-state appends on the vote
// path are allocation-free. Not safe for concurrent use; the owning engine
// serializes events.
type Journal struct {
	log     *wal.Log
	scratch []byte
	// sum is what Recover would read from every record appended so far, its
	// running maxima only (lock, voted round, commit, high QC): what a
	// checkpoint carries for the records it lets go.
	sum Recovery
	// segs marks each segment on disk with the highest height and own vote
	// round its records name, ascending by segment index.
	segs []segMark
	// ready: Recover has accounted for every record already in the log, so
	// sum is whole and the journal may checkpoint.
	ready bool
	// cpBytes is the payload size of the last checkpoint record: a checkpoint
	// is due only once the segments it would delete hold at least as many
	// payload bytes.
	cpBytes int
}

// segMark is one segment's extent: a segment is wholly below a prune cut when
// every block, vote, certificate and commit in it lies below the cut's
// height and every own vote below the round of the committed block there.
type segMark struct {
	idx    int
	height types.Height
	round  types.Round
	bytes  int // payload bytes
}

func (m *segMark) note(h types.Height, r types.Round, payload int) {
	m.height, m.round, m.bytes = max(m.height, h), max(m.round, r), m.bytes+payload
}

// checkpointStep is called after each step of Checkpoint with its name;
// tests set it to capture the log as a crash at that point would leave it.
var checkpointStep = func(string) {}

// NewJournal wraps an opened log. Call Recover before the first append to a
// log that already holds records: until then the journal does not checkpoint.
func NewJournal(l *wal.Log) *Journal {
	return &Journal{log: l, scratch: make([]byte, 0, 4096)}
}

// OpenJournal opens (or creates) the write-ahead log in dir, replays whatever
// a previous incarnation left there, and returns the journal to hand to the
// engine plus the recovered state to restore into it. With fsync false the
// log runs in NoSync mode — the setting for simulated crashes, where the
// process survives and page-cache durability models the kill faithfully;
// real deployments pass fsync true. observeFlush, if non-nil, sees every
// flush (see wal.Options.ObserveFlush).
func OpenJournal(dir string, fsync bool, observeFlush func(d time.Duration, bytes int, synced bool)) (*Journal, *Recovery, error) {
	l, err := wal.Open(dir, wal.Options{NoSync: !fsync, ObserveFlush: observeFlush})
	if err != nil {
		return nil, nil, err
	}
	j := NewJournal(l)
	rec, err := j.Recover()
	if err != nil {
		_ = l.Close()
		return nil, nil, fmt.Errorf("core: wal replay failed — durable state is unusable: %w", err)
	}
	return j, rec, nil
}

// Log exposes the underlying WAL (stats, tests).
func (j *Journal) Log() *wal.Log { return j.log }

// append stages the record in scratch and marks its segment with height h
// and own vote round r.
func (j *Journal) append(rt wal.RecordType, h types.Height, r types.Round) error {
	if err := j.log.Append(rt, j.scratch); err != nil {
		return err
	}
	j.markFor(j.log.Active()).note(h, r, len(j.scratch))
	return nil
}

// markFor returns segment idx's mark, adding it when idx is a new segment.
func (j *Journal) markFor(idx int) *segMark {
	if n := len(j.segs); n == 0 || j.segs[n-1].idx != idx {
		j.segs = append(j.segs, segMark{idx: idx})
	}
	return &j.segs[len(j.segs)-1]
}

// AppendBlock stages a block record.
func (j *Journal) AppendBlock(b *types.Block) error {
	j.scratch = types.AppendUint64(j.scratch[:0], uint64(b.Height))
	j.scratch = b.AppendEncoding(j.scratch)
	j.sum.noteQC(b.Justify)
	return j.append(RecBlock, b.Height, 0)
}

// AppendVote stages a record of an own cast vote.
func (j *Journal) AppendVote(v *types.Vote) error {
	j.scratch = v.Encode(j.scratch[:0])
	j.sum.voted = max(j.sum.voted, v.Round)
	return j.append(RecVote, v.Height, v.Round)
}

// AppendQC stages a certificate that did not arrive inside a block.
func (j *Journal) AppendQC(qc *types.QC) error {
	j.scratch = qc.Encode(j.scratch[:0])
	j.sum.noteQC(qc)
	return j.append(RecQC, qc.Height, 0)
}

// AppendLock stages the new locked round.
func (j *Journal) AppendLock(r types.Round) error {
	j.scratch = types.AppendUint64(j.scratch[:0], uint64(r))
	j.sum.Locked = max(j.sum.Locked, r)
	return j.append(RecLock, 0, 0)
}

// AppendCommit stages a commit marker.
func (j *Journal) AppendCommit(id types.BlockID, h types.Height, r types.Round) error {
	j.scratch = append(j.scratch[:0], id[:]...)
	j.scratch = types.AppendUint64(j.scratch, uint64(h))
	j.scratch = types.AppendUint64(j.scratch, uint64(r))
	j.sum.noteCommit(id, h, r)
	return j.append(RecCommit, h, 0)
}

// CheckpointDue reports whether a prune cut at floor, whose committed block
// has round floorRound, passes sealed segments worth a checkpoint: at least
// one, holding together at least as many bytes as the last checkpoint took.
func (j *Journal) CheckpointDue(floor types.Height, floorRound types.Round) bool {
	if !j.ready {
		return false
	}
	n, bytes := 0, 0
	for i := range j.segs {
		if m := &j.segs[i]; j.below(m, floor, floorRound) {
			n, bytes = n+1, bytes+m.bytes
		}
	}
	return n > 0 && bytes >= j.cpBytes
}

// below reports whether segment m is sealed and wholly below the cut.
func (j *Journal) below(m *segMark, floor types.Height, floorRound types.Round) bool {
	return m.idx != j.log.Active() && m.height < floor && m.round < floorRound
}

// Checkpoint bounds the log at a prune cut: it seals the active segment,
// opens the next with one checkpoint record — the floor, the journal's
// running maxima over every record so far and app, the executor's checkpoint
// (nil without an app) — makes it durable, and deletes every sealed segment
// wholly below the cut. A crash at any step leaves a log Recover rebuilds the
// same state from: the deleted segments' records are all below the floor or
// summarized by the checkpoint before the first deletion. For the same reason
// a deletion needs no directory fsync: a segment that reappears after a crash
// holds nothing the checkpoint does not cover, and the next checkpoint
// deletes it again. The caller has pruned its store at floor; the journal
// only drops what that cut dropped.
func (j *Journal) Checkpoint(floor types.Height, floorRound types.Round, app []byte) error {
	if err := j.log.Rotate(); err != nil {
		return err
	}
	checkpointStep("rotate")
	j.scratch = j.sum.appendCheckpoint(j.scratch[:0], floor, app)
	if err := j.append(RecCheckpoint, floor, 0); err != nil {
		return err
	}
	j.cpBytes = len(j.scratch)
	checkpointStep("append")
	if err := j.log.Flush(); err != nil {
		return err
	}
	checkpointStep("sync")
	kept := j.segs[:0]
	for _, m := range j.segs {
		if !j.below(&m, floor, floorRound) {
			kept = append(kept, m)
			continue
		}
		if err := j.log.Remove(m.idx); err != nil {
			return err
		}
		checkpointStep("remove")
	}
	j.segs = kept
	return nil
}

// Dirty reports whether staged records await a Flush.
func (j *Journal) Dirty() bool { return j.log.Dirty() }

// Flush makes every staged record durable (one fsync for the batch, per the
// log's sync options).
func (j *Journal) Flush() error { return j.log.Flush() }

// Close flushes with a forced fsync and closes the log; the graceful
// shutdown path (runtime.Node) calls it so buffered appends are never
// dropped on the floor.
func (j *Journal) Close() error { return j.log.Close() }

// Recovery is the durable state replayed from a journal, in a form the
// engines' Restore hooks consume directly.
type Recovery struct {
	// Floor is the prune cut of the newest checkpoint, 0 without one: Blocks
	// then hold only blocks at or above it, those at it parentless, as
	// blockstore.Store.PruneBelow leaves them.
	Floor types.Height
	// App is the executor's checkpoint (app.Executor.Checkpoint) at the
	// newest checkpoint, nil without one or without an app.
	App []byte
	// Blocks are the accepted blocks in original insertion order (parents
	// before children, since acceptance required the parent present).
	Blocks []*types.Block
	// Votes are the replica's own cast votes, oldest first, from the
	// segments the log still holds.
	Votes []types.Vote
	// QCs are the standalone certificates in append order.
	QCs []*types.QC
	// Locked is the highest recorded lock round.
	Locked types.Round
	// HighQC is the highest-ranked certificate seen anywhere in the log
	// (standalone records and block justifies), or nil for a fresh log.
	HighQC *types.QC
	// Committed is the last recorded committed block.
	Committed       types.BlockID
	CommittedHeight types.Height
	CommittedRound  types.Round

	// voted is the highest voted round the newest checkpoint summarized.
	voted types.Round
}

// VotedRound returns the highest round among the replayed own votes and
// those a checkpoint summarized.
func (r *Recovery) VotedRound() types.Round {
	max := r.voted
	for i := range r.Votes {
		if r.Votes[i].Round > max {
			max = r.Votes[i].Round
		}
	}
	return max
}

// Empty reports whether the journal held no records (a fresh replica).
func (r *Recovery) Empty() bool {
	return len(r.Blocks) == 0 && len(r.Votes) == 0 && len(r.QCs) == 0 &&
		r.Locked == 0 && r.HighQC == nil && r.CommittedHeight == 0 && r.Floor == 0
}

func (r *Recovery) noteQC(qc *types.QC) {
	if qc != nil && qc.RanksHigher(r.HighQC) {
		r.HighQC = qc
	}
}

// noteCommit keeps the highest commit (commits are logged in height order).
func (r *Recovery) noteCommit(id types.BlockID, h types.Height, round types.Round) {
	if h >= r.CommittedHeight {
		r.Committed, r.CommittedHeight, r.CommittedRound = id, h, round
	}
}

// appendCheckpoint encodes a checkpoint record: floor, lock round, voted
// round, commit height and round, committed block, then the high QC and the
// app's checkpoint, each behind a presence byte.
func (r *Recovery) appendCheckpoint(buf []byte, floor types.Height, app []byte) []byte {
	for _, u := range []uint64{uint64(floor), uint64(r.Locked), uint64(r.voted), uint64(r.CommittedHeight), uint64(r.CommittedRound)} {
		buf = types.AppendUint64(buf, u)
	}
	buf = append(buf, r.Committed[:]...)
	if r.HighQC == nil {
		buf = append(buf, 0)
	} else {
		buf = r.HighQC.Encode(append(buf, 1))
	}
	if app == nil {
		return append(buf, 0)
	}
	return types.AppendBytes(append(buf, 1), app)
}

// checkpoint seeds the recovery from a checkpoint record's payload.
func (r *Recovery) checkpoint(b []byte) error {
	var u [5]uint64
	var err error
	for i := range u {
		if u[i], b, err = types.ConsumeUint64(b); err != nil {
			return err
		}
	}
	r.Floor, r.Locked, r.voted = types.Height(u[0]), types.Round(u[1]), types.Round(u[2])
	r.CommittedHeight, r.CommittedRound = types.Height(u[3]), types.Round(u[4])
	if len(b) < 32+1 {
		return types.ErrShortBuffer
	}
	copy(r.Committed[:], b)
	if b = b[32:]; b[0] == 1 {
		if r.HighQC, b, err = types.DecodeQC(b[1:]); err != nil {
			return err
		}
	} else if b[0] == 0 {
		b = b[1:]
	} else {
		return fmt.Errorf("bad presence flag %d", b[0])
	}
	switch {
	case len(b) == 1 && b[0] == 0:
		return nil
	case len(b) > 1 && b[0] == 1:
		app, rest, err := types.ConsumeBytes(b[1:])
		if err != nil || len(rest) != 0 {
			return badRecord(err, rest)
		}
		r.App = append([]byte{}, app...)
		return nil
	}
	return fmt.Errorf("bad app checkpoint in %d bytes", len(b))
}

// Recover replays the journal's log into a Recovery, in one pass that starts
// from the newest checkpoint: every segment is read once, block records below
// the checkpoint's floor are skipped undecoded, and the rest is decoded with
// the pinned types decoders — a record that fails to decode is a corruption
// of safety-critical state and aborts recovery. It also rebuilds the
// journal's own maxima and segment marks, after which the journal may
// checkpoint.
func (j *Journal) Recover() (*Recovery, error) { return j.recover(nil) }

// recover is Recover; consumed, if non-nil, sees each payload once Recover is
// done with it (tests scribble over the read buffer with it).
func (j *Journal) recover(consumed func(payload []byte)) (*Recovery, error) {
	rec := &Recovery{}
	j.segs, j.ready, j.cpBytes = j.segs[:0], false, 0
	segs := j.log.Segments()
	for i := len(segs) - 1; i >= 0; i-- {
		rt, payload, err := j.log.First(segs[i])
		if err != nil {
			return nil, err
		}
		if rt == RecCheckpoint {
			if err := rec.checkpoint(payload); err != nil {
				return nil, fmt.Errorf("core: recover checkpoint record: %w", err)
			}
			j.cpBytes = len(payload)
			break
		}
	}
	for _, idx := range segs {
		j.markFor(idx)
	}
	seg := 0 // index into j.segs of the segment being replayed
	err := j.log.Replay(func(idx int, rt wal.RecordType, payload []byte) error {
		if consumed != nil {
			defer consumed(payload)
		}
		for j.segs[seg].idx != idx {
			seg++
		}
		h, r, err := rec.record(rt, payload)
		j.segs[seg].note(h, r, len(payload))
		return err
	})
	if err != nil {
		return nil, err
	}
	j.sum = Recovery{
		Locked: rec.Locked, voted: rec.VotedRound(), HighQC: rec.HighQC,
		Committed: rec.Committed, CommittedHeight: rec.CommittedHeight, CommittedRound: rec.CommittedRound,
	}
	j.ready = true
	return rec, nil
}

// record replays one record into the recovery and returns the height (and,
// for an own vote, the round) it names, for its segment's mark.
func (r *Recovery) record(rt wal.RecordType, payload []byte) (types.Height, types.Round, error) {
	switch rt {
	case RecBlock:
		h, body, err := types.ConsumeUint64(payload)
		if err != nil {
			return 0, 0, fmt.Errorf("core: recover block record: %w", err)
		}
		if types.Height(h) < r.Floor {
			return types.Height(h), 0, nil // below the floor: the checkpoint summarized it
		}
		b, rest, err := types.DecodeBlock(body)
		if err != nil || len(rest) != 0 || b.Height != types.Height(h) {
			return 0, 0, fmt.Errorf("core: recover block record: %w", badRecord(err, rest))
		}
		r.Blocks = append(r.Blocks, b)
		r.noteQC(b.Justify)
		return b.Height, 0, nil
	case RecVote:
		v, rest, err := types.DecodeVote(payload)
		if err != nil || len(rest) != 0 {
			return 0, 0, fmt.Errorf("core: recover vote record: %w", badRecord(err, rest))
		}
		r.Votes = append(r.Votes, v)
		return v.Height, v.Round, nil
	case RecQC:
		qc, rest, err := types.DecodeQC(payload)
		if err != nil || len(rest) != 0 {
			return 0, 0, fmt.Errorf("core: recover qc record: %w", badRecord(err, rest))
		}
		r.QCs = append(r.QCs, qc)
		r.noteQC(qc)
		return qc.Height, 0, nil
	case RecLock:
		round, rest, err := types.ConsumeUint64(payload)
		if err != nil || len(rest) != 0 {
			return 0, 0, fmt.Errorf("core: recover lock record: %w", badRecord(err, rest))
		}
		r.Locked = max(r.Locked, types.Round(round))
		return 0, 0, nil
	case RecCommit:
		if len(payload) != 32+8+8 {
			return 0, 0, fmt.Errorf("core: recover commit record: %d bytes", len(payload))
		}
		var id types.BlockID
		copy(id[:], payload)
		h, rest, _ := types.ConsumeUint64(payload[32:])
		round, _, _ := types.ConsumeUint64(rest)
		r.noteCommit(id, types.Height(h), types.Round(round))
		return types.Height(h), 0, nil
	case RecCheckpoint:
		// The newest was read first; an older one says nothing newer.
		h, _, err := types.ConsumeUint64(payload)
		if err != nil {
			return 0, 0, fmt.Errorf("core: recover checkpoint record: %w", err)
		}
		return types.Height(h), 0, nil
	}
	return 0, 0, fmt.Errorf("core: unknown journal record type %d", rt)
}

func badRecord(err error, rest []byte) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("%d trailing bytes", len(rest))
}
