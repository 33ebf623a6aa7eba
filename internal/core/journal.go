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

// Journal record types.
const (
	// RecBlock is a block accepted into the replica's store (full pinned
	// encoding; the embedded justify QC certifies its parent).
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
)

// Journal wraps a WAL with typed appenders for the consensus records. The
// encoding scratch buffer is reused, so steady-state appends on the vote
// path are allocation-free. Not safe for concurrent use; the owning engine
// serializes events.
type Journal struct {
	log     *wal.Log
	scratch []byte
}

// NewJournal wraps an opened log.
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
	rec, err := Recover(l)
	if err != nil {
		_ = l.Close()
		return nil, nil, fmt.Errorf("core: wal replay failed — durable state is unusable: %w", err)
	}
	return NewJournal(l), rec, nil
}

// Log exposes the underlying WAL (stats, tests).
func (j *Journal) Log() *wal.Log { return j.log }

// AppendBlock stages a block record.
func (j *Journal) AppendBlock(b *types.Block) error {
	j.scratch = b.AppendEncoding(j.scratch[:0])
	return j.log.Append(RecBlock, j.scratch)
}

// AppendVote stages a record of an own cast vote.
func (j *Journal) AppendVote(v *types.Vote) error {
	j.scratch = v.Encode(j.scratch[:0])
	return j.log.Append(RecVote, j.scratch)
}

// AppendQC stages a certificate that did not arrive inside a block.
func (j *Journal) AppendQC(qc *types.QC) error {
	j.scratch = qc.Encode(j.scratch[:0])
	return j.log.Append(RecQC, j.scratch)
}

// AppendLock stages the new locked round.
func (j *Journal) AppendLock(r types.Round) error {
	j.scratch = types.AppendUint64(j.scratch[:0], uint64(r))
	return j.log.Append(RecLock, j.scratch)
}

// AppendCommit stages a commit marker.
func (j *Journal) AppendCommit(id types.BlockID, h types.Height, r types.Round) error {
	j.scratch = append(j.scratch[:0], id[:]...)
	j.scratch = types.AppendUint64(j.scratch, uint64(h))
	j.scratch = types.AppendUint64(j.scratch, uint64(r))
	return j.log.Append(RecCommit, j.scratch)
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
	// Blocks are the accepted blocks in original insertion order (parents
	// before children, since acceptance required the parent present).
	Blocks []*types.Block
	// Votes are the replica's own cast votes, oldest first.
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
}

// VotedRound returns the highest round among the replayed own votes.
func (r *Recovery) VotedRound() types.Round {
	var max types.Round
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
		r.Locked == 0 && r.HighQC == nil && r.CommittedHeight == 0
}

// Recover replays a journal's log into a Recovery. It decodes every record
// with the pinned types decoders; a record that fails to decode is a
// corruption of safety-critical state and aborts recovery.
func Recover(l *wal.Log) (*Recovery, error) {
	rec := &Recovery{}
	noteQC := func(qc *types.QC) {
		if qc != nil && qc.RanksHigher(rec.HighQC) {
			rec.HighQC = qc
		}
	}
	err := l.Replay(func(rt wal.RecordType, payload []byte) error {
		switch rt {
		case RecBlock:
			b, rest, err := types.DecodeBlock(payload)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("core: recover block record: %w", badRecord(err, rest))
			}
			rec.Blocks = append(rec.Blocks, b)
			noteQC(b.Justify)
		case RecVote:
			v, rest, err := types.DecodeVote(payload)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("core: recover vote record: %w", badRecord(err, rest))
			}
			rec.Votes = append(rec.Votes, v)
		case RecQC:
			qc, rest, err := types.DecodeQC(payload)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("core: recover qc record: %w", badRecord(err, rest))
			}
			rec.QCs = append(rec.QCs, qc)
			noteQC(qc)
		case RecLock:
			r, rest, err := types.ConsumeUint64(payload)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("core: recover lock record: %w", badRecord(err, rest))
			}
			if types.Round(r) > rec.Locked {
				rec.Locked = types.Round(r)
			}
		case RecCommit:
			if len(payload) != 32+8+8 {
				return fmt.Errorf("core: recover commit record: %d bytes", len(payload))
			}
			var id types.BlockID
			copy(id[:], payload)
			h, rest, _ := types.ConsumeUint64(payload[32:])
			r, _, _ := types.ConsumeUint64(rest)
			// Commits are logged in height order; keep the highest.
			if types.Height(h) >= rec.CommittedHeight {
				rec.Committed = id
				rec.CommittedHeight = types.Height(h)
				rec.CommittedRound = types.Round(r)
			}
		default:
			return fmt.Errorf("core: unknown journal record type %d", rt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

func badRecord(err error, rest []byte) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("%d trailing bytes", len(rest))
}
