package core

import (
	"bytes"
	"testing"

	"repro/internal/intervals"
	"repro/internal/types"
	"repro/internal/wal"
)

func openTestJournal(t testing.TB) *Journal {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("wal: %v", err)
	}
	j := NewJournal(l)
	t.Cleanup(func() { _ = j.Close() })
	return j
}

func TestJournalRoundtrip(t *testing.T) {
	j := openTestJournal(t)

	g := types.Genesis()
	gqc := types.NewGenesisQC(g.ID())
	b1 := types.NewBlock(g.ID(), gqc, 1, 1, 0, 10, types.Payload{
		Txns: []types.Transaction{{Sender: 1, Seq: 1, Data: []byte("tx")}},
	}, nil)
	v1 := types.Vote{Block: b1.ID(), Round: 1, Height: 1, Voter: 2, Marker: 0, Signature: []byte("s1")}
	v2 := types.Vote{
		Block: b1.ID(), Round: 3, Height: 2, Voter: 2,
		HasIntervals: true,
		Intervals:    intervals.New(intervals.Interval{Lo: 2, Hi: 3}),
		Signature:    []byte("s2"),
	}
	qc1 := &types.QC{Block: b1.ID(), Round: 1, Height: 1, Votes: []types.Vote{v1}}

	if err := j.AppendBlock(b1); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendVote(&v1); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendQC(qc1); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendLock(4); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendLock(2); err != nil { // stale lock: Recover keeps the max
		t.Fatal(err)
	}
	if err := j.AppendVote(&v2); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommit(b1.ID(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	rec, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) != 1 || rec.Blocks[0].ID() != b1.ID() {
		t.Fatalf("blocks: %v", rec.Blocks)
	}
	if len(rec.Votes) != 2 || rec.Votes[0].Round != 1 || rec.Votes[1].Round != 3 {
		t.Fatalf("votes: %+v", rec.Votes)
	}
	if !rec.Votes[1].HasIntervals || !rec.Votes[1].Intervals.Equal(v2.Intervals) {
		t.Fatalf("interval vote lost its set: %+v", rec.Votes[1])
	}
	if rec.VotedRound() != 3 {
		t.Fatalf("voted round %d, want 3", rec.VotedRound())
	}
	if len(rec.QCs) != 1 || rec.QCs[0].Block != qc1.Block {
		t.Fatalf("qcs: %v", rec.QCs)
	}
	if rec.Locked != 4 {
		t.Fatalf("locked %d, want 4", rec.Locked)
	}
	if rec.HighQC == nil || rec.HighQC.Round != 1 {
		t.Fatalf("high qc: %v", rec.HighQC)
	}
	if rec.Committed != b1.ID() || rec.CommittedHeight != 1 || rec.CommittedRound != 1 {
		t.Fatalf("commit marker: %v h%d r%d", rec.Committed, rec.CommittedHeight, rec.CommittedRound)
	}
	if rec.Empty() {
		t.Fatal("recovery reported empty")
	}
}

func TestRecoverEmptyJournal(t *testing.T) {
	j := openTestJournal(t)
	rec, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
}

// TestJournalVoteAppendAllocFree is the PR-2 acceptance guard: the WAL
// append on the vote path — encode the vote into the journal's scratch,
// frame it, stage it, flush the batch — performs zero allocations in steady
// state.
func TestJournalVoteAppendAllocFree(t *testing.T) {
	j := openTestJournal(t)
	v := types.Vote{
		Block: types.BlockID{1}, Round: 9, Height: 7, Voter: 3, Marker: 2,
		Signature: make([]byte, 64),
	}
	// Warm up scratch and batch buffers.
	for i := 0; i < 64; i++ {
		if err := j.AppendVote(&v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := j.AppendVote(&v); err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("vote-path WAL append allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkJournalAppendVote(b *testing.B) {
	j := openTestJournal(b)
	v := types.Vote{
		Block: types.BlockID{1}, Round: 9, Height: 7, Voter: 3, Marker: 2,
		Signature: make([]byte, 64),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.AppendVote(&v); err != nil {
			b.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenJournalRoundTrip pins the durability contract the facade builds
// on: an empty directory opens with an empty recovery, and a journaled vote
// survives reopen.
func TestOpenJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh WAL recovered state: %+v", rec)
	}
	v := &types.Vote{Round: 3, Height: 2, Voter: 1}
	if err := j.AppendVote(v); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err = OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(rec.Votes) != 1 || rec.VotedRound() != 3 {
		t.Fatalf("reopen recovered %d votes, voted round %v", len(rec.Votes), rec.VotedRound())
	}
}

// TestRecoveredRecordsOwnTheirBytes: Replay reads each segment into one
// buffer reused across the pass, so nothing Recover returns may alias it.
// Every payload is scribbled over as soon as Recover has consumed it; the
// recovered blocks (payload data, justify signatures), votes, certificates
// and checkpoint must still encode exactly as appended.
func TestRecoveredRecordsOwnTheirBytes(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{NoSync: true, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(l)
	defer j.Close()
	if _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	g := types.Genesis()
	parent, justify := g, types.NewGenesisQC(g.ID())
	var blocks []*types.Block
	var votes []types.Vote
	var qcs []*types.QC
	for r := types.Round(1); r <= 12; r++ {
		b := types.NewBlock(parent.ID(), justify, r, parent.Height+1, 1, int64(r), types.Payload{
			Txns: []types.Transaction{{Sender: 1, Seq: uint64(r), Data: bytes.Repeat([]byte{byte(r)}, 100)}},
		}, nil)
		v := types.Vote{Block: b.ID(), Round: r, Height: b.Height, Voter: 2, Signature: bytes.Repeat([]byte{byte(r)}, 64)}
		qc := &types.QC{Block: b.ID(), Round: r, Height: b.Height, Votes: []types.Vote{v}}
		for _, err := range []error{j.AppendBlock(b), j.AppendVote(&v), j.AppendQC(qc), j.AppendCommit(b.ID(), b.Height, r)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		blocks, votes, qcs = append(blocks, b), append(votes, v), append(qcs, qc)
		parent, justify = b, qc
	}
	if err := j.Checkpoint(1, 1, []byte("app state")); err != nil {
		t.Fatal(err)
	}
	if len(l.Segments()) < 4 {
		t.Fatalf("%d segments; the test needs the buffer reused across several", len(l.Segments()))
	}
	rec, err := NewJournal(l).recover(func(p []byte) {
		for i := range p {
			p[i] ^= 0xFF
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) != len(blocks) || len(rec.Votes) != len(votes) || len(rec.QCs) != len(qcs) {
		t.Fatalf("recovered %d blocks, %d votes, %d certificates; want %d each", len(rec.Blocks), len(rec.Votes), len(rec.QCs), len(blocks))
	}
	for i := range blocks {
		if !bytes.Equal(rec.Blocks[i].AppendEncoding(nil), blocks[i].AppendEncoding(nil)) {
			t.Fatalf("block %d changed under the scribble", i)
		}
		if !bytes.Equal(rec.Votes[i].Encode(nil), votes[i].Encode(nil)) {
			t.Fatalf("vote %d changed under the scribble", i)
		}
		if !bytes.Equal(rec.QCs[i].Encode(nil), qcs[i].Encode(nil)) {
			t.Fatalf("certificate %d changed under the scribble", i)
		}
	}
	if string(rec.App) != "app state" || rec.HighQC.Round != 12 || rec.Floor != 1 {
		t.Fatalf("checkpoint changed under the scribble: app %q, high QC %v, floor %d", rec.App, rec.HighQC, rec.Floor)
	}
}
