package diembft_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wal"
)

// openJournal opens (or reopens) a replica's WAL under dir.
func openJournal(t *testing.T, dir string, id types.ReplicaID) *core.Journal {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("replica-%d", id)), wal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	return core.NewJournal(l)
}

// recoverReplica rebuilds a replica from its journal dir with the given
// config mutation applied on top of the test default.
func recoverReplica(t *testing.T, dir string, id types.ReplicaID, n, f int, ring *crypto.KeyRing) (*diembft.Replica, *core.Recovery) {
	t.Helper()
	j := openJournal(t, dir, id)
	rec, err := j.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	rep, err := diembft.New(diembft.Config{
		Config: replica.Config{
			ID: id, N: n,
			Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
			Journal: j,
		}, RoundTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := rep.Restore(rec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return rep, rec
}

// TestKillRestartMatchesPreCrashState is the PR-2 determinism criterion:
// under a fixed seed, a replica killed mid-run and restored from its WAL
// reports the same high-QC, committed prefix, and VoteHistory markers as the
// pre-crash engine object (which the simulator conveniently keeps frozen).
func TestKillRestartMatchesPreCrashState(t *testing.T) {
	const (
		n      = 4
		f      = 1
		victim = types.ReplicaID(2)
	)
	dir := t.TempDir()
	ring, err := crypto.NewKeyRing(n, 42, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := simnet.Config{Seed: 11}
	sim, replicas := buildCluster(t, n, f, func(id types.ReplicaID, c *diembft.Config) {
		if id == victim {
			c.Journal = openJournal(t, dir, id)
		}
	}, simCfg)
	sim.CrashAt(victim, 2*time.Second)
	sim.Run(3 * time.Second)

	pre := replicas[victim] // frozen at the crash instant
	if pre.CommittedHeight() == 0 || pre.VotedRound() == 0 {
		t.Fatalf("victim made no progress before the crash (committed h%d, voted r%d)",
			pre.CommittedHeight(), pre.VotedRound())
	}

	post, _ := recoverReplica(t, dir, victim, n, f, ring)

	if got, want := post.HighQC().Block, pre.HighQC().Block; got != want {
		t.Errorf("high QC block: recovered %v, pre-crash %v", got, want)
	}
	if got, want := post.HighQC().Round, pre.HighQC().Round; got != want {
		t.Errorf("high QC round: recovered %d, pre-crash %d", got, want)
	}
	if got, want := post.LastCommitted(), pre.LastCommitted(); got != want {
		t.Errorf("last committed: recovered %v, pre-crash %v", got, want)
	}
	if got, want := post.CommittedHeight(), pre.CommittedHeight(); got != want {
		t.Errorf("committed height: recovered %d, pre-crash %d", got, want)
	}
	if got, want := post.VotedRound(), pre.VotedRound(); got != want {
		t.Errorf("voted round: recovered %d, pre-crash %d", got, want)
	}
	if got, want := post.LockedRound(), pre.LockedRound(); got != want {
		t.Errorf("locked round: recovered %d, pre-crash %d", got, want)
	}

	// The vote history — the state the paper's markers summarize — must
	// match entry for entry.
	preVoted, postVoted := pre.History().Voted(), post.History().Voted()
	if len(preVoted) != len(postVoted) {
		t.Fatalf("vote history length: recovered %d, pre-crash %d", len(postVoted), len(preVoted))
	}
	for i := range preVoted {
		if preVoted[i] != postVoted[i] {
			t.Fatalf("vote history entry %d: recovered %+v, pre-crash %+v", i, postVoted[i], preVoted[i])
		}
	}

	// And the derived markers agree on a fresh extension of the high chain:
	// the recovered replica's next vote carries exactly the marker the
	// pre-crash replica would have reported.
	tip := pre.Store().Block(pre.HighQC().Height, pre.HighQC().Block)
	if tip == nil {
		t.Fatal("pre-crash store lost its high block")
	}
	ext := types.NewBlock(tip.ID(), pre.HighQC(), tip.Round+1, tip.Height+1, 0, 0, types.Payload{}, nil)
	if err := pre.Store().Insert(ext); err != nil {
		t.Fatalf("extend pre-crash store: %v", err)
	}
	if err := post.Store().Insert(ext); err != nil {
		t.Fatalf("extend recovered store: %v", err)
	}
	if got, want := post.History().Marker(ext), pre.History().Marker(ext); got != want {
		t.Errorf("marker on fresh extension: recovered %d, pre-crash %d", got, want)
	}
}

// TestRecoveredReplicaRefusesContradictingVote is the PR-2 safety
// criterion: drive a post-recovery engine with proposals that would
// contradict its persisted history and assert the vote rule refuses — and
// that when it does vote on a conflicting fork, the marker faithfully
// reports the pre-crash conflicting round.
func TestRecoveredReplicaRefusesContradictingVote(t *testing.T) {
	const (
		n      = 4
		f      = 1
		victim = types.ReplicaID(3) // leads no early round; votes on everything
	)
	dir := t.TempDir()
	ring, err := crypto.NewKeyRing(n, 42, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: drive the victim directly with a signed proposal for round 1
	// so it votes for block A, journaling vote + block.
	journal := openJournal(t, dir, victim)
	pre, err := diembft.New(diembft.Config{
		Config: replica.Config{
			ID: victim, N: n,
			Signer: ring.Signer(victim), Verifier: ring, VerifySignatures: true,
			Journal: journal,
		}, RoundTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pre.Init(0)

	genesis := pre.Store().Genesis()
	gqc := types.NewGenesisQC(genesis.ID())
	leader1 := types.ReplicaID(0) // round-robin: replica 0 leads round 1
	blockA := types.NewBlock(genesis.ID(), gqc, 1, 1, leader1, 0, types.Payload{
		Txns: []types.Transaction{{Sender: 1, Seq: 1, Data: []byte("fork-A")}},
	}, nil)
	propA := &types.Proposal{Block: blockA, Round: 1, Sender: leader1}
	propA.Signature = ring.Signer(leader1).Sign(propA.SigningPayload())

	outs := pre.OnMessage(0, leader1, propA)
	voteA := findVote(t, outs)
	if voteA == nil {
		t.Fatal("victim did not vote for the round-1 proposal")
	}
	if voteA.Block != blockA.ID() {
		t.Fatalf("voted for %v, want %v", voteA.Block, blockA.ID())
	}

	// Phase 2: crash (drop the engine) and recover from the WAL.
	post, rec := recoverReplica(t, dir, victim, n, f, ring)
	if len(rec.Votes) != 1 {
		t.Fatalf("recovered %d votes, want 1", len(rec.Votes))
	}
	post.Init(0)

	// Refusal 1: the same round again — even the identical proposal must
	// not produce a second vote (rvote was restored).
	if v := findVote(t, post.OnMessage(0, leader1, propA)); v != nil {
		t.Fatalf("recovered replica re-voted in round %d: %v", 1, v)
	}

	// Refusal 2: a CONFLICTING round-1 proposal (equivocating leader). A
	// forgetful replica would happily vote for it, contradicting its
	// pre-crash vote for A; the recovered one must refuse.
	blockA2 := types.NewBlock(genesis.ID(), gqc, 1, 1, leader1, 0, types.Payload{
		Txns: []types.Transaction{{Sender: 1, Seq: 1, Data: []byte("fork-A2")}},
	}, nil)
	propA2 := &types.Proposal{Block: blockA2, Round: 1, Sender: leader1}
	propA2.Signature = ring.Signer(leader1).Sign(propA2.SigningPayload())
	if v := findVote(t, post.OnMessage(0, leader1, propA2)); v != nil {
		t.Fatalf("recovered replica voted for a conflicting round-1 block: %v", v)
	}

	// Advance the recovered replica into round 2 the way the protocol does:
	// a timeout certificate (2f+1 peers giving up on round 1).
	for _, peer := range []types.ReplicaID{0, 1, 2} {
		to := &types.Timeout{Round: 1, HighQC: gqc, Sender: peer}
		to.Signature = ring.Signer(peer).Sign(to.SigningPayload())
		post.OnMessage(0, peer, to)
	}
	if got := post.Round(); got != 2 {
		t.Fatalf("timeout certificate did not advance the recovered replica: round %d", got)
	}

	// Marker obligation: a round-2 proposal on a DIFFERENT fork (extending
	// genesis, conflicting with A). The recovered replica may vote — but
	// the marker must be 1 (the round of its pre-crash vote for A), so the
	// vote endorses nothing on the abandoned fork. A replica that lost its
	// history would report marker 0 and endorse A's round, breaking the
	// resilience ladder.
	leader2 := types.ReplicaID(1)
	blockB := types.NewBlock(genesis.ID(), gqc, 2, 1, leader2, 0, types.Payload{
		Txns: []types.Transaction{{Sender: 2, Seq: 1, Data: []byte("fork-B")}},
	}, nil)
	propB := &types.Proposal{Block: blockB, Round: 2, Sender: leader2}
	propB.Signature = ring.Signer(leader2).Sign(propB.SigningPayload())
	voteB := findVote(t, post.OnMessage(0, leader2, propB))
	if voteB == nil {
		t.Fatal("recovered replica refused a legitimate round-2 proposal")
	}
	if voteB.Marker != 1 {
		t.Fatalf("recovered vote carries marker %d, want 1 (the pre-crash conflicting round)", voteB.Marker)
	}
	if voteB.Endorses(blockA.Round) {
		t.Fatal("recovered vote endorses the pre-crash conflicting round")
	}
}

// findVote extracts the vote from an output batch, or nil.
func findVote(t *testing.T, outs []engine.Output) *types.Vote {
	t.Helper()
	for _, out := range outs {
		if out.Kind == engine.Send {
			if vm, ok := out.Msg.(*types.VoteMsg); ok {
				v := vm.Vote
				return &v
			}
		}
	}
	return nil
}

// TestReplayedProposalJournaledOnce: a proposal delivered again finds its
// block stored and journals nothing more, yet still reaches the engine's
// protocol step. Five deliveries append one block record and one vote,
// flushed once; a replica restored with the block but no vote for it votes
// when the proposal arrives, without journaling the block a second time.
func TestReplayedProposalJournaledOnce(t *testing.T) {
	const id = types.ReplicaID(3)
	ring, err := crypto.NewKeyRing(4, 42, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*diembft.Replica, *wal.Log) {
		j := openJournal(t, t.TempDir(), id)
		rep, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID: id, N: 4,
				Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
				Journal: j,
			}, RoundTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, j.Log()
	}
	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 0, types.Payload{}, nil)
	p := &types.Proposal{Block: b, Round: 1, Sender: 0}
	p.Signature = ring.Signer(0).Sign(p.SigningPayload())
	records := func(log *wal.Log) (blocks, votes int) {
		if err := log.Replay(func(_ int, rt wal.RecordType, _ []byte) error {
			switch rt {
			case core.RecBlock:
				blocks++
			case core.RecVote:
				votes++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return blocks, votes
	}

	rep, log := build()
	rep.Init(0)
	before := log.Stats()
	voted := 0
	for range 5 {
		if findVote(t, rep.OnMessage(0, 0, p)) != nil {
			voted++
		}
	}
	after := log.Stats()
	if appends, flushes := after.Appends-before.Appends, after.Flushes-before.Flushes; voted != 1 || appends != 2 || flushes != 1 {
		t.Fatalf("five deliveries: %d votes, %d appends, %d flushes; want 1, 2 (block, vote), 1", voted, appends, flushes)
	}
	if blocks, votes := records(log); blocks != 1 || votes != 1 {
		t.Fatalf("journal holds %d block and %d vote records, want 1 and 1", blocks, votes)
	}

	rep, log = build()
	if err := rep.Restore(&core.Recovery{Blocks: []*types.Block{b}}); err != nil {
		t.Fatal(err)
	}
	rep.Init(0)
	if findVote(t, rep.OnMessage(0, 0, p)) == nil {
		t.Fatal("a restored block not yet voted for got no vote")
	}
	if blocks, votes := records(log); blocks != 0 || votes != 1 {
		t.Fatalf("after the restart the journal holds %d block and %d vote records, want 0 and 1", blocks, votes)
	}
}
