package diembft_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
)

// soloReplica builds one replica engine for direct white-box event feeding.
func soloReplica(t *testing.T, id types.ReplicaID, n, f int, ring *crypto.KeyRing) *diembft.Replica {
	t.Helper()
	rep, err := diembft.New(diembft.Config{
		Config: replica.Config{
			ID:               id,
			N:                n,
			Signer:           ring.Signer(id),
			Verifier:         ring,
			VerifySignatures: true,
		},
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// hasVote reports whether any output is a vote send.
func hasVote(outs []engine.Output) bool {
	for _, o := range outs {
		if o.Kind == engine.Send {
			if _, isVote := o.Msg.(*types.VoteMsg); isVote {
				return true
			}
		}
	}
	return false
}

// genuineProposal builds a correctly signed round-1 proposal from replica 0.
func genuineProposal(ring *crypto.KeyRing, payloadTag uint32) *types.Proposal {
	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5,
		types.Payload{Txns: []types.Transaction{{Sender: payloadTag}}}, nil)
	p := &types.Proposal{Block: b, Round: 1, Sender: 0}
	p.Signature = ring.Signer(0).Sign(p.SigningPayload())
	return p
}

func TestRejectsForgedProposalSignature(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	p := genuineProposal(ring, 1)
	p.Signature = ring.Signer(2).Sign(p.SigningPayload()) // wrong key
	if hasVote(rep.OnMessage(0, 0, p)) {
		t.Fatal("voted for a proposal with a forged signature")
	}
	good := genuineProposal(ring, 1)
	if !hasVote(rep.OnMessage(0, 0, good)) {
		t.Fatal("did not vote for a genuine proposal")
	}
}

func TestRejectsWrongLeader(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	// Replica 2 proposes in round 1, but round 1 belongs to replica 0.
	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 2, 5, types.Payload{}, nil)
	p := &types.Proposal{Block: b, Round: 1, Sender: 2}
	p.Signature = ring.Signer(2).Sign(p.SigningPayload())
	if hasVote(rep.OnMessage(0, 2, p)) {
		t.Fatal("voted for a proposal from the wrong leader")
	}
}

func TestVotesOncePerRound(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	// Two different valid-looking proposals for round 1 from the leader
	// (an equivocation): only the first gets a vote.
	p1 := genuineProposal(ring, 1)
	p2 := genuineProposal(ring, 2)
	if !hasVote(rep.OnMessage(0, 0, p1)) {
		t.Fatal("first proposal not voted")
	}
	if hasVote(rep.OnMessage(0, 0, p2)) {
		t.Fatal("voted twice in one round")
	}
}

func TestRejectsProposalWithInvalidJustify(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	// Round-2 block justified by a QC with forged vote signatures.
	g := types.Genesis()
	b1 := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	var votes []types.Vote
	for i := 0; i < 3; i++ {
		v := types.Vote{Block: b1.ID(), Round: 1, Height: 1, Voter: types.ReplicaID(i)}
		v.Signature = []byte("forged")
		votes = append(votes, v)
	}
	badQC := &types.QC{Block: b1.ID(), Round: 1, Height: 1, Votes: votes}
	b2 := types.NewBlock(b1.ID(), badQC, 2, 2, 1, 6, types.Payload{}, nil)
	p := &types.Proposal{Block: b2, Round: 2, Sender: 1}
	p.Signature = ring.Signer(1).Sign(p.SigningPayload())

	// Even with the parent present, the forged QC must be rejected.
	gp := genuineProposal(ring, 1)
	rep.OnMessage(0, 0, gp)
	if hasVote(rep.OnMessage(0, 1, p)) {
		t.Fatal("voted for a proposal with a forged justify QC")
	}
}

func TestOrphanProposalsFlushInOrder(t *testing.T) {
	// Deliver proposals out of order (child before parent): the replica
	// must buffer the orphan and process it once the parent arrives.
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)

	// Drive a 4-replica simulated cluster and collect replica 3's commits
	// while reordering its deliveries via a jittery latency model with a
	// huge spread.
	commits := 0
	sim := simnet.New(simnet.Config{
		N:       4,
		Latency: &simnet.UniformModel{Base: time.Millisecond, Jitter: 40 * time.Millisecond},
		Seed:    4,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			if rep == 3 {
				commits++
			}
		},
	})
	for i := 0; i < 4; i++ {
		id := types.ReplicaID(i)
		rep, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID: id, N: 4,
				Signer:           ring.Signer(id),
				Verifier:         ring,
				VerifySignatures: true,
			},
			RoundTimeout: 800 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(id, rep)
	}
	sim.Run(10 * time.Second)
	if commits < 20 {
		t.Fatalf("reordered delivery broke progress: %d commits", commits)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// The same seed must yield the exact same commit sequence.
	run := func(seed int64) []types.BlockID {
		var got []types.BlockID
		simCfg := simnet.Config{
			Seed: seed,
			OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
				if rep == 0 {
					got = append(got, b.ID())
				}
			},
		}
		sim, _ := buildCluster(t, 4, 1, nil, simCfg)
		sim.Run(2 * time.Second)
		return got
	}
	a, b := run(77), run(77)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("commit %d differs across identical seeds", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	base := diembft.Config{
		Config: replica.Config{
			ID: 0, N: 4,
			Signer: ring.Signer(0), Verifier: ring,
		},
		RoundTimeout: time.Second,
	}
	bad := base
	bad.N = 5
	if _, err := diembft.New(bad); err == nil {
		t.Error("accepted n != 3f+1")
	}
	bad = base
	bad.Signer = nil
	if _, err := diembft.New(bad); err == nil {
		t.Error("accepted nil signer")
	}
	bad = base
	bad.RoundTimeout = 0
	if _, err := diembft.New(bad); err == nil {
		t.Error("accepted zero timeout")
	}
	if _, err := diembft.New(base); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}
