package streamlet_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/streamlet"
	"repro/internal/types"
)

// TestProposalWindowBoundsFutureRounds pins the Streamlet analogue of the
// active pacemaker's future window: with ProposalWindow set, a proposal
// claiming a round far beyond the local lock-step slot is rejected at both
// the prevalidate stage (before signature work) and the state stage, while
// in-window proposals still flow. The zero-value baseline stays unbounded.
func TestProposalWindowBoundsFutureRounds(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	sink := obs.New(obs.Options{N: 4, F: 1})
	rep, err := streamlet.New(streamlet.Config{
		Config: replica.Config{
			ID: 1, N: 4, F: 1,
			Signer:           ring.Signer(1),
			Verifier:         ring,
			VerifySignatures: true,
			SFT:              true,
			Obs:              sink,
		},
		Delta:          50 * time.Millisecond,
		ProposalWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Init(0)

	g := types.Genesis()
	mk := func(round types.Round) *types.Proposal {
		leader := types.ReplicaID((uint64(round) - 1) % 4)
		b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), round, 1, leader, 5, types.Payload{}, nil)
		p := &types.Proposal{Block: b, Round: round, Sender: leader}
		p.Signature = ring.Signer(leader).Sign(p.SigningPayload())
		return p
	}

	far := mk(100)
	if err := rep.Prevalidate(far.Sender, far); err == nil {
		t.Fatal("far-future proposal passed prevalidation")
	}
	if outs := rep.OnMessage(0, far.Sender, far); len(outs) != 0 {
		t.Fatalf("far-future proposal produced %d outputs at the state stage", len(outs))
	}
	if sink.RoundEntryRejections() < 2 {
		t.Fatalf("window rejections not counted (got %d)", sink.RoundEntryRejections())
	}

	near := mk(1)
	if err := rep.Prevalidate(near.Sender, near); err != nil {
		t.Fatalf("in-window proposal rejected at prevalidation: %v", err)
	}
	if outs := rep.OnMessage(0, near.Sender, near); len(outs) == 0 {
		t.Fatal("in-window proposal produced no outputs")
	}
}
