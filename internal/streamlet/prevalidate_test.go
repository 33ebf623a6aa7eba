package streamlet_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/replica"
	"repro/internal/streamlet"
	"repro/internal/types"
)

func prevalidateReplica(t *testing.T, ring *crypto.KeyRing) *streamlet.Replica {
	t.Helper()
	rep, err := streamlet.New(streamlet.Config{
		Config: replica.Config{
			ID: 1, N: 4, F: 1,
			Signer:           ring.Signer(1),
			Verifier:         ring,
			VerifySignatures: true,
			SFT:              true,
		},
		Delta: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStreamletPrevalidate covers the Streamlet stateless stage: proposals
// and votes directly, and — the Streamlet-specific part — recursively
// through the echo relay wrapper, which carries the inner message's original
// signature.
func TestStreamletPrevalidate(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := prevalidateReplica(t, ring)
	rep.Init(0)

	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	p := &types.Proposal{Block: b, Round: 1, Sender: 0}
	p.Signature = ring.Signer(0).Sign(p.SigningPayload())
	if err := rep.Prevalidate(0, p); err != nil {
		t.Fatalf("genuine proposal rejected: %v", err)
	}

	forged := &types.Proposal{Block: b, Round: 1, Sender: 0}
	forged.Signature = ring.Signer(2).Sign(forged.SigningPayload())
	if err := rep.Prevalidate(0, forged); err == nil {
		t.Fatal("forged proposal passed prevalidation")
	}

	v := types.Vote{Block: b.ID(), Round: 1, Height: 1, Voter: 2}
	v.Signature = ring.Signer(2).Sign(v.SigningPayload())
	if err := rep.Prevalidate(2, &types.VoteMsg{Vote: v}); err != nil {
		t.Fatalf("genuine vote rejected: %v", err)
	}

	// Echoes relay the inner message with its original signature: a genuine
	// inner vote passes regardless of relayer, a tampered one fails.
	echo := &types.Echo{Inner: &types.VoteMsg{Vote: v}, Relayer: 3}
	if err := rep.Prevalidate(3, echo); err != nil {
		t.Fatalf("genuine echoed vote rejected: %v", err)
	}
	bad := v
	bad.Marker = 7
	badEcho := &types.Echo{Inner: &types.VoteMsg{Vote: bad}, Relayer: 3}
	if err := rep.Prevalidate(3, badEcho); err == nil {
		t.Fatal("tampered echoed vote passed prevalidation")
	}
	if err := rep.Prevalidate(3, &types.Echo{Relayer: 3}); err == nil {
		t.Fatal("echo without inner message passed prevalidation")
	}
}

// TestEchoNestingBounded pins the depth cap: a maliciously nested echo chain
// is rejected by prevalidation and ignored by the state stage, in both cases
// without recursing the stack.
func TestEchoNestingBounded(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := prevalidateReplica(t, ring)
	rep.Init(0)

	v := types.Vote{Round: 1, Voter: 2}
	v.Signature = ring.Signer(2).Sign(v.SigningPayload())
	var msg types.Message = &types.VoteMsg{Vote: v}
	for i := 0; i < 100000; i++ {
		msg = &types.Echo{Inner: msg, Relayer: 3}
	}
	if err := rep.Prevalidate(3, msg); err == nil {
		t.Fatal("deeply nested echo passed prevalidation")
	}
	if outs := rep.OnMessage(0, 3, msg); len(outs) != 0 {
		t.Fatalf("deeply nested echo produced %d outputs", len(outs))
	}
	// A single wrap — the honest shape — still works through both stages.
	one := &types.Echo{Inner: &types.VoteMsg{Vote: v}, Relayer: 3}
	if err := rep.Prevalidate(3, one); err != nil {
		t.Fatalf("singly wrapped echo rejected: %v", err)
	}
}
