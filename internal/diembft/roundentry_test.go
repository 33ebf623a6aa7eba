package diembft_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/types"
)

// activeReplica builds one replica with the attack-hardened pacemaker on,
// reporting rejections into sink (nil is fine).
func activeReplica(t *testing.T, id types.ReplicaID, n, f int, ring *crypto.KeyRing, sink *obs.Obs) *diembft.Replica {
	t.Helper()
	rep, err := diembft.New(diembft.Config{
		Config: replica.Config{
			ID:               id,
			N:                n,
			F:                f,
			Signer:           ring.Signer(id),
			Verifier:         ring,
			VerifySignatures: true,
			SFT:              true,
			Obs:              sink,
		},
		RoundTimeout:    time.Second,
		ActivePacemaker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func signedEntry(ring *crypto.KeyRing, e *types.RoundEntry) *types.RoundEntry {
	e.Signature = ring.Signer(e.Sender).Sign(e.SigningPayload())
	return e
}

// round1QC assembles a genuine 3-vote certificate for the round-1 block.
func round1QC(ring *crypto.KeyRing, b *types.Block) *types.QC {
	var votes []types.Vote
	for i := 0; i < 3; i++ {
		v := types.Vote{Block: b.ID(), Round: 1, Height: 1, Voter: types.ReplicaID(i)}
		v.Signature = ring.Signer(v.Voter).Sign(v.SigningPayload())
		votes = append(votes, v)
	}
	return &types.QC{Block: b.ID(), Round: 1, Height: 1, Votes: votes}
}

// genuineTC builds a verifiable timeout certificate for round 1 out of three
// properly signed timeouts.
func genuineTC(ring *crypto.KeyRing) *types.TC {
	g := types.Genesis()
	gqc := types.NewGenesisQC(g.ID())
	var timeouts []*types.Timeout
	for _, id := range []types.ReplicaID{0, 2, 3} {
		to := &types.Timeout{Round: 1, HighQC: gqc, HighRound: 0, Sender: id}
		to.Signature = ring.Signer(id).Sign(to.SigningPayload())
		timeouts = append(timeouts, to)
	}
	return types.NewTC(1, timeouts)
}

var pacemakerRejections = []rejection{
	{name: "timeout/high-round mismatch", from: 0, reason: "timeout:" + obs.ReasonMismatch, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.qc1, HighRound: 5, Sender: 0})
	}},
	{name: "timeout/no high QC", active: true, from: 0, reason: "timeout:" + obs.ReasonMismatch, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, Sender: 0})
	}},
	{name: "timeout/sub-quorum high QC", from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.cert(fx.b2, 0, 1), HighRound: 2, Sender: 0})
	}},
	{name: "timeout/duplicate-voter high QC", from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.cert(fx.b2, 0, 1, 1), HighRound: 2, Sender: 0})
	}},
	{name: "timeout/forged sender signature", sigOnly: true, from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		t := fx.timeout(&types.Timeout{Round: 2, HighQC: fx.qc2, HighRound: 2, Sender: 0})
		t.Signature = fx.ring.Signer(1).Sign(t.SigningPayload())
		return t
	}},
	{name: "timeout/forged high QC vote", sigOnly: true, from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.forgedCert(fx.b2), HighRound: 2, Sender: 0})
	}},
	{name: "timeout/beyond the future window", active: true, from: 0, reason: "timeout:" + obs.ReasonFutureWindow, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 100, HighQC: fx.qc2, HighRound: 2, Sender: 0})
	}},
	{name: "round entry/no justification", active: true, from: 0, reason: "entry:" + obs.ReasonNoJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 3, Sender: 0})
	}},
	{name: "round entry/both justifications", active: true, from: 0, reason: "entry:" + obs.ReasonNoJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 3, Justify: fx.qc2, TC: fx.tc(2, 0, 1, 2), Sender: 0})
	}},
	{name: "round entry/QC for the wrong round", active: true, from: 0, reason: "entry:" + obs.ReasonBadJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 4, Justify: fx.qc2, Sender: 0})
	}},
	{name: "round entry/TC for the wrong round", active: true, from: 0, reason: "entry:" + obs.ReasonBadJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 4, TC: fx.tc(2, 0, 1, 2), Sender: 0})
	}},
	{name: "round entry/sub-quorum QC", active: true, from: 0, reason: "entry:" + obs.ReasonBadJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 3, Justify: fx.cert(fx.b2, 0, 1), Sender: 0})
	}},
	{name: "round entry/sub-quorum TC", active: true, from: 0, reason: "entry:" + obs.ReasonBadJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 3, TC: fx.tc(2, 0, 1), Sender: 0})
	}},
	{name: "round entry/forged sender signature", sigOnly: true, active: true, from: 0, reason: "entry:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		e := fx.entry(&types.RoundEntry{Round: 3, TC: fx.tc(2, 0, 1, 2), Sender: 0})
		e.Signature = fx.ring.Signer(1).Sign(e.SigningPayload())
		return e
	}},
	{name: "round entry/forged QC vote", sigOnly: true, active: true, from: 0, reason: "entry:" + obs.ReasonBadJustify, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 3, Justify: fx.forgedCert(fx.b2), Sender: 0})
	}},
	{name: "round entry/forged TC attestation", sigOnly: true, active: true, from: 0, reason: "entry:" + obs.ReasonBadJustify, msg: func(fx *doorFixture) types.Message {
		tc := fx.tc(2, 0, 1, 2)
		tc.Attestations[1].Signature = []byte("forged")
		return fx.entry(&types.RoundEntry{Round: 3, TC: tc, Sender: 0})
	}},
	{name: "round entry/beyond the future window", active: true, from: 0, reason: "entry:" + obs.ReasonFutureWindow, msg: func(fx *doorFixture) types.Message {
		return fx.entry(&types.RoundEntry{Round: 100, TC: fx.tc(99, 0, 1, 2), Sender: 0})
	}},
}

// TestRoundEntryRejectsUnjustified drives every timeout and round-entry
// rejection class through the table runner: naked claims, double
// justifications, justifications for the wrong round or below quorum, rounds
// beyond the future window, forged sender signatures and forged attestations
// all leave the replica untouched and land on their reason counter once,
// through either door.
func TestRoundEntryRejectsUnjustified(t *testing.T) { runRejections(t, pacemakerRejections) }

// TestRoundEntryFollowsQCJustification: a peer's announcement carrying the
// QC that certifies round 1 legally moves the replica into round 2.
func TestRoundEntryFollowsQCJustification(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := activeReplica(t, 1, 4, 1, ring, nil)
	rep.Init(0)

	good := genuineProposal(ring, 1)
	if !hasVote(rep.OnMessage(0, 0, good)) {
		t.Fatal("did not vote for the genuine proposal")
	}
	qc := round1QC(ring, good.Block)
	rep.OnMessage(0, 2, signedEntry(ring, &types.RoundEntry{Round: 2, Justify: qc, Sender: 2}))
	if got := rep.Round(); got != 2 {
		t.Fatalf("round %d after QC-justified entry, want 2", got)
	}
}

// TestRoundEntryFollowsTCJustification: 2f+1 verifiable timeout attestations
// for round 1 justify entering round 2.
func TestRoundEntryFollowsTCJustification(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := activeReplica(t, 1, 4, 1, ring, nil)
	rep.Init(0)

	rep.OnMessage(0, 2, signedEntry(ring, &types.RoundEntry{Round: 2, TC: genuineTC(ring), Sender: 2}))
	if got := rep.Round(); got != 2 {
		t.Fatalf("round %d after TC-justified entry, want 2", got)
	}
}

// TestPassiveIgnoresRoundEntry pins the determinism contract: a passive
// (paper-baseline) replica ignores the active protocol's announcements
// entirely, justified or not.
func TestPassiveIgnoresRoundEntry(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	rep.OnMessage(0, 2, signedEntry(ring, &types.RoundEntry{Round: 2, TC: genuineTC(ring), Sender: 2}))
	if got := rep.Round(); got != 1 {
		t.Fatalf("passive replica followed a round entry to round %d", got)
	}
}

// TestTimeoutHighRoundMismatchRejected: the signed high-round claim must
// match the certificate the timeout ships, or the message is dropped before
// it can seed a lying TC attestation.
func TestTimeoutHighRoundMismatchRejected(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	sink := obs.New(obs.Options{N: 4, F: 1})
	rep := activeReplica(t, 1, 4, 1, ring, sink)
	rep.Init(0)

	good := genuineProposal(ring, 1)
	qc := round1QC(ring, good.Block)
	to := &types.Timeout{Round: 2, HighQC: qc, HighRound: 5, Sender: 3} // claims r5, QC says r1
	to.Signature = ring.Signer(3).Sign(to.SigningPayload())
	rep.OnMessage(0, 3, to)
	if got := rep.PacemakerStats().Buffered; got != 0 {
		t.Fatalf("mismatched timeout was buffered (%d)", got)
	}
	if sink.RejectedTimeouts() == 0 {
		t.Fatal("mismatch rejection not counted")
	}
}

// TestTimeoutBeyondWindowRejected: in active mode a timeout claiming a round
// far past the local one is dropped (honest peers are never that far ahead);
// the passive baseline buffers the same message.
func TestTimeoutBeyondWindowRejected(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	g := types.Genesis()
	mk := func() *types.Timeout {
		to := &types.Timeout{Round: 100, HighQC: types.NewGenesisQC(g.ID()), HighRound: 0, Sender: 3}
		to.Signature = ring.Signer(3).Sign(to.SigningPayload())
		return to
	}

	active := activeReplica(t, 1, 4, 1, ring, nil)
	active.Init(0)
	active.OnMessage(0, 3, mk())
	if got := active.PacemakerStats().Buffered; got != 0 {
		t.Fatalf("active replica buffered a timeout %d rounds ahead", 99)
	}

	passive := soloReplica(t, 1, 4, 1, ring)
	passive.Init(0)
	passive.OnMessage(0, 3, mk())
	if got := passive.PacemakerStats().Buffered; got != 1 {
		t.Fatalf("passive baseline buffered %d timeouts, want 1", got)
	}
}
