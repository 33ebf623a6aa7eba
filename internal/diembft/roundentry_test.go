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

// TestRoundEntryRejectsUnjustified drives every rejection class through the
// engine path: naked claims, double justifications, justifications for the
// wrong round, rounds beyond the future window, forged sender signatures and
// forged TC attestations all leave the round untouched and bump the counter.
func TestRoundEntryRejectsUnjustified(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	sink := obs.New(obs.Options{N: 4, F: 1})
	rep := activeReplica(t, 1, 4, 1, ring, sink)
	rep.Init(0)

	good := genuineProposal(ring, 1)
	qc := round1QC(ring, good.Block)
	tc := genuineTC(ring)

	forgedTC := &types.TC{Round: 1, Attestations: []types.TCAttestation{
		{Sender: 0, HighRound: 0, Signature: []byte("forged")},
		{Sender: 2, HighRound: 0, Signature: []byte("forged")},
		{Sender: 3, HighRound: 0, Signature: []byte("forged")},
	}}

	cases := []struct {
		name  string
		entry *types.RoundEntry
	}{
		{"naked claim", &types.RoundEntry{Round: 2, Sender: 2}},
		{"both justifications", &types.RoundEntry{Round: 2, Justify: qc, TC: tc, Sender: 2}},
		{"qc for the wrong round", &types.RoundEntry{Round: 3, Justify: qc, Sender: 2}},
		{"tc for the wrong round", &types.RoundEntry{Round: 3, TC: tc, Sender: 2}},
		{"beyond the future window", &types.RoundEntry{Round: 100, TC: &types.TC{Round: 99}, Sender: 2}},
		{"forged tc attestations", &types.RoundEntry{Round: 2, TC: forgedTC, Sender: 2}},
	}
	for i, tcase := range cases {
		rep.OnMessage(0, 2, signedEntry(ring, tcase.entry))
		if got := rep.Round(); got != 1 {
			t.Fatalf("%s: advanced to round %d", tcase.name, got)
		}
		if got := sink.RoundEntryRejections(); got != int64(i+1) {
			t.Fatalf("%s: rejection counter %d, want %d", tcase.name, got, i+1)
		}
	}

	// Forged outer signature on an otherwise-valid entry.
	bad := &types.RoundEntry{Round: 2, TC: tc, Sender: 2}
	bad.Signature = ring.Signer(3).Sign(bad.SigningPayload())
	rep.OnMessage(0, 2, bad)
	if got := rep.Round(); got != 1 {
		t.Fatalf("forged sender signature: advanced to round %d", got)
	}
}

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
