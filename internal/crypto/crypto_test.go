package crypto_test

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/types"
)

func TestSignVerifyBothSchemes(t *testing.T) {
	for _, scheme := range []string{crypto.SchemeSim, crypto.SchemeEd25519} {
		t.Run(scheme, func(t *testing.T) {
			ring, err := crypto.NewKeyRing(4, 1, scheme)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("the quick brown fox")
			for id := types.ReplicaID(0); id < 4; id++ {
				sig := ring.Signer(id).Sign(msg)
				if !ring.Verify(id, msg, sig) {
					t.Fatalf("replica %v: genuine signature rejected", id)
				}
				// Wrong signer.
				other := (id + 1) % 4
				if ring.Verify(other, msg, sig) {
					t.Fatalf("signature by %v accepted for %v", id, other)
				}
				// Tampered message.
				if ring.Verify(id, append([]byte("x"), msg...), sig) {
					t.Fatal("tampered message accepted")
				}
				// Tampered signature.
				bad := append([]byte(nil), sig...)
				bad[0] ^= 1
				if ring.Verify(id, msg, bad) {
					t.Fatal("tampered signature accepted")
				}
			}
			// Out-of-range replica.
			if ring.Verify(99, msg, ring.Signer(0).Sign(msg)) {
				t.Fatal("out-of-range replica verified")
			}
		})
	}
}

func TestKeyRingDeterminism(t *testing.T) {
	a, _ := crypto.NewKeyRing(4, 7, crypto.SchemeEd25519)
	b, _ := crypto.NewKeyRing(4, 7, crypto.SchemeEd25519)
	c, _ := crypto.NewKeyRing(4, 8, crypto.SchemeEd25519)
	msg := []byte("m")
	if string(a.Signer(2).Sign(msg)) != string(b.Signer(2).Sign(msg)) {
		t.Error("same seed produced different keys")
	}
	if string(a.Signer(2).Sign(msg)) == string(c.Signer(2).Sign(msg)) {
		t.Error("different seeds produced identical keys")
	}
}

func TestNewKeyRingValidation(t *testing.T) {
	if _, err := crypto.NewKeyRing(0, 1, crypto.SchemeSim); err == nil {
		t.Error("accepted zero-size ring")
	}
	if _, err := crypto.NewKeyRing(4, 1, "rot13"); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestVerifyQC(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	id := types.BlockID{1}
	mkVote := func(voter types.ReplicaID) types.Vote {
		v := types.Vote{Block: id, Round: 2, Height: 1, Voter: voter, Marker: 0}
		v.Signature = ring.Signer(voter).Sign(v.SigningPayload())
		return v
	}
	qc := &types.QC{Block: id, Round: 2, Height: 1, Votes: []types.Vote{mkVote(0), mkVote(1), mkVote(2)}}
	if err := crypto.VerifyQC(ring, qc, 3); err != nil {
		t.Fatalf("genuine QC rejected: %v", err)
	}
	// Below quorum.
	small := &types.QC{Block: id, Round: 2, Votes: qc.Votes[:2]}
	if err := crypto.VerifyQC(ring, small, 3); err == nil {
		t.Error("sub-quorum QC accepted")
	}
	// Forged signature.
	forged := &types.QC{Block: qc.Block, Round: qc.Round, Height: qc.Height, Votes: append([]types.Vote(nil), qc.Votes...)}
	forged.Votes[1].Marker = 7 // changes payload; signature now invalid
	if err := crypto.VerifyQC(ring, forged, 3); err == nil {
		t.Error("QC with tampered vote accepted")
	}
	// VerifyVote direct.
	if err := crypto.VerifyVote(ring, qc.Votes[0]); err != nil {
		t.Errorf("genuine vote rejected: %v", err)
	}
	if err := crypto.VerifyVote(ring, forged.Votes[1]); err == nil {
		t.Error("tampered vote accepted")
	}
}
