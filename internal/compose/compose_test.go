package compose

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/types"
)

func testSpec(t *testing.T, proto Protocol) Spec {
	t.Helper()
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Protocol:     proto,
		ID:           0,
		N:            4,
		F:            1,
		Signer:       ring.Signer(0),
		Verifier:     ring,
		SFT:          true,
		RoundTimeout: time.Second,
		Delta:        50 * time.Millisecond,
	}
}

func TestEngineBuildsBothProtocols(t *testing.T) {
	for _, proto := range []Protocol{DiemBFT, Streamlet} {
		eng, err := Engine(testSpec(t, proto))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if eng.ID() != 0 {
			t.Fatalf("%v: engine ID %v", proto, eng.ID())
		}
		if _, ok := eng.(Restorer); !ok {
			t.Fatalf("%v: engine lacks the Restore hook", proto)
		}
	}
}

func TestEngineRejectsCrossProtocolKnobs(t *testing.T) {
	s := testSpec(t, Streamlet)
	s.VoteMode = diembft.VoteIntervals
	if _, err := Engine(s); err == nil {
		t.Fatal("streamlet spec with a DiemBFT vote mode built")
	}
	s = testSpec(t, Protocol(9))
	if _, err := Engine(s); err == nil {
		t.Fatal("unknown protocol built")
	}
}

// TestAdversaryWrapping pins the composition rules for Byzantine replicas:
// an empty behavior chain returns the honest engine unwrapped (the honest
// hot path never pays for the subsystem), a non-empty chain wraps it, and a
// bogus behavior kind fails construction.
func TestAdversaryWrapping(t *testing.T) {
	for _, proto := range []Protocol{DiemBFT, Streamlet} {
		s := testSpec(t, proto)
		honest, err := Engine(s)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if _, wrapped := honest.(*adversary.Replica); wrapped {
			t.Fatalf("%v: honest spec built a wrapped engine", proto)
		}
		s.Adversary = []adversary.Spec{{Kind: adversary.Equivocate}, {Kind: adversary.Withhold}}
		byz, err := Engine(s)
		if err != nil {
			t.Fatalf("%v byzantine: %v", proto, err)
		}
		if _, wrapped := byz.(*adversary.Replica); !wrapped {
			t.Fatalf("%v: byzantine spec built an unwrapped engine", proto)
		}
		// A wrapped engine must still support journal recovery (a Byzantine
		// replica under WithWAL, or a fuzz scenario's restart plan).
		if _, ok := byz.(Restorer); !ok {
			t.Fatalf("%v: wrapped engine lost the Restore hook", proto)
		}
		s.Adversary = []adversary.Spec{{Kind: adversary.Kind("no-such-behavior")}}
		if _, err := Engine(s); err == nil {
			t.Fatalf("%v: unknown behavior kind built", proto)
		}
	}
}

// TestOpenWALRoundTrip pins the facade-visible durability contract at the
// compose layer: an empty directory opens with an empty recovery, and a
// journaled vote survives reopen.
func TestOpenWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := OpenWAL(dir, false, nil)
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
	_, rec, err = OpenWAL(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Votes) != 1 || rec.VotedRound() != 3 {
		t.Fatalf("reopen recovered %d votes, voted round %v", len(rec.Votes), rec.VotedRound())
	}
}
