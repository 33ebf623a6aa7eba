package streamlet_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
)

// TestJustifyCertifiesParentWhenVotesWereMissed: a replica that accepted a
// block but saw too few of its votes (they were cast while it was down, or
// were in flight when it restarted) can never form that block's certificate
// itself. The next proposal's justify is that certificate: the replica
// verifies it, closes the hole in its certified chain and votes. A justify
// that does not verify certifies nothing.
func TestJustifyCertifiesParentWhenVotesWereMissed(t *testing.T) {
	for _, forged := range []bool{false, true} {
		fx := newDoorFixture(t, nil, true, nil)
		b3 := fx.block(3, 2)
		fx.rep.OnMessage(0, 2, fx.proposal(b3))
		fx.rep.OnMessage(0, 0, &types.VoteMsg{Vote: fx.vote(b3, 0)}) // one of the three it needs
		fx.rep.OnTimer(0, 3)
		fx.rep.OnTimer(0, 4) // round 4 is this replica's own; round 5 belongs to replica 0
		if fx.rep.Round() != 5 || fx.rep.Store().Node(b3.Height, b3.ID()).QC() != nil {
			t.Fatalf("fixture: round %d, b3 certified %v", fx.rep.Round(), fx.rep.Store().Node(b3.Height, b3.ID()).QC() != nil)
		}

		justify := fx.cert(b3)
		if forged {
			justify.Votes[1].Signature = []byte("forged")
		}
		b5 := types.NewBlock(b3.ID(), justify, 5, 4, 0, 9, types.Payload{}, nil)
		outs := fx.rep.OnMessage(0, 0, fx.proposal(b5))

		voted := false
		for _, out := range outs {
			if out.Kind == engine.Broadcast {
				if vm, ok := out.Msg.(*types.VoteMsg); ok && vm.Vote.Block == b5.ID() {
					voted = true
				}
			}
		}
		if got := fx.rep.Store().Node(b3.Height, b3.ID()).QC() != nil; got == forged || voted == forged {
			t.Fatalf("forged justify %v: parent certified %v, voted for the child %v", forged, got, voted)
		}
	}
}
