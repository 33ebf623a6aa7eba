package diembft_test

import (
	"testing"

	"repro/internal/diembft"
	"repro/internal/engine/enginetest"
	"repro/internal/statesync"
	"repro/internal/types"
)

// FuzzOnMessage feeds one arbitrary wire message to two replicas built from
// the door fixture, one through OnMessage and one through Prevalidate (then
// OnVerifiedMessage when it passes); bit 0 of the first input byte picks
// verification. Nothing may panic — the state
// stage dereferences what only Prevalidate has checked — a rejected message
// must change nothing, and an accepted one must act the same through both
// doors (enginetest.CheckDoors).
func FuzzOnMessage(f *testing.F) {
	fx := newDoorFixture(f, nil, nil)
	b3 := fx.next(fx.leader, fx.qc2)
	enginetest.AddSeeds(f,
		fx.proposal(b3),
		&types.VoteMsg{Vote: fx.vote(b3, 0)},
		&types.ExtraVote{Vote: fx.vote(fx.b2, 2), Leader: 0},
		fx.timeout(&types.Timeout{Round: 2, HighQC: fx.qc2, HighRound: 2, Sender: 0}),
		fx.timeout(&types.Timeout{Round: 2, Sender: 0}),
		statesync.NewRequest(0, 0),
		&types.StateSyncResponse{Blocks: []*types.Block{b3}, HighQC: fx.cert(b3, 0, 1, 2), Sender: 0},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mut := func(c *diembft.Config) { c.VerifySignatures = data[0]&1 != 0 }
		a, b := newDoorFixture(t, nil, mut), newDoorFixture(t, nil, mut)
		enginetest.CheckDoors(t, a.rep, b.rep, 0, data[1:], fingerprint)
	})
}
