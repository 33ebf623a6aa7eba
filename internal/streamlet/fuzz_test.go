package streamlet_test

import (
	"testing"

	"repro/internal/engine/enginetest"
	"repro/internal/statesync"
	"repro/internal/types"
)

// FuzzOnMessage feeds one arbitrary wire message to two replicas built from
// the door fixture, one through OnMessage and one through Prevalidate (then
// OnVerifiedMessage when it passes); bit 0 of the first input byte picks
// verification. Nothing may panic — the state stage dereferences what only
// Prevalidate has checked — a rejected message must change nothing, and an
// accepted one must act the same through both doors (enginetest.CheckDoors).
func FuzzOnMessage(f *testing.F) {
	fx := newDoorFixture(f, nil, true, nil)
	b3 := fx.block(3, 2)
	vote := &types.VoteMsg{Vote: fx.vote(b3, 0)}
	enginetest.AddSeeds(f,
		fx.proposal(b3),
		vote,
		&types.Echo{Inner: vote, Relayer: 1},
		&types.Echo{Inner: fx.proposal(b3), Relayer: 1},
		statesync.NewRequest(0, 0),
		&types.StateSyncResponse{Blocks: []*types.Block{b3}, HighQC: fx.cert(b3), Sender: 0},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		verify := data[0]&1 != 0
		a, b := newDoorFixture(t, nil, verify, nil), newDoorFixture(t, nil, verify, nil)
		enginetest.CheckDoors(t, a.rep, b.rep, 0, data[1:], fingerprint)
	})
}
