package observer_test

import (
	"testing"

	"repro/internal/engine/enginetest"
	"repro/internal/observer"
	"repro/internal/types"
)

// FuzzOnMessage feeds one arbitrary wire message to two observers built from
// the door fixture, one through OnMessage and one through Prevalidate (then
// OnVerifiedMessage when it passes); bit 0 of the first input byte picks
// verification. Nothing may panic — the state stage dereferences what only
// Prevalidate has checked — a rejected message must change nothing, and an
// accepted one must act the same through both doors (enginetest.CheckDoors).
func FuzzOnMessage(f *testing.F) {
	fx := doorFixture(f, true, observer.Config{})
	tip := fx.chain[3]
	b4 := fx.child(fx.qcFor(tip, 3))
	enginetest.AddSeeds(f,
		fx.proposal(b4),
		&types.Echo{Inner: fx.proposal(b4), Relayer: 1},
		&types.StateSyncResponse{Blocks: []*types.Block{b4}, HighQC: fx.qcFor(b4, 3), Sender: 0},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		verify := data[0]&1 != 0
		a, b := doorFixture(t, verify, observer.Config{}), doorFixture(t, verify, observer.Config{})
		enginetest.CheckDoors(t, a.obs, b.obs, 0, data[1:], fingerprint)
	})
}
