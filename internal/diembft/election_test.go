package diembft

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/types"
)

// electionFixture is one replica of an n=100 committee under leader
// reputation with window 8, holding a 64-block chain in which every third
// round timed out, so an election walks and scores failed slots. (With the
// window below n the candidate's own slot is never in it, so nobody is
// skipped, as in sim100_fault; the pacemaker's tests cover skipping.)
func electionFixture(tb testing.TB) (*Replica, *types.Block) {
	tb.Helper()
	const n, f = 100, 33
	ring, err := crypto.NewKeyRing(n, 1, crypto.SchemeSim)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(Config{
		Config:                 replica.Config{ID: 0, N: n, F: f, Signer: ring.Signer(0), Verifier: ring},
		RoundTimeout:           time.Second,
		LeaderReputationWindow: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tip := r.Store().Genesis()
	for round := types.Round(1); tip.Height < 64; round++ {
		if round%3 == 0 {
			continue // a timed-out round: no block
		}
		qc := &types.QC{Block: tip.ID(), Round: tip.Round, Height: tip.Height}
		b := types.NewBlock(tip.ID(), qc, round, tip.Height+1, pacemaker.Leader(round, n), int64(round), types.Payload{}, nil)
		if err := r.Store().Insert(b); err != nil {
			tb.Fatal(err)
		}
		tip = b
	}
	return r, tip
}

// TestAllocsReputationElection: electing a leader under reputation walks the
// justify ancestry by node into the replica's buffer and scores it without a
// map, so an election allocates nothing once the buffer has its length.
func TestAllocsReputationElection(t *testing.T) {
	r, tip := electionFixture(t)
	next := tip.Round + 1
	if a := testing.AllocsPerRun(200, func() { r.leaderAfter(next, tip.Height, tip.ID()) }); a != 0 {
		t.Errorf("an election allocates %.1f times, want 0", a)
	}
}

// BenchmarkReputationElection is one election at n=100, window 8, over a
// chain with a timed-out round in every three.
func BenchmarkReputationElection(b *testing.B) {
	r, tip := electionFixture(b)
	next := tip.Round + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.leaderAfter(next, tip.Height, tip.ID())
	}
}
