package diembft_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/types"
)

// scaleFixture is one replica of an n=100 committee configured as the
// sim100_fault workload configures it (sim scheme, SFT on, signatures as
// asked), holding b1 under a 67-vote certificate and b2 on top of it, at
// round 2. It is replica 2, the collector of round-2 votes.
type scaleFixture struct {
	ring   *crypto.KeyRing
	rep    *diembft.Replica
	b1, b2 *types.Block
	qc1    *types.QC
}

const scaleN, scaleF = 100, 33

func newScaleFixture(t testing.TB, verify bool) *scaleFixture {
	t.Helper()
	ring, err := crypto.NewKeyRing(scaleN, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	fx := &scaleFixture{ring: ring}
	fx.rep, err = diembft.New(diembft.Config{
		Config: replica.Config{
			ID: 2, N: scaleN,
			Signer: ring.Signer(2), Verifier: ring, VerifySignatures: verify,
		},
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.rep.Init(0)
	g := types.Genesis()
	fx.b1 = types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	fx.qc1 = &types.QC{Block: fx.b1.ID(), Round: 1, Height: 1}
	for voter := types.ReplicaID(0); voter < 2*scaleF+1; voter++ {
		fx.qc1.Votes = append(fx.qc1.Votes, fx.vote(fx.b1, voter))
	}
	fx.b2 = types.NewBlock(fx.b1.ID(), fx.qc1, 2, 2, 1, 6, types.Payload{}, nil)
	for _, b := range []*types.Block{fx.b1, fx.b2} {
		p := &types.Proposal{Block: b, Round: b.Round, Sender: b.Proposer}
		p.Signature = ring.Signer(p.Sender).Sign(p.SigningPayload())
		fx.rep.OnMessage(0, p.Sender, p)
	}
	if fx.rep.Round() != 2 || fx.rep.HighQC() != fx.qc1 {
		t.Fatalf("fixture: at round %d with high QC r%d", fx.rep.Round(), fx.rep.HighQC().Round)
	}
	return fx
}

func (fx *scaleFixture) vote(b *types.Block, voter types.ReplicaID) types.Vote {
	v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter}
	v.Signature = fx.ring.Signer(voter).Sign(v.SigningPayload())
	return v
}

// timeouts is every peer's timeout for round, each carrying qc as its high
// certificate — the same object, as the simulator delivers it.
func (fx *scaleFixture) timeouts(round types.Round, qc *types.QC) []*types.Timeout {
	var out []*types.Timeout
	for sender := types.ReplicaID(0); sender < scaleN; sender++ {
		if sender == fx.rep.ID() {
			continue
		}
		t := &types.Timeout{Round: round, HighQC: qc, HighRound: qc.Round, Sender: sender}
		t.Signature = fx.ring.Signer(sender).Sign(t.SigningPayload())
		out = append(out, t)
	}
	return out
}

// TestAllocsTimeoutDelivery pins what a timeout costs through OnMessage below
// the 2f+1 that complete the round's certificate. One whose high QC this
// replica has already accepted — every timeout of a round but the first —
// allocates nothing with signatures off, and with them on only the three the
// sender's own signature check makes. One whose high QC is a pointer never
// seen allocates no more than that either: remembering it is a store.
func TestAllocsTimeoutDelivery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		verify bool
		fresh  bool
		want   float64
	}{
		{"repeated/structure", false, false, 0},
		{"first-sight/structure", false, true, 0},
		{"repeated/signatures", true, false, 3},
		{"first-sight/signatures", true, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.verify && raceEnabled {
				t.Skip("pooled scratch is dropped at random under -race")
			}
			fx := newScaleFixture(t, tc.verify)
			const runs = 60 // + AllocsPerRun's warm-up call, below the quorum of 67
			msgs := fx.timeouts(2, fx.qc1)
			if tc.fresh {
				for _, m := range msgs {
					q := fx.qc1
					m.HighQC = &types.QC{Block: q.Block, Round: q.Round, Height: q.Height, Votes: q.Votes, Agg: q.Agg}
				}
			}
			// The round's first timeout makes the pacemaker's per-round table.
			fx.rep.OnMessage(0, msgs[0].Sender, msgs[0])
			next := 1
			if a := testing.AllocsPerRun(runs, func() {
				if outs := fx.rep.OnMessage(0, msgs[next].Sender, msgs[next]); len(outs) != 0 {
					t.Fatal("outputs below the timeout quorum")
				}
				next++
			}); a > tc.want {
				t.Fatalf("timeout delivery: %v allocs/op, want <= %v", a, tc.want)
			}
			if fx.rep.Round() != 2 || fx.rep.PacemakerStats().Buffered != runs+2 {
				t.Fatalf("round %d, %d timeouts buffered: the deliveries were not absorbed", fx.rep.Round(), fx.rep.PacemakerStats().Buffered)
			}
		})
	}
}

// TestAllocsEngineEventSteadyState: the events that make up most of a run and
// emit nothing — a vote the collector credits, a round timer gone stale —
// allocate nothing from door to door (amortized: the vote set grows
// geometrically).
func TestAllocsEngineEventSteadyState(t *testing.T) {
	fx := newScaleFixture(t, false)
	voter := types.ReplicaID(3)
	fx.rep.OnMessage(0, voter, &types.VoteMsg{Vote: fx.vote(fx.b2, voter)})
	msgs := make([]*types.VoteMsg, 0, 64)
	for voter++; len(msgs) < cap(msgs); voter++ {
		msgs = append(msgs, &types.VoteMsg{Vote: fx.vote(fx.b2, voter)})
	}
	next := 0
	if a := testing.AllocsPerRun(len(msgs)-4, func() { // 61 votes with the first and the warm-up: below quorum
		if outs := fx.rep.OnMessage(0, msgs[next].Vote.Voter, msgs[next]); len(outs) != 0 {
			t.Fatal("outputs from a vote below quorum")
		}
		next++
	}); a != 0 {
		t.Fatalf("collected vote: %v allocs/op, want 0", a)
	}
	if got := fx.rep.Votes[fx.b2.ID()].Len(); got != next+1 {
		t.Fatalf("%d votes credited of %d delivered", got, next+1)
	}
	if a := testing.AllocsPerRun(100, func() {
		if outs := fx.rep.OnTimer(0, 1<<1); len(outs) != 0 { // round 1's timer, at round 2
			t.Fatal("outputs from a stale round timer")
		}
	}); a != 0 {
		t.Fatalf("stale round timer: %v allocs/op, want 0", a)
	}
}

// TestAllocsRoundEntry: entering a round this replica does not lead emits
// only the round's timer, held by value, so the entry allocates nothing.
func TestAllocsRoundEntry(t *testing.T) {
	fx := newScaleFixture(t, false)
	round := types.Round(10) // with the warm-up, rounds 11 to 91: led by replicas 10 to 90, never by 2
	if a := testing.AllocsPerRun(80, func() {
		round++
		outs := fx.rep.AdvanceRound(0, round)
		if len(outs) != 1 || outs[0].Kind != engine.SetTimer || outs[0].Delay != time.Second {
			t.Fatalf("round %d entry emitted %+v, want its timer alone", round, outs)
		}
	}); a != 0 {
		t.Fatalf("round entry: %v allocs/op, want 0", a)
	}
}

// BenchmarkTimedOutRound is one timed-out round at the paper's scale as one
// replica sees it: 99 peers' timeouts, every one carrying the same high
// certificate of 67 votes; the 67th completes the timeout certificate and
// moves the replica to the next round, the last 32 arrive stale. Building the
// messages is not timed, nor is the fresh replica every 16 rounds: a stall in
// sim100_fault is about that many rounds long, and the pacemaker's timer
// arithmetic walks the run of failed rounds behind it.
func BenchmarkTimedOutRound(b *testing.B) {
	for _, verify := range []bool{false, true} {
		b.Run(map[bool]string{false: "structure", true: "signatures"}[verify], func(b *testing.B) {
			var fx *scaleFixture
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%16 == 0 {
					fx = newScaleFixture(b, verify)
				}
				round := fx.rep.Round()
				msgs := fx.timeouts(round, fx.qc1)
				b.StartTimer()
				for _, m := range msgs {
					fx.rep.OnMessage(0, m.Sender, m)
				}
				if fx.rep.Round() != round+1 {
					b.Fatalf("round %d did not time out", round)
				}
			}
		})
	}
}
