package streamlet_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/statesync"
	"repro/internal/streamlet"
	"repro/internal/types"
)

func prevalidateReplica(t *testing.T, ring *crypto.KeyRing) *streamlet.Replica {
	t.Helper()
	rep, err := streamlet.New(streamlet.Config{
		Config: replica.Config{
			ID: 1, N: 4,
			Signer:           ring.Signer(1),
			Verifier:         ring,
			VerifySignatures: true,
		},
		Delta: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStreamletPrevalidate covers the Streamlet stateless stage: proposals
// and votes directly, and — the Streamlet-specific part — recursively
// through the echo relay wrapper, which carries the inner message's original
// signature.
func TestStreamletPrevalidate(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := prevalidateReplica(t, ring)
	rep.Init(0)

	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	p := &types.Proposal{Block: b, Round: 1, Sender: 0}
	p.Signature = ring.Signer(0).Sign(p.SigningPayload())
	if err := rep.Prevalidate(0, p); err != nil {
		t.Fatalf("genuine proposal rejected: %v", err)
	}

	forged := &types.Proposal{Block: b, Round: 1, Sender: 0}
	forged.Signature = ring.Signer(2).Sign(forged.SigningPayload())
	if err := rep.Prevalidate(0, forged); err == nil {
		t.Fatal("forged proposal passed prevalidation")
	}

	v := types.Vote{Block: b.ID(), Round: 1, Height: 1, Voter: 2}
	v.Signature = ring.Signer(2).Sign(v.SigningPayload())
	if err := rep.Prevalidate(2, &types.VoteMsg{Vote: v}); err != nil {
		t.Fatalf("genuine vote rejected: %v", err)
	}

	// Echoes relay the inner message with its original signature: a genuine
	// inner vote passes regardless of relayer, a tampered one fails.
	echo := &types.Echo{Inner: &types.VoteMsg{Vote: v}, Relayer: 3}
	if err := rep.Prevalidate(3, echo); err != nil {
		t.Fatalf("genuine echoed vote rejected: %v", err)
	}
	bad := v
	bad.Marker = 7
	badEcho := &types.Echo{Inner: &types.VoteMsg{Vote: bad}, Relayer: 3}
	if err := rep.Prevalidate(3, badEcho); err == nil {
		t.Fatal("tampered echoed vote passed prevalidation")
	}
	if err := rep.Prevalidate(3, &types.Echo{Relayer: 3}); err == nil {
		t.Fatal("echo without inner message passed prevalidation")
	}
}

// TestEchoNestingBounded pins the depth cap: a maliciously nested echo chain
// is rejected by prevalidation and ignored by the state stage, in both cases
// without recursing the stack.
func TestEchoNestingBounded(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := prevalidateReplica(t, ring)
	rep.Init(0)

	v := types.Vote{Round: 1, Voter: 2}
	v.Signature = ring.Signer(2).Sign(v.SigningPayload())
	var msg types.Message = &types.VoteMsg{Vote: v}
	for i := 0; i < 100000; i++ {
		msg = &types.Echo{Inner: msg, Relayer: 3}
	}
	if err := rep.Prevalidate(3, msg); err == nil {
		t.Fatal("deeply nested echo passed prevalidation")
	}
	if outs := rep.OnMessage(0, 3, msg); len(outs) != 0 {
		t.Fatalf("deeply nested echo produced %d outputs", len(outs))
	}
	// A single wrap — the honest shape — still works through both stages.
	one := &types.Echo{Inner: &types.VoteMsg{Vote: v}, Relayer: 3}
	if err := rep.Prevalidate(3, one); err != nil {
		t.Fatalf("singly wrapped echo rejected: %v", err)
	}
}

// doorFixture is the fixed starting point of the rejection table, the
// never-verifies test and FuzzOnMessage: replica 3 of 4, two honest rounds
// in. It holds the certified b1 and b2 and sits in round 3, which belongs to
// replica 2.
type doorFixture struct {
	ring *crypto.KeyRing
	rep  *streamlet.Replica

	b1, b2 *types.Block
}

func newDoorFixture(t testing.TB, verifier crypto.Verifier, verify bool, sink *obs.Obs) *doorFixture {
	t.Helper()
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	if verifier == nil {
		verifier = ring
	}
	fx := &doorFixture{ring: ring}
	fx.rep, err = streamlet.New(streamlet.Config{
		Config: replica.Config{
			ID: 3, N: 4,
			Signer: ring.Signer(3), Verifier: verifier, VerifySignatures: verify,
			Obs: sink,
		},
		Delta: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.rep.Init(0)

	g := types.Genesis()
	fx.b1 = types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	fx.b2 = types.NewBlock(fx.b1.ID(), fx.cert(fx.b1), 2, 2, 1, 6, types.Payload{}, nil)
	for _, b := range []*types.Block{fx.b1, fx.b2} {
		fx.rep.OnMessage(0, b.Proposer, fx.proposal(b))
		for voter := types.ReplicaID(0); voter < 3; voter++ {
			fx.rep.OnMessage(0, voter, &types.VoteMsg{Vote: fx.vote(b, voter)})
		}
		fx.rep.OnTimer(0, int(b.Round))
	}
	if fx.rep.Round() != 3 || fx.rep.Store().Node(fx.b2.Height, fx.b2.ID()).QC() == nil {
		t.Fatalf("fixture: at round %d, b2 certified %v", fx.rep.Round(), fx.rep.Store().Node(fx.b2.Height, fx.b2.ID()).QC() != nil)
	}
	return fx
}

func (fx *doorFixture) vote(b *types.Block, voter types.ReplicaID) types.Vote {
	v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter}
	v.Signature = fx.ring.Signer(voter).Sign(v.SigningPayload())
	return v
}

func (fx *doorFixture) cert(b *types.Block) *types.QC {
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
	for voter := types.ReplicaID(0); voter < 3; voter++ {
		qc.Votes = append(qc.Votes, fx.vote(b, voter))
	}
	return qc
}

// certAt is a quorum certificate whose voters signed b's ID at height h.
func (fx *doorFixture) certAt(b *types.Block, h types.Height) *types.QC {
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: h}
	for voter := types.ReplicaID(0); voter < 3; voter++ {
		v := types.Vote{Block: b.ID(), Round: b.Round, Height: h, Voter: voter}
		v.Signature = fx.ring.Signer(voter).Sign(v.SigningPayload())
		qc.Votes = append(qc.Votes, v)
	}
	return qc
}

func (fx *doorFixture) proposal(b *types.Block) *types.Proposal {
	p := &types.Proposal{Block: b, Round: b.Round, Sender: b.Proposer}
	p.Signature = fx.ring.Signer(p.Sender).Sign(p.SigningPayload())
	return p
}

// block is a block for round by proposer on top of b2.
func (fx *doorFixture) block(round types.Round, proposer types.ReplicaID) *types.Block {
	return types.NewBlock(fx.b2.ID(), fx.cert(fx.b2), round, 3, proposer, 7, types.Payload{}, nil)
}

// fingerprint is the replica state no rejected message may move.
func fingerprint(e engine.Engine) string {
	r := e.(*streamlet.Replica)
	return fmt.Sprintf("round=%d high=%d committed=%d store=%d votesets=%d",
		r.Round(), r.Store().HighQC().Round, r.CommittedHeight(), r.Store().Len(), len(r.Votes))
}

// rejections is the table: each malformed class and the sender it claims to
// come from. sigOnly classes are skipped with verification off.
var rejections = []struct {
	name    string
	sigOnly bool
	from    types.ReplicaID
	msg     func(fx *doorFixture) types.Message
}{
	{name: "proposal/nil block", from: 2, msg: func(fx *doorFixture) types.Message {
		return &types.Proposal{Round: 3, Sender: 2, Signature: []byte{1}}
	}},
	{name: "proposal/round mismatch", from: 2, msg: func(fx *doorFixture) types.Message {
		p := &types.Proposal{Block: fx.block(3, 2), Round: 7, Sender: 2}
		p.Signature = fx.ring.Signer(2).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/proposer mismatch", from: 2, msg: func(fx *doorFixture) types.Message {
		p := &types.Proposal{Block: fx.block(3, 0), Round: 3, Sender: 2}
		p.Signature = fx.ring.Signer(2).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/no justify", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(types.NewBlock(fx.b2.ID(), nil, 3, 3, 2, 7, types.Payload{}, nil))
	}},
	{name: "proposal/justify names the parent at another height", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(types.NewBlock(fx.b2.ID(), fx.certAt(fx.b2, 5), 3, 3, 2, 7, types.Payload{}, nil))
	}},
	{name: "proposal/justify relabelled to another height", from: 2, msg: func(fx *doorFixture) types.Message {
		qc := fx.cert(fx.b2)
		qc.Height = 7 // its votes say 2
		return fx.proposal(types.NewBlock(fx.b2.ID(), qc, 3, 8, 2, 7, types.Payload{}, nil))
	}},
	{name: "proposal/justify not for parent", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(types.NewBlock(fx.b2.ID(), fx.cert(fx.b1), 3, 3, 2, 7, types.Payload{}, nil))
	}},
	{name: "proposal/forged justify vote", sigOnly: true, from: 2, msg: func(fx *doorFixture) types.Message {
		qc := fx.cert(fx.b2)
		qc.Votes[0].Signature = fx.ring.Signer(2).Sign(qc.Votes[0].SigningPayload())
		return fx.proposal(types.NewBlock(fx.b2.ID(), qc, 3, 3, 2, 7, types.Payload{}, nil))
	}},
	{name: "proposal/wrong leader", from: 0, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block(3, 0))
	}},
	{name: "proposal/forged signature", sigOnly: true, from: 2, msg: func(fx *doorFixture) types.Message {
		p := fx.proposal(fx.block(3, 2))
		p.Signature = fx.ring.Signer(1).Sign(p.SigningPayload())
		return p
	}},
	{name: "vote/forged signature", sigOnly: true, from: 0, msg: func(fx *doorFixture) types.Message {
		v := fx.vote(fx.block(3, 2), 0)
		v.Marker = 9 // the payload no longer matches the signature
		return &types.VoteMsg{Vote: v}
	}},
	{name: "echo/forged inner vote", sigOnly: true, from: 1, msg: func(fx *doorFixture) types.Message {
		v := fx.vote(fx.block(3, 2), 0)
		v.Signature = []byte("forged")
		return &types.Echo{Inner: &types.VoteMsg{Vote: v}, Relayer: 1}
	}},
	{name: "echo/inner proposal without block", from: 1, msg: func(fx *doorFixture) types.Message {
		return &types.Echo{Inner: &types.Proposal{Round: 3, Sender: 2, Signature: []byte{1}}, Relayer: 1}
	}},
	{name: "echo/inner proposal from wrong leader", from: 1, msg: func(fx *doorFixture) types.Message {
		return &types.Echo{Inner: fx.proposal(fx.block(3, 0)), Relayer: 1}
	}},
	{name: "echo/forged inner proposal", sigOnly: true, from: 1, msg: func(fx *doorFixture) types.Message {
		p := fx.proposal(fx.block(3, 2))
		p.Signature = fx.ring.Signer(1).Sign(p.SigningPayload())
		return &types.Echo{Inner: p, Relayer: 1}
	}},
	{name: "echo/empty", from: 1, msg: func(fx *doorFixture) types.Message {
		return &types.Echo{Relayer: 1}
	}},
	{name: "echo/over-nested", from: 1, msg: func(fx *doorFixture) types.Message {
		var msg types.Message = &types.VoteMsg{Vote: fx.vote(fx.block(3, 2), 0)}
		for i := 0; i < 6; i++ {
			msg = &types.Echo{Inner: msg, Relayer: 1}
		}
		return msg
	}},

	// Genuine and already absorbed, so Prevalidate passes them: the state
	// stage's dedup sets drop them without an echo.
	{name: "proposal/replayed block", from: 1, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.b2)
	}},
	{name: "vote/replayed", from: 0, msg: func(fx *doorFixture) types.Message {
		return &types.VoteMsg{Vote: fx.vote(fx.b2, 0)}
	}},
	{name: "echo/replayed vote", from: 1, msg: func(fx *doorFixture) types.Message {
		return &types.Echo{Inner: &types.VoteMsg{Vote: fx.vote(fx.b2, 0)}, Relayer: 1}
	}},
}

// TestRejectionTable drives every malformed class through both doors —
// OnMessage; Prevalidate then OnVerifiedMessage only if it passed — with
// verification on and off: no outputs, no state change, and no rejection
// counter moved whichever door the message took.
func TestRejectionTable(t *testing.T) {
	for _, rj := range rejections {
		for _, verify := range []bool{true, false} {
			if rj.sigOnly && !verify {
				continue
			}
			for _, split := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/verify=%v/split=%v", rj.name, verify, split), func(t *testing.T) {
					sink := obs.New(obs.Options{N: 4})
					fx := newDoorFixture(t, nil, verify, sink)
					enginetest.CheckRejected(t, fx.rep, split, rj.from, rj.msg(fx), fingerprint, sink, "")
				})
			}
		}
	}
}

// TestStateStageNeverVerifies pins the one-stage rule on honest traffic:
// OnVerifiedMessage checks no signature for proposals, votes and their
// echoes, and OnMessage checks exactly what Prevalidate alone does — once per
// distinct signature, however many relays re-deliver it.
func TestStateStageNeverVerifies(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	build := func() (*doorFixture, *enginetest.CountingVerifier) {
		cv := &enginetest.CountingVerifier{Committee: ring}
		return newDoorFixture(t, cv, true, nil), cv
	}
	splitFx, splitCalls := build()
	wholeFx, wholeCalls := build()
	b3 := splitFx.block(3, 2)
	vote0 := &types.VoteMsg{Vote: splitFx.vote(b3, 0)}
	msgs := []struct {
		from types.ReplicaID
		msg  types.Message
		want int // signature checks; relayed copies of a checked signature cost none
	}{
		{2, splitFx.proposal(b3), 4}, // the proposal and its justify's three votes
		{0, vote0, 1},
		{1, &types.Echo{Inner: vote0, Relayer: 1}, 0},
		{1, &types.Echo{Inner: &types.VoteMsg{Vote: splitFx.vote(b3, 1)}, Relayer: 1}, 1},
		{0, &types.Echo{Inner: splitFx.proposal(b3), Relayer: 0}, 0},
	}
	for _, m := range msgs {
		start := splitCalls.Calls
		if err := splitFx.rep.Prevalidate(m.from, m.msg); err != nil {
			t.Fatalf("%T rejected: %v", m.msg, err)
		}
		stateless := splitCalls.Calls - start
		if stateless != m.want {
			t.Errorf("%T: Prevalidate made %d signature checks, want %d", m.msg, stateless, m.want)
		}
		splitFx.rep.OnVerifiedMessage(0, m.from, m.msg)
		if got := splitCalls.Calls - start - stateless; got != 0 {
			t.Errorf("%T: OnVerifiedMessage made %d signature checks", m.msg, got)
		}
		start = wholeCalls.Calls
		wholeFx.rep.OnMessage(0, m.from, m.msg)
		if got := wholeCalls.Calls - start; got != stateless {
			t.Errorf("%T: OnMessage made %d signature checks, Prevalidate alone %d", m.msg, got, stateless)
		}
	}
	if a, b := fingerprint(splitFx.rep), fingerprint(wholeFx.rep); a != b || !splitFx.rep.Store().Has(b3.Height, b3.ID()) {
		t.Fatalf("doors diverged or traffic not absorbed: split %s, OnMessage %s", a, b)
	}
}

// TestOutputLifetime: the output-slice contract (engine.Engine). A proposal
// that is echoed and voted for, then the one-output answer to a catch-up
// request.
func TestOutputLifetime(t *testing.T) {
	a, b := newDoorFixture(t, nil, true, nil), newDoorFixture(t, nil, true, nil)
	b3 := a.block(3, 2)
	enginetest.CheckOutputLifetime(t, a.rep, b.rep,
		func(e engine.Engine) []engine.Output { return e.OnMessage(0, 2, a.proposal(b3)) },
		func(e engine.Engine) []engine.Output {
			return e.OnMessage(0, 0, statesync.NewRequest(0, 0))
		},
		&types.VoteMsg{Vote: a.vote(a.b2, 0)})
}

// TestWrongHeightIsUnknown: the store finds a block only at its own height,
// so votes naming a stored block at another height are buffered without
// certifying it, and a proposal whose parent is stored at another height is
// parked, through either door.
func TestWrongHeightIsUnknown(t *testing.T) {
	for _, row := range []struct {
		name  string
		msgs  func(fx *doorFixture, b3 *types.Block) []types.Message
		check func(t *testing.T, fx *doorFixture, b3 *types.Block)
	}{
		{"vote", func(fx *doorFixture, b3 *types.Block) []types.Message {
			var msgs []types.Message
			for voter := types.ReplicaID(0); voter < 3; voter++ {
				v := types.Vote{Block: b3.ID(), Round: b3.Round, Height: 9, Voter: voter}
				v.Signature = fx.ring.Signer(voter).Sign(v.SigningPayload())
				msgs = append(msgs, &types.VoteMsg{Vote: v})
			}
			return msgs
		}, func(t *testing.T, fx *doorFixture, b3 *types.Block) {
			if got := fx.rep.Votes[b3.ID()].Len(); got != 3 {
				t.Errorf("%d votes buffered, want 3", got)
			}
		}},
		{"proposal parent", func(fx *doorFixture, b3 *types.Block) []types.Message {
			justify := fx.certAt(fx.b2, 6)
			return []types.Message{fx.proposal(types.NewBlock(fx.b2.ID(), justify, 3, 7, 2, 8, types.Payload{}, nil))}
		}, func(t *testing.T, fx *doorFixture, b3 *types.Block) {
			if got := fx.rep.Parked(); got != 1 {
				t.Errorf("%d proposals parked, want 1", got)
			}
		}},
	} {
		for _, verify := range []bool{true, false} {
			for _, split := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/verify=%v/split=%v", row.name, verify, split), func(t *testing.T) {
					fx := newDoorFixture(t, nil, verify, nil)
					b3 := fx.block(3, 2)
					fx.rep.OnMessage(0, 2, fx.proposal(b3))
					blocks := fx.rep.Store().Len()
					for _, msg := range row.msgs(fx, b3) {
						if split {
							if err := fx.rep.Prevalidate(2, msg); err != nil {
								t.Fatalf("the door refused %T: %v", msg, err)
							}
							fx.rep.OnVerifiedMessage(0, 2, msg)
						} else {
							fx.rep.OnMessage(0, 2, msg)
						}
					}
					row.check(t, fx, b3)
					if n := fx.rep.Store().Node(b3.Height, b3.ID()); n == nil || n.QC() != nil {
						t.Errorf("b3 is gone or was certified: %v", n)
					}
					if fx.rep.Store().Len() != blocks {
						t.Errorf("the store holds %d blocks, was %d", fx.rep.Store().Len(), blocks)
					}
				})
			}
		}
	}
}
