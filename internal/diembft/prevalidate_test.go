package diembft_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/statesync"
	"repro/internal/types"
)

// TestPrevalidateProposal pins the stateless stage on proposals: genuine
// ones pass, forged signatures and forged justify certificates fail — and a
// message that passed Prevalidate is then accepted by the verified state
// stage without re-verification.
func TestPrevalidateProposal(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	good := genuineProposal(ring, 1)
	if err := rep.Prevalidate(0, good); err != nil {
		t.Fatalf("genuine proposal rejected: %v", err)
	}
	if !hasVote(rep.OnVerifiedMessage(0, 0, good)) {
		t.Fatal("verified state stage did not vote for a prevalidated proposal")
	}

	forged := genuineProposal(ring, 2)
	forged.Signature = ring.Signer(2).Sign(forged.SigningPayload())
	if err := rep.Prevalidate(0, forged); err == nil {
		t.Fatal("forged proposal signature passed prevalidation")
	}

	wrongLeader := genuineProposal(ring, 3)
	wrongLeader.Sender = 2
	wrongLeader.Block.Proposer = 2
	wrongLeader.Signature = ring.Signer(2).Sign(wrongLeader.SigningPayload())
	if err := rep.Prevalidate(2, wrongLeader); err == nil {
		t.Fatal("wrong-leader proposal passed prevalidation")
	}
}

// TestPrevalidateVoteAndTimeout covers the remaining signed message types:
// tampered votes and timeouts (including a corrupted attached high QC) must
// fail, genuine ones pass.
func TestPrevalidateVoteAndTimeout(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	good := genuineProposal(ring, 1)
	v := types.Vote{Block: good.Block.ID(), Round: 1, Height: 1, Voter: 2}
	v.Signature = ring.Signer(2).Sign(v.SigningPayload())
	if err := rep.Prevalidate(2, &types.VoteMsg{Vote: v}); err != nil {
		t.Fatalf("genuine vote rejected: %v", err)
	}
	bad := v
	bad.Marker = 9 // payload no longer matches the signature
	if err := rep.Prevalidate(2, &types.VoteMsg{Vote: bad}); err == nil {
		t.Fatal("tampered vote passed prevalidation")
	}

	// Timeout carrying a valid QC.
	var votes []types.Vote
	for i := 0; i < 3; i++ {
		qv := types.Vote{Block: good.Block.ID(), Round: 1, Height: 1, Voter: types.ReplicaID(i)}
		qv.Signature = ring.Signer(qv.Voter).Sign(qv.SigningPayload())
		votes = append(votes, qv)
	}
	qc := &types.QC{Block: good.Block.ID(), Round: 1, Height: 1, Votes: votes}
	to := &types.Timeout{Round: 2, HighQC: qc, HighRound: qc.Round, Sender: 3}
	to.Signature = ring.Signer(3).Sign(to.SigningPayload())
	if err := rep.Prevalidate(3, to); err != nil {
		t.Fatalf("genuine timeout rejected: %v", err)
	}

	corrupted := &types.QC{Block: qc.Block, Round: qc.Round, Height: qc.Height}
	corrupted.Votes = append([]types.Vote(nil), qc.Votes...)
	corrupted.Votes[1].Signature = []byte("forged")
	badTO := &types.Timeout{Round: 2, HighQC: corrupted, HighRound: corrupted.Round, Sender: 3}
	badTO.Signature = ring.Signer(3).Sign(badTO.SigningPayload())
	if err := rep.Prevalidate(3, badTO); err == nil {
		t.Fatal("timeout with corrupted high QC passed prevalidation")
	}

	badSig := &types.Timeout{Round: 2, HighQC: qc, HighRound: qc.Round, Sender: 3}
	badSig.Signature = ring.Signer(2).Sign(badSig.SigningPayload())
	if err := rep.Prevalidate(3, badSig); err == nil {
		t.Fatal("timeout with forged sender signature passed prevalidation")
	}
}

// TestSpoofedSelfTimeoutRejected pins the loopback-trust rule on the inline
// path: a network peer sending a Timeout that claims Sender == receiver
// (with a forged high QC) must not bypass verification — only true local
// loopback (transport from == self) skips it.
func TestSpoofedSelfTimeoutRejected(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	g := types.Genesis()
	b1 := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 5, 1, 0, 5, types.Payload{}, nil)
	var votes []types.Vote
	for i := 0; i < 3; i++ {
		v := types.Vote{Block: b1.ID(), Round: 5, Height: 1, Voter: types.ReplicaID(i)}
		v.Signature = []byte("forged")
		votes = append(votes, v)
	}
	forgedQC := &types.QC{Block: b1.ID(), Round: 5, Height: 1, Votes: votes}
	spoofed := &types.Timeout{Round: 5, HighQC: forgedQC, HighRound: forgedQC.Round, Sender: 1 /* the receiver itself */}
	spoofed.Signature = []byte("forged")

	rep.OnMessage(0, 2, spoofed) // delivered from the network, not loopback
	if rep.HighQC().Round == 5 {
		t.Fatal("forged high QC accepted from a spoofed self-sender timeout")
	}
	if err := rep.Prevalidate(2, spoofed); err == nil {
		t.Fatal("spoofed self-sender timeout passed prevalidation")
	}
}

// TestPrevalidatePassesSyncSegments pins the documented exception: bulk sync
// responses are never rejected by prevalidation (their prefix semantics are
// the engine loop's), even when a segment certificate is corrupt.
func TestPrevalidatePassesSyncSegments(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	rep := soloReplica(t, 1, 4, 1, ring)
	rep.Init(0)

	g := types.Genesis()
	b1 := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	var votes []types.Vote
	for i := 0; i < 3; i++ {
		v := types.Vote{Block: b1.ID(), Round: 1, Height: 1, Voter: types.ReplicaID(i)}
		v.Signature = []byte("forged")
		votes = append(votes, v)
	}
	badQC := &types.QC{Block: b1.ID(), Round: 1, Height: 1, Votes: votes}
	b2 := types.NewBlock(b1.ID(), badQC, 2, 2, 1, 6, types.Payload{}, nil)

	resp := &types.StateSyncResponse{Blocks: []*types.Block{b2}, Sender: 2}
	if err := rep.Prevalidate(2, resp); err != nil {
		t.Fatalf("sync segment rejected by prevalidation: %v", err)
	}
	// The verified state stage still rejects the corrupt link itself.
	before := rep.Store().Len()
	rep.OnVerifiedMessage(0, 2, resp)
	if rep.Store().Len() != before {
		t.Fatal("corrupt sync segment block was installed")
	}
}

// doorFixture is the fixed starting point of the rejection table, the
// never-verifies test and FuzzOnMessage: replica 3 of 4, two honest rounds
// in. It holds b1 and b2, sits in round 2 with the round-1 certificate as its
// high QC, and leads round 4, so it collects the round-3 votes. Round 3
// belongs to replica 2.
type doorFixture struct {
	ring *crypto.KeyRing
	rep  *diembft.Replica

	b1, b2   *types.Block
	qc1, qc2 *types.QC
}

func newDoorFixture(t testing.TB, verifier crypto.Verifier, mut func(*diembft.Config)) *doorFixture {
	t.Helper()
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	if verifier == nil {
		verifier = ring
	}
	fx := &doorFixture{ring: ring}
	cfg := diembft.Config{
		Config: replica.Config{
			ID: 3, N: 4, F: 1,
			Signer: ring.Signer(3), Verifier: verifier, VerifySignatures: true,
		},
		RoundTimeout: time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	if fx.rep, err = diembft.New(cfg); err != nil {
		t.Fatal(err)
	}
	fx.rep.Init(0)

	g := types.Genesis()
	fx.b1 = types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	fx.qc1 = fx.cert(fx.b1, 0, 1, 2)
	fx.b2 = types.NewBlock(fx.b1.ID(), fx.qc1, 2, 2, 1, 6, types.Payload{}, nil)
	fx.qc2 = fx.cert(fx.b2, 0, 1, 2)
	for _, b := range []*types.Block{fx.b1, fx.b2} {
		if !hasVote(fx.rep.OnMessage(0, b.Proposer, fx.proposal(b))) {
			t.Fatalf("fixture: no vote for the honest round-%d proposal", b.Round)
		}
	}
	if fx.rep.Round() != 2 || fx.rep.HighQC().Round != 1 {
		t.Fatalf("fixture: at round %d with high QC r%d", fx.rep.Round(), fx.rep.HighQC().Round)
	}
	return fx
}

// vote is voter's signed vote for b.
func (fx *doorFixture) vote(b *types.Block, voter types.ReplicaID) types.Vote {
	v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter}
	v.Signature = fx.ring.Signer(voter).Sign(v.SigningPayload())
	return v
}

// cert is b's certificate from the given voters.
func (fx *doorFixture) cert(b *types.Block, voters ...types.ReplicaID) *types.QC {
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
	for _, id := range voters {
		qc.Votes = append(qc.Votes, fx.vote(b, id))
	}
	return qc
}

// forgedCert is a quorum certificate for b with one vote signature replaced.
func (fx *doorFixture) forgedCert(b *types.Block) *types.QC {
	qc := fx.cert(b, 0, 1, 2)
	qc.Votes[1].Signature = []byte("forged")
	return qc
}

// proposal is b's proposal signed by its proposer.
func (fx *doorFixture) proposal(b *types.Block) *types.Proposal {
	p := &types.Proposal{Block: b, Round: b.Round, Sender: b.Proposer}
	p.Signature = fx.ring.Signer(p.Sender).Sign(p.SigningPayload())
	return p
}

// block3 is a round-3 block by proposer on top of b2, justified by justify.
func (fx *doorFixture) block3(proposer types.ReplicaID, justify *types.QC) *types.Block {
	return types.NewBlock(fx.b2.ID(), justify, 3, 3, proposer, 7, types.Payload{}, nil)
}

func (fx *doorFixture) timeout(t *types.Timeout) *types.Timeout {
	t.Signature = fx.ring.Signer(t.Sender).Sign(t.SigningPayload())
	return t
}

func (fx *doorFixture) entry(e *types.RoundEntry) *types.RoundEntry {
	e.Signature = fx.ring.Signer(e.Sender).Sign(e.SigningPayload())
	return e
}

// tc is a timeout certificate for round from the given senders, each
// attesting the round-1 certificate.
func (fx *doorFixture) tc(round types.Round, senders ...types.ReplicaID) *types.TC {
	var timeouts []*types.Timeout
	for _, id := range senders {
		timeouts = append(timeouts, fx.timeout(&types.Timeout{Round: round, HighQC: fx.qc1, HighRound: 1, Sender: id}))
	}
	return types.NewTC(round, timeouts)
}

// fingerprint is the replica state no rejected message may move.
func fingerprint(e engine.Engine) string {
	r := e.(*diembft.Replica)
	return fmt.Sprintf("round=%d high=%d voted=%d locked=%d store=%d votesets=%d timeouts=%d",
		r.Round(), r.HighQC().Round, r.VotedRound(), r.LockedRound(), r.Store().Len(), len(r.Votes), r.PacemakerStats().Buffered)
}

// rejection is one malformed class of the table.
type rejection struct {
	name string
	// sigOnly marks a class only signature verification can catch; it is
	// skipped with verification off.
	sigOnly bool
	// active marks a class that exists only under the active pacemaker.
	active bool
	from   types.ReplicaID
	msg    func(fx *doorFixture) types.Message
	// reason is the by-reason rejection counter the class lands on
	// ("timeout:<reason>" or "entry:<reason>"), "" where no family covers it.
	reason string
}

var proposalRejections = []rejection{
	{name: "proposal/nil block", from: 2, msg: func(fx *doorFixture) types.Message {
		return &types.Proposal{Round: 3, Sender: 2, Signature: []byte{1}}
	}},
	{name: "proposal/nil justify", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(2, nil))
	}},
	{name: "proposal/round mismatch", from: 2, msg: func(fx *doorFixture) types.Message {
		p := &types.Proposal{Block: fx.block3(2, fx.qc2), Round: 7, Sender: 2}
		p.Signature = fx.ring.Signer(2).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/proposer mismatch", from: 2, msg: func(fx *doorFixture) types.Message {
		p := &types.Proposal{Block: fx.block3(0, fx.qc2), Round: 3, Sender: 2}
		p.Signature = fx.ring.Signer(2).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/wrong leader", from: 0, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(0, fx.qc2))
	}},
	{name: "proposal/justify does not certify parent", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(2, fx.qc1))
	}},
	{name: "proposal/sub-quorum justify", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(2, fx.cert(fx.b2, 0, 1)))
	}},
	{name: "proposal/duplicate-voter justify", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(2, fx.cert(fx.b2, 0, 1, 1)))
	}},
	{name: "proposal/forged proposer signature", sigOnly: true, from: 2, msg: func(fx *doorFixture) types.Message {
		p := fx.proposal(fx.block3(2, fx.qc2))
		p.Signature = fx.ring.Signer(1).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/forged justify vote", sigOnly: true, from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(2, fx.forgedCert(fx.b2)))
	}},
	{name: "vote/forged signature", sigOnly: true, from: 0, msg: func(fx *doorFixture) types.Message {
		v := fx.vote(fx.block3(2, fx.qc2), 0)
		v.Marker = 9 // the payload no longer matches the signature
		return &types.VoteMsg{Vote: v}
	}},
	{name: "extra vote/forged signature", sigOnly: true, from: 0, msg: func(fx *doorFixture) types.Message {
		v := fx.vote(fx.b2, 0)
		v.Signature = []byte("forged")
		return &types.ExtraVote{Vote: v, Leader: 0}
	}},
}

// TestRejectionTable drives every malformed proposal and vote class (the
// timeout and round-entry classes are TestRoundEntryRejectsUnjustified's)
// through both doors — OnMessage; Prevalidate then OnVerifiedMessage only if
// it passed — under both pacemakers with verification on and off: no outputs,
// no state change, and the rejection counted once under the same reason
// whichever door the message took.
func TestRejectionTable(t *testing.T) { runRejections(t, proposalRejections) }

func runRejections(t *testing.T, rows []rejection) {
	for _, rj := range rows {
		for _, verify := range []bool{true, false} {
			if rj.sigOnly && !verify {
				continue
			}
			for _, active := range []bool{false, true} {
				if rj.active && !active {
					continue
				}
				for _, split := range []bool{false, true} {
					name := fmt.Sprintf("%s/verify=%v/active=%v/split=%v", rj.name, verify, active, split)
					t.Run(name, func(t *testing.T) {
						sink := obs.New(obs.Options{N: 4, F: 1})
						fx := newDoorFixture(t, nil, func(c *diembft.Config) {
							c.VerifySignatures = verify
							c.ActivePacemaker = active
							c.Obs = sink
						})
						enginetest.CheckRejected(t, fx.rep, split, rj.from, rj.msg(fx), fingerprint, sink, rj.reason)
					})
				}
			}
		}
	}
}

// TestStateStageNeverVerifies pins the one-stage rule on honest traffic:
// OnVerifiedMessage checks no signature for proposals, votes, timeouts,
// round entries and extra votes, and OnMessage checks exactly what
// Prevalidate alone does.
func TestStateStageNeverVerifies(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	build := func() (*doorFixture, *enginetest.CountingVerifier) {
		cv := &enginetest.CountingVerifier{Verifier: ring}
		return newDoorFixture(t, cv, func(c *diembft.Config) { c.ActivePacemaker = true }), cv
	}
	splitFx, splitCalls := build()
	wholeFx, wholeCalls := build()
	b3 := splitFx.block3(2, splitFx.qc2)
	msgs := []struct {
		from types.ReplicaID
		msg  types.Message
	}{
		{0, splitFx.entry(&types.RoundEntry{Round: 3, Justify: splitFx.qc2, Sender: 0})},
		{2, splitFx.proposal(b3)},
		{0, &types.VoteMsg{Vote: splitFx.vote(b3, 0)}},
		{1, &types.VoteMsg{Vote: splitFx.vote(b3, 1)}},
		{0, &types.ExtraVote{Vote: splitFx.vote(b3, 2), Leader: 0}},
		{0, splitFx.timeout(&types.Timeout{Round: 3, HighQC: splitFx.qc2, HighRound: 2, Sender: 0})},
		{1, splitFx.entry(&types.RoundEntry{Round: 4, TC: splitFx.tc(3, 0, 1, 2), Sender: 1})},
	}
	for _, m := range msgs {
		start := splitCalls.Calls
		if err := splitFx.rep.Prevalidate(m.from, m.msg); err != nil {
			t.Fatalf("%T rejected: %v", m.msg, err)
		}
		stateless := splitCalls.Calls - start
		if stateless == 0 {
			t.Errorf("%T: Prevalidate verified nothing", m.msg)
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
	if a, b := fingerprint(splitFx.rep), fingerprint(wholeFx.rep); a != b || splitFx.rep.Round() != 4 {
		t.Fatalf("doors diverged or traffic not absorbed: split %s, OnMessage %s", a, b)
	}
}

// TestAllocsOnMessageDoor pins the cost of the door itself: OnMessage's
// inline Prevalidate, its counted obs hook and the event bracket allocate
// nothing for a message the state stage then ignores (a vote this replica
// does not collect), with an observability sink attached.
func TestAllocsOnMessageDoor(t *testing.T) {
	fx := newDoorFixture(t, nil, func(c *diembft.Config) {
		c.VerifySignatures = false
		c.Obs = obs.New(obs.Options{N: 4, F: 1})
	})
	msg := &types.VoteMsg{Vote: fx.vote(fx.b1, 0)} // round-1 votes go to replica 1
	if a := testing.AllocsPerRun(1000, func() {
		if outs := fx.rep.OnMessage(0, 0, msg); len(outs) != 0 {
			t.Fatal("outputs from an ignored vote")
		}
	}); a != 0 {
		t.Fatalf("OnMessage door: %v allocs/op, want 0", a)
	}
}

// TestOutputLifetime: the output-slice contract (engine.Engine). The round
// timer's timeout broadcast and re-armed timer, then the one-output answer to
// a catch-up request.
func TestOutputLifetime(t *testing.T) {
	a, b := newDoorFixture(t, nil, nil), newDoorFixture(t, nil, nil)
	enginetest.CheckOutputLifetime(t, a.rep, b.rep,
		func(e engine.Engine) []engine.Output { return e.OnTimer(0, int(a.rep.Round())<<1) },
		func(e engine.Engine) []engine.Output {
			return e.OnMessage(0, 0, statesync.NewRequest(0, 0))
		},
		&types.VoteMsg{Vote: a.vote(a.b2, 0)})
}
