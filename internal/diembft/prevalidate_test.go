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
	from    types.ReplicaID
	msg     func(fx *doorFixture) types.Message
	// reason is the by-reason rejection counter the class lands on
	// ("timeout:<reason>"), "" where no family covers it.
	reason string
}

var rejections = []rejection{
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
	{name: "proposal/justify names the parent at another height", from: 2, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.block3(2, fx.certAt(fx.b2, 5))) // signed at height 5; block3 sits at 3
	}},
	{name: "proposal/justify relabelled to another height", from: 2, msg: func(fx *doorFixture) types.Message {
		qc := *fx.qc2
		qc.Height = 7 // its votes say 2
		return fx.proposal(types.NewBlock(fx.b2.ID(), &qc, 3, 8, 2, 7, types.Payload{}, nil))
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
	{name: "timeout/high-round mismatch", from: 0, reason: "timeout:" + obs.ReasonMismatch, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.qc1, HighRound: 5, Sender: 0})
	}},
	{name: "timeout/sub-quorum high QC", from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.cert(fx.b2, 0, 1), HighRound: 2, Sender: 0})
	}},
	{name: "timeout/high QC relabelled to another height", from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		qc := *fx.qc2
		qc.Height = 7 // its votes say 2
		return fx.timeout(&types.Timeout{Round: 2, HighQC: &qc, HighRound: 2, Sender: 0})
	}},
	{name: "timeout/duplicate-voter high QC", from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.cert(fx.b2, 0, 1, 1), HighRound: 2, Sender: 0})
	}},
	{name: "timeout/forged sender signature", sigOnly: true, from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		t := fx.timeout(&types.Timeout{Round: 2, HighQC: fx.qc2, HighRound: 2, Sender: 0})
		t.Signature = fx.ring.Signer(1).Sign(t.SigningPayload())
		return t
	}},
	{name: "timeout/forged high QC vote", sigOnly: true, from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 2, HighQC: fx.forgedCert(fx.b2), HighRound: 2, Sender: 0})
	}},
	{name: "timeout/no high QC, forged sender signature", sigOnly: true, from: 0, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		t := fx.timeout(&types.Timeout{Round: 2, Sender: 0})
		t.Signature = fx.ring.Signer(1).Sign(t.SigningPayload())
		return t
	}},

	// Well-formed and genuinely signed, so Prevalidate passes them: the state
	// stage is what turns them away.
	{name: "proposal/stale round", from: 0, msg: func(fx *doorFixture) types.Message {
		g := types.Genesis()
		return fx.proposal(types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 9, types.Payload{}, nil))
	}},
	{name: "proposal/replayed block", from: 1, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.b2)
	}},
	{name: "vote/for another collector", from: 0, msg: func(fx *doorFixture) types.Message {
		return &types.VoteMsg{Vote: fx.vote(fx.b2, 0)} // round-2 votes go to replica 2
	}},
	{name: "extra vote/outside the FBFT baseline", from: 0, msg: func(fx *doorFixture) types.Message {
		return &types.ExtraVote{Vote: fx.vote(fx.b2, 0), Leader: 2}
	}},
	{name: "timeout/stale round", from: 0, reason: "timeout:" + obs.ReasonStale, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: 1, HighQC: fx.qc1, HighRound: 1, Sender: 0})
	}},
}

// TestRejectionTable drives every malformed proposal, vote and timeout class
// through both doors — OnMessage; Prevalidate then OnVerifiedMessage only if
// it passed — with verification on and off, under round-robin leaders and
// under leader reputation (whose leader check is the state stage's, not
// Prevalidate's): no outputs, no state change, and the rejection counted once
// under the same reason whichever door the message took.
func TestRejectionTable(t *testing.T) {
	for _, rj := range rejections {
		for _, verify := range []bool{true, false} {
			if rj.sigOnly && !verify {
				continue
			}
			for _, reputation := range []bool{false, true} {
				for _, split := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/verify=%v/reputation=%v/split=%v", rj.name, verify, reputation, split), func(t *testing.T) {
						sink := obs.New(obs.Options{N: 4, F: 1})
						fx := newDoorFixture(t, nil, func(c *diembft.Config) {
							c.VerifySignatures = verify
							c.Obs = sink
							if reputation {
								c.LeaderReputationWindow = 8
							}
						})
						enginetest.CheckRejected(t, fx.rep, split, rj.from, rj.msg(fx), fingerprint, sink, rj.reason)
					})
				}
			}
		}
	}
}

// TestTimeoutHighRoundMismatchRejected: the signed high-round claim must
// match the certificate the timeout ships, or the message is dropped before
// the pacemaker buffers it.
func TestTimeoutHighRoundMismatchRejected(t *testing.T) {
	sink := obs.New(obs.Options{N: 4, F: 1})
	fx := newDoorFixture(t, nil, func(c *diembft.Config) { c.Obs = sink })
	to := fx.timeout(&types.Timeout{Round: 2, HighQC: fx.qc1, HighRound: 5, Sender: 0}) // claims r5, QC says r1
	fx.rep.OnMessage(0, 0, to)
	if got := fx.rep.PacemakerStats().Buffered; got != 0 {
		t.Fatalf("mismatched timeout was buffered (%d)", got)
	}
	if sink.RejectedTimeouts() == 0 {
		t.Fatal("mismatch rejection not counted")
	}
}

// TestStateStageNeverVerifies pins the one-stage rule on honest traffic:
// OnVerifiedMessage checks no signature for proposals, votes, timeouts and
// extra votes, and OnMessage checks exactly what Prevalidate alone does.
func TestStateStageNeverVerifies(t *testing.T) {
	ring, _ := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	build := func() (*doorFixture, *enginetest.CountingVerifier) {
		cv := &enginetest.CountingVerifier{Verifier: ring}
		return newDoorFixture(t, cv, nil), cv
	}
	splitFx, splitCalls := build()
	wholeFx, wholeCalls := build()
	b3 := splitFx.block3(2, splitFx.qc2)
	msgs := []struct {
		from types.ReplicaID
		msg  types.Message
	}{
		{2, splitFx.proposal(b3)},
		{0, &types.VoteMsg{Vote: splitFx.vote(b3, 0)}},
		{1, &types.VoteMsg{Vote: splitFx.vote(b3, 1)}},
		{0, &types.ExtraVote{Vote: splitFx.vote(b3, 2), Leader: 0}},
		{0, splitFx.timeout(&types.Timeout{Round: 3, HighQC: splitFx.qc2, HighRound: 2, Sender: 0})},
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
	// The proposal's justify moves the replica to round 3; two peer votes are
	// one short of the round-3 quorum, so it stays there.
	if a, b := fingerprint(splitFx.rep), fingerprint(wholeFx.rep); a != b || splitFx.rep.Round() != 3 {
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

// TestWrongHeightIsUnknown: the store finds a block only at its own height,
// so a vote, a certificate or a proposal parent that names a stored block at
// another height is treated as naming an unknown block — the vote buffered,
// the certificate kept as an orphan, the proposal parked — through either
// door, and never credited to the stored block.
func TestWrongHeightIsUnknown(t *testing.T) {
	for _, row := range []struct {
		name string
		from types.ReplicaID
		msgs func(fx *doorFixture) []types.Message
		// check reads the outcome; b2 is stored at height 2 throughout.
		check func(t *testing.T, fx *doorFixture)
	}{
		{"vote", 0, func(fx *doorFixture) []types.Message {
			var msgs []types.Message
			for voter := types.ReplicaID(0); voter < 3; voter++ {
				v := types.Vote{Block: fx.b2.ID(), Round: 3, Height: 7, Voter: voter}
				v.Signature = fx.ring.Signer(voter).Sign(v.SigningPayload())
				msgs = append(msgs, &types.VoteMsg{Vote: v})
			}
			return msgs
		}, func(t *testing.T, fx *doorFixture) {
			if got := fx.rep.Votes[fx.b2.ID()].Len(); got != 3 {
				t.Errorf("%d votes buffered, want 3", got)
			}
		}},
		{"certificate", 0, func(fx *doorFixture) []types.Message {
			qc := fx.certAt(fx.b2, 5)
			return []types.Message{fx.timeout(&types.Timeout{Round: 2, HighQC: qc, HighRound: 2, Sender: 0})}
		}, func(t *testing.T, fx *doorFixture) {
			if fx.rep.HighQC().Block != fx.b2.ID() || fx.rep.HighQC().Height != 5 {
				t.Errorf("the certificate's rank was not noted: high QC %v h%d", fx.rep.HighQC().Block, fx.rep.HighQC().Height)
			}
		}},
		{"proposal parent", 2, func(fx *doorFixture) []types.Message {
			justify := fx.certAt(fx.b2, 4)
			return []types.Message{fx.proposal(types.NewBlock(fx.b2.ID(), justify, 3, 5, 2, 7, types.Payload{}, nil))}
		}, func(t *testing.T, fx *doorFixture) {
			if got := fx.rep.Parked(); got != 1 {
				t.Errorf("%d proposals parked, want 1", got)
			}
		}},
	} {
		for _, verify := range []bool{true, false} {
			for _, split := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/verify=%v/split=%v", row.name, verify, split), func(t *testing.T) {
					fx := newDoorFixture(t, nil, func(c *diembft.Config) { c.VerifySignatures = verify })
					blocks := fx.rep.Store().Len()
					for _, msg := range row.msgs(fx) {
						if split {
							if err := fx.rep.Prevalidate(row.from, msg); err != nil {
								t.Fatalf("the door refused %T: %v", msg, err)
							}
							fx.rep.OnVerifiedMessage(0, row.from, msg)
						} else {
							fx.rep.OnMessage(0, row.from, msg)
						}
					}
					row.check(t, fx)
					if n := fx.rep.Store().Node(fx.b2.Height, fx.b2.ID()); n == nil || n.QC() != nil {
						t.Errorf("b2 is gone or was certified: %v", n)
					}
					if fx.rep.Store().Len() != blocks || fx.rep.Store().HighQC() != fx.qc1 {
						t.Errorf("the store moved: %d blocks (was %d), high QC r%d", fx.rep.Store().Len(), blocks, fx.rep.Store().HighQC().Round)
					}
				})
			}
		}
	}
}
