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
	"repro/internal/pacemaker"
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
}

// TestDoorRefusesNonCandidates: the leader of round r is some Leader(r+k, n)
// with k <= the reputation window, so at n=13 the door refuses the four
// replicas beyond it before any signature work, and lets the nine candidates
// through to the state stage, which votes only for the elected one (on a
// fresh chain, round robin's).
func TestDoorRefusesNonCandidates(t *testing.T) {
	const n, self = 13, 5
	ring, _ := crypto.NewKeyRing(n, 1, crypto.SchemeSim)
	cv := &enginetest.CountingVerifier{Verifier: ring}
	rep, err := diembft.New(diembft.Config{
		Config: replica.Config{
			ID: self, N: n,
			Signer: ring.Signer(self), Verifier: cv, VerifySignatures: true,
		},
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Init(0)
	g := types.Genesis()
	refused := 0
	for k := types.Round(n - 1); k < n; k-- {
		from := pacemaker.Leader(1+k, n)
		if from == self {
			continue
		}
		b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, from, 5, types.Payload{}, nil)
		p := &types.Proposal{Block: b, Round: 1, Sender: from}
		p.Signature = ring.Signer(from).Sign(p.SigningPayload())
		calls := cv.Calls
		if err := rep.Prevalidate(from, p); k > pacemaker.ReputationWindow {
			if err == nil || cv.Calls != calls {
				t.Errorf("replica %d, slot r+%d: door verdict %v after %d signature checks; want refused before any", from, k, err, cv.Calls-calls)
			}
			refused++
			continue
		} else if err != nil {
			t.Fatalf("candidate %d, slot r+%d, refused at the door: %v", from, k, err)
		}
		if voted := hasVote(rep.OnVerifiedMessage(0, from, p)); voted != (k == 0) {
			t.Errorf("candidate %d, slot r+%d: voted %v", from, k, voted)
		}
	}
	if refused != n-1-int(pacemaker.ReputationWindow) {
		t.Errorf("%d replicas refused at the door, want %d", refused, n-1-int(pacemaker.ReputationWindow))
	}
}

// TestGappedChainElectsByReputation: on the gapped fixture the next round's
// round-robin leader is the one passed over, and the replica votes for the
// leader reputation elected instead.
func TestGappedChainElectsByReputation(t *testing.T) {
	fx := newChainFixture(t, true, nil, nil)
	if rr := pacemaker.Leader(fx.b2.Round+1, 4); rr != fx.passedOver || fx.leader == rr {
		t.Fatalf("round %d: round-robin leader %d, passed over %d, elected %d", fx.b2.Round+1, rr, fx.passedOver, fx.leader)
	}
	if !hasVote(fx.rep.OnMessage(0, fx.leader, fx.proposal(fx.next(fx.leader, fx.qc2)))) {
		t.Fatal("no vote for the elected leader's proposal")
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
// never-verifies test and FuzzOnMessage: replica 3 of 4, holding b1 and b2,
// sitting in b2's round with b1's certificate as its high QC, having voted
// for b2. The next round's block (next) extends b2 and is leader's to
// propose; passedOver is a replica the election refuses for that round.
//
// Two chains lead there. The contiguous one is two honest rounds, b1 at round
// 1 and b2 at round 2: round 3 belongs to its round-robin leader, replica 2,
// and replica 3 leads round 4, so it collects the round-3 votes. In the
// gapped one rounds 2 and 4 timed out: a at round 1, b1 at round 3 and b2 at
// round 5 (its justify certifies b1). Round 6's round-robin leader, replica
// 1, owned the failed round 2, so reputation passes it over and elects
// replica 2. The replica jumps from round 3 to 5 on a timeout certificate
// that carries a's certificate, so it never leads round 4 itself.
type doorFixture struct {
	ring *crypto.KeyRing
	rep  *diembft.Replica

	b1, b2   *types.Block
	qc1, qc2 *types.QC

	leader, passedOver types.ReplicaID
}

func newDoorFixture(t testing.TB, verifier crypto.Verifier, mut func(*diembft.Config)) *doorFixture {
	return newChainFixture(t, false, verifier, mut)
}

func newChainFixture(t testing.TB, gapped bool, verifier crypto.Verifier, mut func(*diembft.Config)) *doorFixture {
	t.Helper()
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	if verifier == nil {
		verifier = ring
	}
	fx := &doorFixture{ring: ring, leader: 2}
	cfg := diembft.Config{
		Config: replica.Config{
			ID: 3, N: 4,
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

	propose := func(b *types.Block) {
		t.Helper()
		if !hasVote(fx.rep.OnMessage(0, b.Proposer, fx.proposal(b))) {
			t.Fatalf("fixture: no vote for the round-%d proposal", b.Round)
		}
	}
	timeOut := func(round types.Round, high *types.QC) {
		for sender := types.ReplicaID(0); sender < 3; sender++ {
			fx.rep.OnMessage(0, sender, fx.timeout(&types.Timeout{Round: round, HighQC: high, HighRound: high.Round, Sender: sender}))
		}
	}
	g := types.Genesis()
	if !gapped {
		fx.passedOver = 0
		fx.b1 = types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
		fx.qc1 = fx.cert(fx.b1, 0, 1, 2)
		fx.b2 = types.NewBlock(fx.b1.ID(), fx.qc1, 2, 2, 1, 6, types.Payload{}, nil)
		propose(fx.b1)
		propose(fx.b2)
	} else {
		fx.passedOver = 1
		a := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
		qcA := fx.cert(a, 0, 1, 2)
		fx.b1 = types.NewBlock(a.ID(), qcA, 3, 2, 2, 6, types.Payload{}, nil)
		fx.qc1 = fx.cert(fx.b1, 0, 1, 2)
		fx.b2 = types.NewBlock(fx.b1.ID(), fx.qc1, 5, 3, 0, 7, types.Payload{}, nil)
		propose(a)
		timeOut(2, qcA)
		propose(fx.b1)
		timeOut(4, qcA)
		propose(fx.b2)
	}
	fx.qc2 = fx.cert(fx.b2, 0, 1, 2)
	if fx.rep.Round() != fx.b2.Round || fx.rep.HighQC() != fx.qc1 {
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

// next is the next round's block by proposer on top of b2, justified by
// justify.
func (fx *doorFixture) next(proposer types.ReplicaID, justify *types.QC) *types.Block {
	return types.NewBlock(fx.b2.ID(), justify, fx.b2.Round+1, fx.b2.Height+1, proposer, 7, types.Payload{}, nil)
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

// rejection is one malformed class of the table. Each message is delivered
// from the replica it names as its sender.
type rejection struct {
	name string
	// sigOnly marks a class only signature verification can catch; it is
	// skipped with verification off.
	sigOnly bool
	msg     func(fx *doorFixture) types.Message
	// reason is the by-reason rejection counter the class lands on
	// ("timeout:<reason>"), "" where no family covers it.
	reason string
}

var rejections = []rejection{
	{name: "proposal/nil block", msg: func(fx *doorFixture) types.Message {
		return &types.Proposal{Round: fx.b2.Round + 1, Sender: fx.leader, Signature: []byte{1}}
	}},
	{name: "proposal/nil justify", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.leader, nil))
	}},
	{name: "proposal/round mismatch", msg: func(fx *doorFixture) types.Message {
		b := fx.next(fx.leader, fx.qc2)
		p := &types.Proposal{Block: b, Round: b.Round + 4, Sender: fx.leader}
		p.Signature = fx.ring.Signer(fx.leader).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/proposer mismatch", msg: func(fx *doorFixture) types.Message {
		b := fx.next(fx.passedOver, fx.qc2)
		p := &types.Proposal{Block: b, Round: b.Round, Sender: fx.leader}
		p.Signature = fx.ring.Signer(fx.leader).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/wrong leader", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.passedOver, fx.qc2))
	}},
	{name: "proposal/justify does not certify parent", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.leader, fx.qc1))
	}},
	{name: "proposal/justify names the parent at another height", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.leader, fx.certAt(fx.b2, fx.b2.Height+3))) // the next block sits one above b2
	}},
	{name: "proposal/justify relabelled to another height", msg: func(fx *doorFixture) types.Message {
		qc := *fx.qc2
		qc.Height += 5 // its votes say b2's height
		return fx.proposal(types.NewBlock(fx.b2.ID(), &qc, fx.b2.Round+1, qc.Height+1, fx.leader, 7, types.Payload{}, nil))
	}},
	{name: "proposal/sub-quorum justify", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.leader, fx.cert(fx.b2, 0, 1)))
	}},
	{name: "proposal/duplicate-voter justify", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.leader, fx.cert(fx.b2, 0, 1, 1)))
	}},
	{name: "proposal/forged proposer signature", sigOnly: true, msg: func(fx *doorFixture) types.Message {
		p := fx.proposal(fx.next(fx.leader, fx.qc2))
		p.Signature = fx.ring.Signer(fx.passedOver).Sign(p.SigningPayload())
		return p
	}},
	{name: "proposal/forged justify vote", sigOnly: true, msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.next(fx.leader, fx.forgedCert(fx.b2)))
	}},
	{name: "vote/forged signature", sigOnly: true, msg: func(fx *doorFixture) types.Message {
		v := fx.vote(fx.next(fx.leader, fx.qc2), 0)
		v.Marker = 9 // the payload no longer matches the signature
		return &types.VoteMsg{Vote: v}
	}},
	{name: "extra vote/forged signature", sigOnly: true, msg: func(fx *doorFixture) types.Message {
		v := fx.vote(fx.b2, 0)
		v.Signature = []byte("forged")
		return &types.ExtraVote{Vote: v, Leader: 0}
	}},
	{name: "timeout/high-round mismatch", reason: "timeout:" + obs.ReasonMismatch, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: fx.b2.Round, HighQC: fx.qc1, HighRound: fx.qc1.Round + 4, Sender: 0})
	}},
	{name: "timeout/sub-quorum high QC", reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: fx.b2.Round, HighQC: fx.cert(fx.b2, 0, 1), HighRound: fx.b2.Round, Sender: 0})
	}},
	{name: "timeout/high QC relabelled to another height", reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		qc := *fx.qc2
		qc.Height += 5 // its votes say b2's height
		return fx.timeout(&types.Timeout{Round: fx.b2.Round, HighQC: &qc, HighRound: fx.b2.Round, Sender: 0})
	}},
	{name: "timeout/duplicate-voter high QC", reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: fx.b2.Round, HighQC: fx.cert(fx.b2, 0, 1, 1), HighRound: fx.b2.Round, Sender: 0})
	}},
	{name: "timeout/forged sender signature", sigOnly: true, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		t := fx.timeout(&types.Timeout{Round: fx.b2.Round, HighQC: fx.qc2, HighRound: fx.b2.Round, Sender: 0})
		t.Signature = fx.ring.Signer(1).Sign(t.SigningPayload())
		return t
	}},
	{name: "timeout/forged high QC vote", sigOnly: true, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: fx.b2.Round, HighQC: fx.forgedCert(fx.b2), HighRound: fx.b2.Round, Sender: 0})
	}},
	{name: "timeout/no high QC, forged sender signature", sigOnly: true, reason: "timeout:" + obs.ReasonBadSignature, msg: func(fx *doorFixture) types.Message {
		t := fx.timeout(&types.Timeout{Round: fx.b2.Round, Sender: 0})
		t.Signature = fx.ring.Signer(1).Sign(t.SigningPayload())
		return t
	}},

	// Well-formed and genuinely signed, so Prevalidate passes them: the state
	// stage is what turns them away.
	{name: "proposal/stale round", msg: func(fx *doorFixture) types.Message {
		g := types.Genesis()
		return fx.proposal(types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 9, types.Payload{}, nil))
	}},
	{name: "proposal/replayed block", msg: func(fx *doorFixture) types.Message {
		return fx.proposal(fx.b2)
	}},
	{name: "vote/for another collector", msg: func(fx *doorFixture) types.Message {
		return &types.VoteMsg{Vote: fx.vote(fx.b2, 0)} // b2's votes go to the next round's leader
	}},
	{name: "extra vote/outside the FBFT baseline", msg: func(fx *doorFixture) types.Message {
		return &types.ExtraVote{Vote: fx.vote(fx.b2, 0), Leader: fx.leader}
	}},
	{name: "timeout/stale round", reason: "timeout:" + obs.ReasonStale, msg: func(fx *doorFixture) types.Message {
		return fx.timeout(&types.Timeout{Round: fx.b1.Round, HighQC: fx.qc1, HighRound: fx.qc1.Round, Sender: 0})
	}},
}

// sender is the replica msg names as its sender.
func sender(msg types.Message) types.ReplicaID {
	switch m := msg.(type) {
	case *types.Proposal:
		return m.Sender
	case *types.VoteMsg:
		return m.Vote.Voter
	case *types.ExtraVote:
		return m.Vote.Voter
	case *types.Timeout:
		return m.Sender
	}
	panic(fmt.Sprintf("sender of %T", msg))
}

// TestRejectionTable drives every malformed proposal, vote and timeout class
// through both doors — OnMessage; Prevalidate then OnVerifiedMessage only if
// it passed — with verification on and off, on the contiguous chain and on
// the gapped one, where the next round's leader is the one reputation
// elected in place of the round-robin one: no outputs, no state change, and
// the rejection counted once under the same reason whichever door the
// message took.
func TestRejectionTable(t *testing.T) {
	for _, rj := range rejections {
		for _, verify := range []bool{true, false} {
			if rj.sigOnly && !verify {
				continue
			}
			for _, chain := range []string{"contiguous", "gapped"} {
				for _, split := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/verify=%v/chain=%s/split=%v", rj.name, verify, chain, split), func(t *testing.T) {
						sink := obs.New(obs.Options{N: 4})
						fx := newChainFixture(t, chain == "gapped", nil, func(c *diembft.Config) {
							c.VerifySignatures = verify
							c.Obs = sink
						})
						msg := rj.msg(fx)
						enginetest.CheckRejected(t, fx.rep, split, sender(msg), msg, fingerprint, sink, rj.reason)
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
	sink := obs.New(obs.Options{N: 4})
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
	b3 := splitFx.next(2, splitFx.qc2)
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
		c.Obs = obs.New(obs.Options{N: 4})
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
