package observer_test

import (
	"fmt"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/observer"
	"repro/internal/statesync"
	"repro/internal/types"
)

// fixture builds a linear certified chain over a 4-replica committee and
// drives an observer engine with it message by message.
type fixture struct {
	t    testing.TB
	ring *crypto.KeyRing
	obs  *observer.Observer

	chain []*types.Block // chain[0] = genesis
}

func newFixture(t testing.TB, verify bool, cfg observer.Config) *fixture {
	t.Helper()
	ring := fixtureRing(t, verify)
	if cfg.ID == 0 {
		cfg.ID = 4
	}
	if cfg.Verifier == nil {
		cfg.Verifier = ring
	}
	o, err := observer.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, ring: ring, obs: o, chain: []*types.Block{types.Genesis()}}
}

// fixtureRing is the fixture's committee of four. The observer checks
// signatures under real cryptography only, so verify picks ed25519 keys and
// otherwise the simulated scheme's.
func fixtureRing(t testing.TB, verify bool) *crypto.KeyRing {
	t.Helper()
	scheme := crypto.SchemeSim
	if verify {
		scheme = crypto.SchemeEd25519
	}
	ring, err := crypto.NewKeyRing(4, 7, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// extend appends one block at the next round/height, certified by signers.
func (f *fixture) extend(signers int) (*types.Block, *types.QC) {
	f.t.Helper()
	parent := f.chain[len(f.chain)-1]
	justify := f.qcFor(parent, signers)
	r := types.Round(len(f.chain))
	b := types.NewBlock(parent.ID(), justify, r, types.Height(len(f.chain)), 0, 0, types.Payload{}, nil)
	f.chain = append(f.chain, b)
	return b, justify
}

func (f *fixture) qcFor(b *types.Block, signers int) *types.QC {
	f.t.Helper()
	if b.IsGenesis() {
		return types.NewGenesisQC(b.ID())
	}
	votes := make([]types.Vote, signers)
	for i := 0; i < signers; i++ {
		v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: types.ReplicaID(i)}
		v.Signature = f.ring.Signer(v.Voter).Sign(v.SigningPayload())
		votes[i] = v
	}
	return &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
}

// qcAt is a quorum certificate whose voters signed b's ID at height h.
func (f *fixture) qcAt(b *types.Block, h types.Height) *types.QC {
	qc := f.qcFor(b, 3)
	qc.Height = h
	for i := range qc.Votes {
		qc.Votes[i].Height = h
		qc.Votes[i].Signature = f.ring.Signer(qc.Votes[i].Voter).Sign(qc.Votes[i].SigningPayload())
	}
	return qc
}

func (f *fixture) proposal(b *types.Block) *types.Proposal {
	f.t.Helper()
	p := &types.Proposal{Block: b, Round: b.Round, Sender: 0}
	p.Signature = f.ring.Signer(0).Sign(p.SigningPayload())
	return p
}

func (f *fixture) deliver(msg types.Message) []engine.Output {
	return f.obs.OnMessage(0, 0, msg)
}

func commits(outs []engine.Output) []*types.Block {
	var bs []*types.Block
	for _, o := range outs {
		if o.Kind == engine.Commit {
			bs = append(bs, o.Block)
		}
	}
	return bs
}

func strengths(outs []engine.Output) map[types.BlockID]int {
	m := map[types.BlockID]int{}
	for _, o := range outs {
		if o.Kind == engine.Strength {
			m[o.Block.ID()] = o.X
		}
	}
	return m
}

// TestFollowsChainAndCommits feeds a certified chain via proposals and
// checks the observer derives the same commits and strength rises a voting
// replica would: the first block regular-commits when the 3-chain closes
// (level f), and deeper certification raises its level toward 2f.
func TestFollowsChainAndCommits(t *testing.T) {
	var certified []types.BlockID
	f := newFixture(t, true, observer.Config{
		OnCertified: func(b *types.Block, qc *types.QC) {
			certified = append(certified, b.ID())
		},
	})

	// b1..b3 certified by 3 = 2f+1 voters closes the 3-chain over b1.
	var all []engine.Output
	var blocks []*types.Block
	for i := 0; i < 4; i++ {
		b, _ := f.extend(3)
		blocks = append(blocks, b)
		all = append(all, f.deliver(f.proposal(b))...)
	}
	cs := commits(all)
	if len(cs) == 0 || cs[0].ID() != blocks[0].ID() {
		t.Fatalf("first commit = %v, want b1", cs)
	}
	// Commits must be height-ascending.
	for i := 1; i < len(cs); i++ {
		if cs[i].Height != cs[i-1].Height+1 {
			t.Fatalf("commit order broken at %d: %v then %v", i, cs[i-1], cs[i])
		}
	}
	if got := strengths(all)[blocks[0].ID()]; got != 1 {
		t.Fatalf("b1 strength = %d, want f = 1", got)
	}
	if f.obs.CommittedHeight() == 0 {
		t.Fatal("committed height not advanced")
	}
	// Every delivered block's parent got exactly one certified-feed event
	// (the genesis justify carries no votes and is skipped).
	if len(certified) != 3 {
		t.Fatalf("certified feed fired %d times, want 3", len(certified))
	}

	// Certify with the full committee: strength rises to 2f = 2.
	b5, _ := f.extend(4)
	all = f.deliver(f.proposal(b5))
	b6, _ := f.extend(4)
	all = append(all, f.deliver(f.proposal(b6))...)
	b7, _ := f.extend(4)
	all = append(all, f.deliver(f.proposal(b7))...)
	found := false
	for _, x := range strengths(all) {
		if x == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no block reached strength 2f with full-committee certificates")
	}
}

// doorFixture is the fixed starting point of the rejection table, the
// never-verifies test and FuzzOnMessage: an observer that has followed the
// certified chain b1..b3.
func doorFixture(t testing.TB, verify bool, cfg observer.Config) *fixture {
	f := newFixture(t, verify, cfg)
	for i := 0; i < 3; i++ {
		b, _ := f.extend(3)
		f.deliver(f.proposal(b))
	}
	if f.obs.Store().Len() != 4 {
		f.t.Fatalf("fixture: store holds %d blocks, want genesis + 3", f.obs.Store().Len())
	}
	return f
}

// child is a block on top of the fixture's tip, justified by justify.
func (f *fixture) child(justify *types.QC) *types.Block {
	tip := f.chain[len(f.chain)-1]
	return types.NewBlock(tip.ID(), justify, tip.Round+1, tip.Height+1, 0, 0, types.Payload{}, nil)
}

// forgedQC is a quorum certificate for b with one vote signature replaced.
func (f *fixture) forgedQC(b *types.Block) *types.QC {
	qc := f.qcFor(b, 3)
	qc.Votes[1].Signature = []byte("forged")
	return qc
}

// duplicateQC is a three-vote certificate for b with a repeated voter.
func (f *fixture) duplicateQC(b *types.Block) *types.QC {
	qc := f.qcFor(b, 3)
	qc.Votes[2] = qc.Votes[1]
	return qc
}

// fingerprint is the observer state no rejected message may move.
func fingerprint(e engine.Engine) string {
	o := e.(*observer.Observer)
	return fmt.Sprintf("high=%d committed=%d store=%d", o.Store().HighQC().Round, o.CommittedHeight(), o.Store().Len())
}

// rejections is the table; sigOnly classes are skipped with verification off.
var rejections = []struct {
	name    string
	sigOnly bool
	msg     func(f *fixture) types.Message
}{
	{name: "proposal/nil block", msg: func(f *fixture) types.Message {
		return &types.Proposal{Round: 4, Sender: 0, Signature: []byte{1}}
	}},
	{name: "proposal/nil justify", msg: func(f *fixture) types.Message {
		return f.proposal(f.child(nil))
	}},
	{name: "proposal/justify does not certify parent", msg: func(f *fixture) types.Message {
		return f.proposal(f.child(f.qcFor(f.chain[2], 3)))
	}},
	{name: "proposal/justify names the parent at another height", msg: func(f *fixture) types.Message {
		return f.proposal(f.child(f.qcAt(f.chain[3], f.chain[3].Height+2)))
	}},
	{name: "proposal/justify relabelled to another height", msg: func(f *fixture) types.Message {
		tip := f.chain[3]
		qc := f.qcFor(tip, 3)
		qc.Height = tip.Height + 4 // its votes say tip.Height
		return f.proposal(types.NewBlock(tip.ID(), qc, tip.Round+1, tip.Height+5, 0, 0, types.Payload{}, nil))
	}},
	{name: "proposal/sub-quorum justify", msg: func(f *fixture) types.Message {
		return f.proposal(f.child(f.qcFor(f.chain[3], 2)))
	}},
	{name: "proposal/duplicate-voter justify", msg: func(f *fixture) types.Message {
		return f.proposal(f.child(f.duplicateQC(f.chain[3])))
	}},
	{name: "proposal/sender outside the committee", msg: func(f *fixture) types.Message {
		p := f.proposal(f.child(f.qcFor(f.chain[3], 3)))
		p.Sender = 4
		return p
	}},
	{name: "proposal/forged proposer signature", sigOnly: true, msg: func(f *fixture) types.Message {
		p := f.proposal(f.child(f.qcFor(f.chain[3], 3)))
		p.Signature = []byte("forged")
		return p
	}},
	{name: "proposal/forged justify vote", sigOnly: true, msg: func(f *fixture) types.Message {
		return f.proposal(f.child(f.forgedQC(f.chain[3])))
	}},
	{name: "proposal/replayed block", msg: func(f *fixture) types.Message {
		return f.proposal(f.chain[3])
	}},
	{name: "echo/nil justify", msg: func(f *fixture) types.Message {
		return &types.Echo{Inner: f.proposal(f.child(nil)), Relayer: 1}
	}},
	{name: "echo/justify does not certify parent", msg: func(f *fixture) types.Message {
		return &types.Echo{Inner: f.proposal(f.child(f.qcFor(f.chain[2], 3))), Relayer: 1}
	}},
	{name: "echo/sub-quorum justify", msg: func(f *fixture) types.Message {
		return &types.Echo{Inner: f.proposal(f.child(f.qcFor(f.chain[3], 2))), Relayer: 1}
	}},
	{name: "echo/duplicate-voter justify", msg: func(f *fixture) types.Message {
		return &types.Echo{Inner: f.proposal(f.child(f.duplicateQC(f.chain[3]))), Relayer: 1}
	}},
	{name: "echo/sender outside the committee", msg: func(f *fixture) types.Message {
		p := f.proposal(f.child(f.qcFor(f.chain[3], 3)))
		p.Sender = 4
		return &types.Echo{Inner: p, Relayer: 1}
	}},
	{name: "echo/forged proposer signature", sigOnly: true, msg: func(f *fixture) types.Message {
		p := f.proposal(f.child(f.qcFor(f.chain[3], 3)))
		p.Signature = []byte("forged")
		return &types.Echo{Inner: p, Relayer: 1}
	}},
	{name: "echo/forged justify vote", sigOnly: true, msg: func(f *fixture) types.Message {
		return &types.Echo{Inner: f.proposal(f.child(f.forgedQC(f.chain[3]))), Relayer: 1}
	}},
	{name: "echo/wraps no proposal", msg: func(f *fixture) types.Message {
		qc := f.qcFor(f.chain[3], 3)
		return &types.Echo{Inner: &types.VoteMsg{Vote: qc.Votes[0]}, Relayer: 1}
	}},
	{name: "echo/empty", msg: func(f *fixture) types.Message {
		return &types.Echo{Relayer: 1}
	}},
	{name: "echo/over-nested", msg: func(f *fixture) types.Message {
		var msg types.Message = f.proposal(f.child(f.qcFor(f.chain[3], 3)))
		for i := 0; i < 6; i++ {
			msg = &types.Echo{Inner: msg, Relayer: 1}
		}
		return msg
	}},
}

// TestRejectsForgedTraffic drives every malformed class through both doors —
// OnMessage; Prevalidate then OnVerifiedMessage only if it passed — with
// verification on and off: no outputs, and nothing enters the store or moves
// the high QC.
func TestRejectsForgedTraffic(t *testing.T) {
	for _, rj := range rejections {
		for _, verify := range []bool{true, false} {
			if rj.sigOnly && !verify {
				continue
			}
			for _, split := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/verify=%v/split=%v", rj.name, verify, split), func(t *testing.T) {
					f := doorFixture(t, verify, observer.Config{})
					enginetest.CheckRejected(t, f.obs, split, 0, rj.msg(f), fingerprint, nil, "")
				})
			}
		}
	}
}

// TestStateStageNeverVerifies pins the one-stage rule on honest traffic:
// OnVerifiedMessage checks no signature for proposals and echoed proposals,
// and OnMessage checks exactly what Prevalidate alone does.
func TestStateStageNeverVerifies(t *testing.T) {
	ring := fixtureRing(t, true) // newFixture's
	build := func() (*fixture, *enginetest.CountingVerifier) {
		cv := &enginetest.CountingVerifier{Committee: ring}
		return doorFixture(t, true, observer.Config{Verifier: cv}), cv
	}
	splitFx, splitCalls := build()
	wholeFx, wholeCalls := build()
	b4, _ := splitFx.extend(3)
	b5, _ := splitFx.extend(3)
	msgs := []types.Message{
		splitFx.proposal(b4),
		&types.Echo{Inner: splitFx.proposal(b5), Relayer: 1},
	}
	for _, msg := range msgs {
		start := splitCalls.Calls
		if err := splitFx.obs.Prevalidate(0, msg); err != nil {
			t.Fatalf("%T rejected: %v", msg, err)
		}
		stateless := splitCalls.Calls - start
		if stateless == 0 {
			t.Errorf("%T: Prevalidate verified nothing", msg)
		}
		splitFx.obs.OnVerifiedMessage(0, 0, msg)
		if got := splitCalls.Calls - start - stateless; got != 0 {
			t.Errorf("%T: OnVerifiedMessage made %d signature checks", msg, got)
		}
		start = wholeCalls.Calls
		wholeFx.obs.OnMessage(0, 0, msg)
		if got := wholeCalls.Calls - start; got != stateless {
			t.Errorf("%T: OnMessage made %d signature checks, Prevalidate alone %d", msg, got, stateless)
		}
	}
	if a, b := fingerprint(splitFx.obs), fingerprint(wholeFx.obs); a != b || !splitFx.obs.Store().Has(b5.Height, b5.ID()) {
		t.Fatalf("doors diverged or traffic not absorbed: split %s, OnMessage %s", a, b)
	}
}

// TestOrphanHealsViaCatchUp: delivering a block whose parent is missing
// buffers it and emits a state-sync request; the response heals the gap and
// the buffered child flushes, with commits arriving in order.
func TestOrphanHealsViaCatchUp(t *testing.T) {
	f := newFixture(t, true, observer.Config{})

	// Build a served store with the full chain, as an upstream replica.
	served := blockstore.New()
	for i := 0; i < 5; i++ {
		b, justify := f.extend(3)
		if err := served.Insert(b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := served.RegisterQC(justify); err != nil {
			t.Fatal(err)
		}
	}
	// Register the tip QC so the served high-QC covers the whole chain.
	if _, _, err := served.RegisterQC(f.qcFor(f.chain[len(f.chain)-1], 3)); err != nil {
		t.Fatal(err)
	}

	// Deliver only the tip proposal: parent is missing.
	tip := f.chain[len(f.chain)-1]
	outs := f.deliver(f.proposal(tip))
	var req *types.StateSyncRequest
	for _, o := range outs {
		if o.Kind == engine.Send {
			if r, ok := o.Msg.(*types.StateSyncRequest); ok {
				req = r
			}
		}
	}
	if req == nil {
		t.Fatal("no catch-up request for orphaned tip")
	}

	resp := statesync.Serve(served, req, 0, 0)
	if resp == nil {
		t.Fatal("upstream served nothing")
	}
	outs = f.deliver(resp)
	if len(commits(outs)) == 0 {
		t.Fatal("catch-up produced no commits")
	}
	if !f.obs.Store().Has(tip.Height, tip.ID()) {
		t.Fatal("orphaned tip not flushed after catch-up")
	}
}

// TestRestartResumesWithoutGaps: a fresh observer instance (as after a
// crash) catching up via state sync reports the same committed chain the
// original saw — no gaps, no reordering.
func TestRestartResumesWithoutGaps(t *testing.T) {
	var firstRun []types.BlockID
	f := newFixture(t, true, observer.Config{})
	served := blockstore.New()
	for i := 0; i < 6; i++ {
		b, justify := f.extend(3)
		if err := served.Insert(b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := served.RegisterQC(justify); err != nil {
			t.Fatal(err)
		}
		for _, c := range commits(f.deliver(f.proposal(b))) {
			firstRun = append(firstRun, c.ID())
		}
	}
	if _, _, err := served.RegisterQC(f.qcFor(f.chain[len(f.chain)-1], 3)); err != nil {
		t.Fatal(err)
	}
	if len(firstRun) == 0 {
		t.Fatal("original observer committed nothing")
	}

	// "Restart": a brand-new engine with empty state syncs from scratch.
	ring := f.ring
	o2, err := observer.New(observer.Config{ID: 4, Verifier: ring})
	if err != nil {
		t.Fatal(err)
	}
	var second []types.BlockID
	req := statesync.NewRequest(0, 4)
	resp := statesync.Serve(served, req, 0, 0)
	for _, c := range commits(o2.OnMessage(0, 0, resp)) {
		second = append(second, c.ID())
	}
	if len(second) != len(firstRun) {
		t.Fatalf("restart commits %d blocks, original %d", len(second), len(firstRun))
	}
	for i := range second {
		if second[i] != firstRun[i] {
			t.Fatalf("commit %d diverges after restart", i)
		}
	}
}

// TestOutputLifetime: the output-slice contract (engine.Engine). The proposal
// that closes the first 3-chain (a commit and its strength rise), then a sync
// timer firing on a tip that moved (the re-armed timer alone).
func TestOutputLifetime(t *testing.T) {
	build := func() (*fixture, []*types.Block) {
		f := newFixture(t, true, observer.Config{})
		var blocks []*types.Block
		for i := 0; i < 4; i++ {
			b, _ := f.extend(3)
			blocks = append(blocks, b)
		}
		for _, b := range blocks[:3] {
			f.deliver(f.proposal(b))
		}
		return f, blocks
	}
	a, blocks := build()
	b, _ := build()
	enginetest.CheckOutputLifetime(t, a.obs, b.obs,
		func(e engine.Engine) []engine.Output { return e.OnMessage(0, 0, a.proposal(blocks[3])) },
		func(e engine.Engine) []engine.Output { return e.OnTimer(0, 9001) }, // the sync timer,
		a.proposal(blocks[3]))
}

// TestNewRejects: the observer runs on the replica chassis, which needs a
// verifier whose committee has n = 3f+1.
func TestNewRejects(t *testing.T) {
	ring := fixtureRing(t, false)
	five, err := crypto.NewKeyRing(5, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  observer.Config
	}{
		{"no verifier", observer.Config{ID: 4}},
		{"n=5 is not 3f+1", observer.Config{ID: 5, Verifier: five}},
		{"empty committee", observer.Config{ID: 4, Verifier: &crypto.KeyRing{}}},
	} {
		if _, err := observer.New(tc.cfg); err == nil {
			t.Errorf("%s: built", tc.name)
		}
	}
	if _, err := observer.New(observer.Config{ID: 4, Verifier: ring}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestForkCertifiedTwiceCommitsOnce: a parent certified by two children — one
// arriving by proposal, the other by a state-sync segment that carries a
// second, larger certificate for it — reaches OnCertified once. The
// segment's branch does not extend the committed chain, so it yields no
// Commit and no Strength, even though forged quorums (more than f faults)
// close a 3-chain on it and the tracker rates its first block.
func TestForkCertifiedTwiceCommitsOnce(t *testing.T) {
	certified := map[types.BlockID]int{}
	f := newFixture(t, true, observer.Config{
		OnCertified: func(b *types.Block, qc *types.QC) { certified[b.ID()]++ },
	})
	var main []*types.Block
	for i := 0; i < 7; i++ {
		b, _ := f.extend(3)
		main = append(main, b)
		f.deliver(f.proposal(b))
	}
	parent := main[2] // certified by main[3]'s justify, a proposal
	if f.obs.CommittedHeight() <= parent.Height {
		t.Fatalf("fixture: committed height %d, want above the fork parent's %d", f.obs.CommittedHeight(), parent.Height)
	}

	var fork []*types.Block
	justify, prev := f.qcFor(parent, 4), parent
	for r := types.Round(20); r < 24; r++ {
		c := types.NewBlock(prev.ID(), justify, r, prev.Height+1, 1, 0, types.Payload{}, nil)
		fork = append(fork, c)
		justify, prev = f.qcFor(c, 3), c
	}
	outs := f.deliver(&types.StateSyncResponse{Blocks: fork, HighQC: justify, Sender: 1})
	if !f.obs.Store().Has(fork[len(fork)-1].Height, fork[len(fork)-1].ID()) {
		t.Fatal("fork segment not installed")
	}
	if n := certified[parent.ID()]; n != 1 {
		t.Fatalf("fork parent reported certified %d times, want once", n)
	}
	if f.obs.Tracker().Strength(fork[0]) < 1 {
		t.Fatal("the fork's first block never rose; the checks below would be vacuous")
	}
	rated := strengths(outs)
	for _, c := range fork {
		for _, b := range commits(outs) {
			if b.ID() == c.ID() {
				t.Fatalf("committed %v, which does not extend the committed chain", b)
			}
		}
		if x, ok := rated[c.ID()]; ok {
			t.Fatalf("reported strength %d for %v, which was never committed", x, c)
		}
	}
}

// TestWrongHeightIsUnknown: a proposal whose parent is stored, but at a
// height other than the one below the proposal's, is held as an orphan and
// the observer asks for the chain, through either door: the store finds a
// block only at its own height.
func TestWrongHeightIsUnknown(t *testing.T) {
	for _, verify := range []bool{true, false} {
		for _, split := range []bool{false, true} {
			t.Run(fmt.Sprintf("verify=%v/split=%v", verify, split), func(t *testing.T) {
				f := doorFixture(t, verify, observer.Config{})
				tip := f.chain[len(f.chain)-1]
				justify := f.qcAt(tip, tip.Height+4)
				p := f.proposal(types.NewBlock(tip.ID(), justify, tip.Round+1, tip.Height+5, 0, 0, types.Payload{}, nil))
				var outs []engine.Output
				if split {
					if err := f.obs.Prevalidate(0, p); err != nil {
						t.Fatalf("the door refused the proposal: %v", err)
					}
					outs = f.obs.OnVerifiedMessage(0, 0, p)
				} else {
					outs = f.deliver(p)
				}
				if got := f.obs.Parked(); got != 1 {
					t.Errorf("%d proposals held, want 1", got)
				}
				asked := false
				for _, out := range outs {
					if out.Kind == engine.Send {
						_, asked = out.Msg.(*types.StateSyncRequest)
					}
				}
				if !asked || f.obs.Store().Len() != 4 {
					t.Errorf("asked for the chain %v, store holds %d blocks (want 4)", asked, f.obs.Store().Len())
				}
			})
		}
	}
}
