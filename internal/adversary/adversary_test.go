package adversary_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/types"
)

// stubEngine replays scripted outputs, one batch per event, so behaviors can
// be unit-tested without a full consensus engine. Like the real engines it
// hands every batch out of one array, zeroed and refilled by the next event.
type stubEngine struct {
	id      types.ReplicaID
	scripts [][]engine.Output
	step    int
	outs    []engine.Output
}

func (s *stubEngine) ID() types.ReplicaID { return s.id }

func (s *stubEngine) next() []engine.Output {
	clear(s.outs)
	s.outs = s.outs[:0]
	if s.step < len(s.scripts) {
		s.outs = append(s.outs, s.scripts[s.step]...)
		s.step++
	}
	return s.outs
}

func (s *stubEngine) Init(now time.Duration) []engine.Output { return s.next() }
func (s *stubEngine) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return s.next()
}
func (s *stubEngine) Prevalidate(types.ReplicaID, types.Message) error { return nil }
func (s *stubEngine) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return s.OnMessage(now, from, msg)
}
func (s *stubEngine) OnTimer(now time.Duration, id int) []engine.Output { return s.next() }

func testRing(t *testing.T, n int) *crypto.KeyRing {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 11, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

func wrap(t *testing.T, inner engine.Engine, id types.ReplicaID, specs ...adversary.Spec) engine.Engine {
	t.Helper()
	ring := testRing(t, 4)
	eng, err := adversary.Wrap(inner, adversary.Config{
		ID: id, N: 4, Signer: ring.Signer(id), Seed: 99,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func proposal(t *testing.T, ring *crypto.KeyRing, proposer types.ReplicaID, round types.Round) *types.Proposal {
	t.Helper()
	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), round, 1, proposer, 0, types.Payload{}, nil)
	p := &types.Proposal{Block: b, Round: round, Sender: proposer}
	p.Signature = ring.Signer(proposer).Sign(p.SigningPayload())
	return p
}

func vote(ring *crypto.KeyRing, voter types.ReplicaID, b *types.Block) types.Vote {
	v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter, Marker: 3}
	v.Signature = ring.Signer(voter).Sign(v.SigningPayload())
	return v
}

// TestWrapEmptyChainReturnsInner: honest replicas never pay for the
// subsystem — the empty spec list is the engine itself, not a wrapper.
func TestWrapEmptyChainReturnsInner(t *testing.T) {
	inner := &stubEngine{id: 1}
	eng := wrap(t, inner, 1)
	if eng != engine.Engine(inner) {
		t.Fatal("empty behavior chain wrapped the engine")
	}
}

// TestWithholdDropsOwnVotes: vote outputs vanish, everything else passes.
func TestWithholdDropsOwnVotes(t *testing.T) {
	ring := testRing(t, 4)
	p := proposal(t, ring, 1, 1)
	v := vote(ring, 1, p.Block)
	inner := &stubEngine{id: 1, scripts: [][]engine.Output{{
		engine.Output{Kind: engine.Send, To: 2, Msg: &types.VoteMsg{Vote: v}},
		engine.Output{Kind: engine.Broadcast, Msg: p, SelfDeliver: true},
		engine.Output{Kind: engine.SetTimer, Timer: 7, Delay: time.Second},
	}}}
	outs := wrap(t, inner, 1, adversary.Spec{Kind: adversary.Withhold}).Init(0)
	for _, out := range outs {
		if out.Kind == engine.Send {
			if _, isVote := out.Msg.(*types.VoteMsg); isVote {
				t.Fatal("withheld vote was sent")
			}
		}
	}
	if len(outs) != 2 {
		t.Fatalf("expected proposal + timer to survive, got %d outputs", len(outs))
	}
}

// TestOutputLifetime: the output-slice contract (engine.Engine) through the
// wrapper, over an inner engine that reuses its own array: a vote withheld
// from between a proposal and a timer, then a timer alone.
func TestOutputLifetime(t *testing.T) {
	ring := testRing(t, 4)
	p := proposal(t, ring, 1, 1)
	build := func() engine.Engine {
		inner := &stubEngine{id: 1, scripts: [][]engine.Output{{
			engine.Output{Kind: engine.Broadcast, Msg: p, SelfDeliver: true},
			engine.Output{Kind: engine.Send, To: 2, Msg: &types.VoteMsg{Vote: vote(ring, 1, p.Block)}},
			engine.Output{Kind: engine.SetTimer, Timer: 7, Delay: time.Second},
		}, {
			engine.Output{Kind: engine.SetTimer, Timer: 8, Delay: time.Second},
		}}}
		return wrap(t, inner, 1, adversary.Spec{Kind: adversary.Withhold})
	}
	enginetest.CheckOutputLifetime(t, build(), build(),
		func(e engine.Engine) []engine.Output { return e.OnMessage(0, 0, p) },
		func(e engine.Engine) []engine.Output { return e.OnTimer(0, 7) },
		p)
}

// TestEquivocateSplitsOwnProposal: the broadcast becomes per-replica sends,
// both fork halves eventually see both blocks, and the fabricated sibling
// carries a valid signature.
func TestEquivocateSplitsOwnProposal(t *testing.T) {
	ring := testRing(t, 4)
	p := proposal(t, ring, 1, 5)
	inner := &stubEngine{id: 1, scripts: [][]engine.Output{{
		engine.Output{Kind: engine.Broadcast, Msg: p, SelfDeliver: true},
	}}}
	outs := wrap(t, inner, 1, adversary.Spec{Kind: adversary.Equivocate}).Init(0)

	blocks := make(map[types.ReplicaID]map[types.BlockID]bool)
	timers := 0
	for _, out := range outs {
		switch out.Kind {
		case engine.Send:
			prop, ok := out.Msg.(*types.Proposal)
			if !ok {
				t.Fatalf("unexpected message %T", out.Msg)
			}
			if !ring.Verify(1, prop.SigningPayload(), prop.Signature) {
				t.Fatal("equivocated proposal not properly signed")
			}
			if blocks[out.To] == nil {
				blocks[out.To] = make(map[types.BlockID]bool)
			}
			blocks[out.To][prop.Block.ID()] = true
		case engine.SetTimer:
			if out.Timer >= 0 {
				t.Fatalf("behavior timer collides with engine space: %d", out.Timer)
			}
			timers++
		case engine.Broadcast:
			t.Fatal("equivocation left the original broadcast intact")
		}
	}
	if timers == 0 {
		t.Fatal("no delayed crossover copies were scheduled")
	}
	if len(blocks[1]) != 1 {
		t.Fatalf("self-delivery must carry exactly the honest block, got %d", len(blocks[1]))
	}
}

// TestCorruptSigsRewritesCopies: the signature flip must happen on a copy —
// engines retain references to the messages they emitted.
func TestCorruptSigsRewritesCopies(t *testing.T) {
	ring := testRing(t, 4)
	p := proposal(t, ring, 1, 2)
	orig := append([]byte(nil), p.Signature...)
	inner := &stubEngine{id: 1, scripts: [][]engine.Output{{
		engine.Output{Kind: engine.Broadcast, Msg: p},
	}}}
	outs := wrap(t, inner, 1, adversary.Spec{Kind: adversary.CorruptSigs, Every: 1}).Init(0)
	if len(outs) != 1 {
		t.Fatalf("got %d outputs", len(outs))
	}
	if outs[0].Kind != engine.Broadcast {
		t.Fatalf("got %+v, want the broadcast", outs[0])
	}
	sent := outs[0].Msg.(*types.Proposal)
	if sent == p {
		t.Fatal("corruption mutated the engine's own message")
	}
	if ring.Verify(1, sent.SigningPayload(), sent.Signature) {
		t.Fatal("corrupted signature still verifies")
	}
	if !reflect.DeepEqual(p.Signature, orig) {
		t.Fatal("original signature bytes were mutated")
	}
}

// TestDoubleVoteSignsCompetitor: after observing a competing proposal for a
// voted round, a conflicting vote is emitted with a valid signature.
func TestDoubleVoteSignsCompetitor(t *testing.T) {
	ring := testRing(t, 4)
	mine := proposal(t, ring, 1, 3)
	other := proposal(t, ring, 2, 3) // same round, different block
	other.Block = types.NewBlock(mine.Block.Parent, mine.Block.Justify, 3, 1, 2, 1, types.Payload{}, nil)
	v := vote(ring, 1, mine.Block)
	inner := &stubEngine{id: 1, scripts: [][]engine.Output{
		{engine.Output{Kind: engine.Send, To: 3, Msg: &types.VoteMsg{Vote: v}}}, // event 1: own vote
		nil, // event 2: competitor arrives, engine silent
	}}
	eng := wrap(t, inner, 1, adversary.Spec{Kind: adversary.DoubleVote})
	_ = eng.Init(0)
	outs := eng.OnMessage(0, 2, other)

	found := false
	for _, out := range outs {
		vm, ok := out.Msg.(*types.VoteMsg)
		if out.Kind != engine.Send || !ok {
			continue
		}
		if vm.Vote.Block != other.Block.ID() || vm.Vote.Voter != 1 {
			t.Fatalf("unexpected double vote %+v", vm.Vote)
		}
		if !ring.Verify(1, vm.Vote.SigningPayload(), vm.Vote.Signature) {
			t.Fatal("double vote not properly signed")
		}
		if out.To != 3 {
			t.Fatalf("double vote routed to %d, want the original recipient 3", out.To)
		}
		found = true
	}
	if !found {
		t.Fatal("no conflicting vote emitted after the competitor arrived")
	}
}

// TestDelayedSendsFlushOnPrivateTimer: the delay behavior postpones
// transmissions via wrapper-owned negative timer IDs and replays them when
// the timer fires; engine timers pass through untouched.
func TestDelayedSendsFlushOnPrivateTimer(t *testing.T) {
	ring := testRing(t, 4)
	v := vote(ring, 1, proposal(t, ring, 1, 1).Block)
	inner := &stubEngine{id: 1, scripts: [][]engine.Output{{
		engine.Output{Kind: engine.Send, To: 2, Msg: &types.VoteMsg{Vote: v}},
	}}}
	eng := wrap(t, inner, 1, adversary.Spec{Kind: adversary.Delay, Delay: 5 * time.Millisecond})
	outs := eng.Init(0)
	if len(outs) != 1 {
		t.Fatalf("expected only the delay timer, got %v", outs)
	}
	timer := outs[0]
	if timer.Kind != engine.SetTimer || timer.Timer >= 0 {
		t.Fatalf("expected a private (negative) timer, got %v", outs[0])
	}
	if timer.Delay < 5*time.Millisecond {
		t.Fatalf("timer delay %v below configured delay", timer.Delay)
	}
	flushed := eng.OnTimer(timer.Delay, timer.Timer)
	if len(flushed) != 1 {
		t.Fatalf("flush produced %d outputs", len(flushed))
	}
	if s := flushed[0]; s.Kind != engine.Send || s.To != 2 || s.Delay != 0 {
		t.Fatalf("flushed output %v is not the delayed send", flushed[0])
	}
}

// TestDelayedTransmissionsCarryNoDelay: behaviors postpone a transmission by
// raising its Delay, and the wrapper turns that into a private timer, so no
// output it returns carries a Delay unless it is a timer; each private timer
// releases exactly the transmission it postponed, and engine timers and
// commits pass through as they came.
func TestDelayedTransmissionsCarryNoDelay(t *testing.T) {
	ring := testRing(t, 4)
	p := proposal(t, ring, 1, 1)
	scripts := [][]engine.Output{
		{{Kind: engine.Broadcast, Msg: p, SelfDeliver: true}, {Kind: engine.SetTimer, Timer: 7, Delay: time.Second}},
		{{Kind: engine.Send, To: 2, Msg: &types.VoteMsg{Vote: vote(ring, 1, p.Block)}}, {Kind: engine.Commit, Block: p.Block}},
	}
	eng := wrap(t, &stubEngine{id: 1, scripts: scripts}, 1,
		adversary.Spec{Kind: adversary.Delay, Delay: 5 * time.Millisecond, Jitter: time.Millisecond})
	check := func(outs []engine.Output) {
		t.Helper()
		for _, out := range outs {
			if out.Kind != engine.SetTimer && out.Delay != 0 {
				t.Fatalf("output %+v reaches the runtime with a Delay", out)
			}
		}
	}
	var postponed, kept, private []engine.Output
	for i, event := range []func() []engine.Output{
		func() []engine.Output { return eng.Init(0) },
		func() []engine.Output { return eng.OnMessage(0, 2, p) },
	} {
		outs := event()
		check(outs)
		for _, out := range scripts[i] {
			if out.Kind == engine.Send || out.Kind == engine.Broadcast {
				postponed = append(postponed, out)
			} else {
				kept = append(kept, out)
			}
		}
		for _, out := range outs {
			if out.Kind == engine.SetTimer && out.Timer < 0 {
				private = append(private, out)
			} else {
				kept = slices.DeleteFunc(kept, func(k engine.Output) bool { return k == out })
			}
		}
	}
	if len(kept) != 0 {
		t.Fatalf("engine outputs %+v did not pass through", kept)
	}
	if len(private) != len(postponed) {
		t.Fatalf("%d private timers for %d postponed transmissions", len(private), len(postponed))
	}
	for i, timer := range private {
		if timer.Delay < 5*time.Millisecond {
			t.Fatalf("private timer %+v below the configured delay", timer)
		}
		released := eng.OnTimer(timer.Delay, timer.Timer)
		check(released)
		if len(released) != 1 || released[0] != postponed[i] {
			t.Fatalf("timer %d released %+v, want %+v", timer.Timer, released, postponed[i])
		}
	}
}

// TestBehaviorDeterminism: identical configuration and event sequence must
// produce identical outputs — the property scenario replay depends on.
func TestBehaviorDeterminism(t *testing.T) {
	ring := testRing(t, 4)
	build := func() engine.Engine {
		p := proposal(t, ring, 1, 4)
		inner := &stubEngine{id: 1, scripts: [][]engine.Output{
			{engine.Output{Kind: engine.Broadcast, Msg: p, SelfDeliver: true}},
			{engine.Output{Kind: engine.Send, To: 2, Msg: &types.VoteMsg{Vote: vote(ring, 1, p.Block)}}},
		}}
		return wrap(t, inner, 1,
			adversary.Spec{Kind: adversary.Drop, P: 0.5},
			adversary.Spec{Kind: adversary.Duplicate, P: 0.5},
			adversary.Spec{Kind: adversary.Garbage, Every: 1},
		)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Init(0), b.Init(0)) {
		t.Fatal("first event diverged between identical wrappers")
	}
	if !reflect.DeepEqual(a.OnMessage(0, 2, proposal(t, ring, 2, 9)), b.OnMessage(0, 2, proposal(t, ring, 2, 9))) {
		t.Fatal("second event diverged between identical wrappers")
	}
}

// TestSpecStringsAreStable pins the replay-line rendering the fuzzer prints.
func TestSpecStringsAreStable(t *testing.T) {
	cases := map[string]adversary.Spec{
		"equivocate":            {Kind: adversary.Equivocate},
		"drop(p=0.25)":          {Kind: adversary.Drop, P: 0.25},
		"corrupt-sigs(every=3)": {Kind: adversary.CorruptSigs, Every: 3},
		"delay(d=2ms,j=1ms)":    {Kind: adversary.Delay, Delay: 2 * time.Millisecond, Jitter: time.Millisecond},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("spec %v rendered %q, want %q", spec.Kind, got, want)
		}
	}
	for _, kind := range adversary.Kinds {
		if _, err := (adversary.Spec{Kind: kind, Every: 2, P: 0.5, Delay: time.Millisecond}).Build(); err != nil {
			t.Errorf("catalog kind %q does not build: %v", kind, err)
		}
	}
}

// TestBehaviorsNeverEditInPlace runs every built-in behavior over honest
// traffic — proposals, votes, timeouts, sync answers and echoes, both sent by
// the wrapped engine and received from peers — and checks that each of those
// messages encodes to the same bytes afterwards, while the transmissions that
// leave the wrapper differ from the honest engine's (the behavior acted). A
// message is immutable once handed over (engine.Engine): other replicas of a
// process hold the same object, and a certificate's record of having passed a
// door is sound only while its content cannot change.
func TestBehaviorsNeverEditInPlace(t *testing.T) {
	ring := testRing(t, 4)
	const id = types.ReplicaID(1)
	p1, rival := proposal(t, ring, 0, 1), proposal(t, ring, 2, 1)
	cert := func(b *types.Block, voters ...types.ReplicaID) *types.QC {
		qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
		for _, v := range voters {
			qc.Votes = append(qc.Votes, vote(ring, v, b))
		}
		return qc
	}
	qc1 := cert(p1.Block, 0, 2, 3)
	b2 := types.NewBlock(p1.Block.ID(), qc1, 2, 2, id, 0, types.Payload{Txns: []types.Transaction{{Sender: 1, Seq: 1}}}, nil)
	p2 := &types.Proposal{Block: b2, Round: 2, Sender: id}
	p2.Signature = ring.Signer(id).Sign(p2.SigningPayload())
	timeout := func(sender types.ReplicaID) *types.Timeout {
		to := &types.Timeout{Round: 2, HighQC: qc1, HighRound: 1, Sender: sender}
		to.Signature = ring.Signer(sender).Sign(to.SigningPayload())
		return to
	}
	ownVote := vote(ring, id, p1.Block)
	ownVote.AppHash = [32]byte{7}
	ownVote.Signature = ring.Signer(id).Sign(ownVote.SigningPayload())
	outs := []engine.Output{
		{Kind: engine.Broadcast, Msg: p2, SelfDeliver: true},
		{Kind: engine.Send, To: 0, Msg: &types.VoteMsg{Vote: ownVote}},
		{Kind: engine.Broadcast, Msg: timeout(id)},
		{Kind: engine.Send, To: 0, Msg: &types.ExtraVote{Vote: vote(ring, id, b2), Leader: 0}},
		{Kind: engine.Send, To: 3, Msg: &types.StateSyncResponse{Blocks: []*types.Block{p1.Block, b2}, HighQC: qc1, Sender: id}},
		{Kind: engine.Broadcast, Msg: &types.Echo{Inner: p1, Relayer: id}},
		{Kind: engine.SetTimer, Timer: 7, Delay: time.Second},
	}
	inbound := []types.Message{p1, rival, &types.Echo{Inner: proposal(t, ring, 3, 2), Relayer: 3}, timeout(0), timeout(2),
		&types.StateSyncResponse{Blocks: []*types.Block{p1.Block}, HighQC: qc1, Sender: 2}}
	for _, v := range []types.ReplicaID{0, 2, 3} {
		inbound = append(inbound, &types.VoteMsg{Vote: vote(ring, v, p1.Block)}, &types.VoteMsg{Vote: vote(ring, v, rival.Block)})
	}
	msgs := slices.Clone(inbound)
	for _, out := range outs {
		if out.Msg != nil {
			msgs = append(msgs, out.Msg)
		}
	}
	encode := func(t *testing.T, msgs []types.Message) [][]byte {
		t.Helper()
		enc := make([][]byte, len(msgs))
		for i, m := range msgs {
			var err error
			if enc[i], err = types.AppendMessage(nil, m); err != nil {
				t.Fatal(err)
			}
		}
		return enc
	}
	want := encode(t, msgs)
	// run delivers the inbound traffic to eng, then fires every timer it set,
	// and returns everything it transmitted, in order, each encoding prefixed
	// by the number of the event that sent it.
	run := func(t *testing.T, eng engine.Engine) [][]byte {
		var sent [][]byte
		var timers []int
		events := byte(0)
		take := func(outs []engine.Output) {
			events++
			for _, out := range outs {
				switch out.Kind {
				case engine.Send, engine.Broadcast:
					sent = append(sent, append([]byte{events}, encode(t, []types.Message{out.Msg})[0]...))
				case engine.SetTimer:
					timers = append(timers, out.Timer)
				}
			}
		}
		take(eng.Init(0))
		for i, m := range inbound {
			take(eng.OnMessage(time.Duration(i+1)*time.Millisecond, types.ReplicaID(i%4), m))
		}
		for i := 0; i < len(timers); i++ {
			take(eng.OnTimer(time.Second, timers[i]))
		}
		return sent
	}
	engineFor := func() *stubEngine {
		scripts := make([][]engine.Output, 2*len(inbound))
		for i := range scripts {
			scripts[i] = outs
		}
		return &stubEngine{id: id, scripts: scripts}
	}
	honest := run(t, engineFor())
	for _, kind := range adversary.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			eng := wrap(t, engineFor(), id,
				adversary.Spec{Kind: kind, Every: 1, P: 0.5, Delay: time.Millisecond, Jitter: time.Millisecond})
			if slices.EqualFunc(run(t, eng), honest, bytes.Equal) {
				t.Fatal("the behavior did not act on this traffic")
			}
			for i, got := range encode(t, msgs) {
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("%v was edited in place", msgs[i])
				}
			}
		})
	}
}
