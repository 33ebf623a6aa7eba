package replica

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/types"
)

func testChassis(t testing.TB, n, f int) (*Chassis, *crypto.KeyRing) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: 0, N: n, Signer: ring.Signer(0), Verifier: ring, VerifySignatures: true}
	c, err := New(cfg, core.ModeRound, func(*types.Block, int) {}, func(*types.Proposal) {})
	if err != nil {
		t.Fatal(err)
	}
	return c, ring
}

// TestNewRejectsUnknownRule: a commit rule outside the four the paper
// compares is a construction error, not a silent fallback to one of them.
func TestNewRejectsUnknownRule(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []Rule{-1, RuleNaive + 1} {
		cfg := Config{ID: 0, N: 4, Signer: ring.Signer(0), Verifier: ring, Rule: rule}
		if _, err := New(cfg, core.ModeRound, nil, nil); err == nil {
			t.Errorf("rule %v: built", rule)
		}
	}
}

// TestRestoreFailsOnForeignLog: a replayed block the store refuses for
// anything but a missing parent fails the restart instead of being dropped.
func TestRestoreFailsOnForeignLog(t *testing.T) {
	c, _ := testChassis(t, 4, 1)
	g := c.Store().Genesis()
	b1 := childOf(g, types.NewGenesisQC(g.ID()), 1)
	badRound := childOf(b1, types.NewGenesisQC(g.ID()), 1)
	rec := &core.Recovery{Blocks: []*types.Block{b1, badRound}}
	if err := c.Restore(rec, func(*types.Block) {}, func(*types.QC) {}); err == nil {
		t.Fatal("restored a log with a block at its parent's round")
	}
}

func signedVote(ring *crypto.KeyRing, b *types.Block, voter types.ReplicaID) types.Vote {
	v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter}
	v.Signature = ring.Signer(voter).Sign(v.SigningPayload())
	return v
}

func childOf(parent *types.Block, qc *types.QC, round types.Round) *types.Block {
	return types.NewBlock(parent.ID(), qc, round, parent.Height+1, 0, 0, types.Payload{}, nil)
}

// TestAllocsAddVote pins the vote path: crediting a vote to a block that
// already has a vote set allocates nothing (amortized; the set's dense slice
// and bitmap grow geometrically).
func TestAllocsAddVote(t *testing.T) {
	const n = 1021 // 3f+1
	c, ring := testChassis(t, n, 340)
	g := c.Store().Genesis()
	b := childOf(g, types.NewGenesisQC(g.ID()), 1)
	if !c.AcceptBlock(b) {
		t.Fatal("block refused")
	}
	votes := make([]types.Vote, n)
	for i := range votes {
		votes[i] = signedVote(ring, b, types.ReplicaID(i))
	}
	c.Begin(0)
	if !c.AddVote(votes[0]) {
		t.Fatal("first vote refused")
	}
	next := 1
	if a := testing.AllocsPerRun(n-2, func() {
		if !c.AddVote(votes[next]) {
			t.Fatal("vote refused")
		}
		next++
	}); a != 0 {
		t.Fatalf("AddVote to an existing set: %v allocs/op, want 0", a)
	}
	if c.AddVote(votes[1]) {
		t.Fatal("duplicate vote credited")
	}
}

// TestAllocsEventBracket pins the per-event overhead of the chassis itself:
// Begin and Take with no journal attached allocate nothing, with no outputs
// and — once an earlier event has grown the array — with eight of them.
func TestAllocsEventBracket(t *testing.T) {
	c, _ := testChassis(t, 4, 1)
	if a := testing.AllocsPerRun(1000, func() {
		c.Begin(0)
		if outs := c.Take(); len(outs) != 0 {
			t.Fatal("outputs out of an empty event")
		}
	}); a != 0 {
		t.Fatalf("Begin/Take: %v allocs/op, want 0", a)
	}
	g := c.Store().Genesis()
	if a := testing.AllocsPerRun(1000, func() {
		c.Begin(0)
		for i := 0; i < 8; i++ {
			c.Outs = append(c.Outs, engine.Commit{Block: g}) // pointer-shaped: no boxing
		}
		if outs := c.Take(); len(outs) != 8 {
			t.Fatalf("%d outputs out of an event that made 8", len(outs))
		}
	}); a != 0 {
		t.Fatalf("Begin/8 outputs/Take: %v allocs/op, want 0", a)
	}
}

// TestCertify: a quorum of votes becomes a certificate in ascending voter
// order; no certificate forms below quorum or from a repeated voter.
func TestCertify(t *testing.T) {
	c, ring := testChassis(t, 4, 1)
	g := c.Store().Genesis()
	b := childOf(g, types.NewGenesisQC(g.ID()), 1)
	c.AcceptBlock(b)
	c.Begin(0)
	for _, voter := range []types.ReplicaID{3, 1} {
		c.AddVote(signedVote(ring, b, voter))
	}
	if qc := c.Certify(b); qc != nil {
		t.Fatalf("certificate from %d votes", len(qc.Votes))
	}
	if c.AddVote(signedVote(ring, b, 1)) {
		t.Fatal("credited a voter twice")
	}
	if qc := c.Certify(b); qc != nil {
		t.Fatalf("certificate from %d distinct voters", len(qc.Votes))
	}
	relabelled := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height + 3, Voter: 0}
	relabelled.Signature = ring.Signer(0).Sign(relabelled.SigningPayload())
	if !c.AddVote(relabelled) { // buffered: the set is keyed by ID alone
		t.Fatal("a vote naming the block at another height was not buffered")
	}
	if qc := c.Certify(b); qc != nil {
		t.Fatalf("certificate counting a vote at another height: %d votes", len(qc.Votes))
	}
	c, ring = testChassis(t, 4, 1)
	c.AcceptBlock(b)
	for _, voter := range []types.ReplicaID{3, 1, 0} {
		c.AddVote(signedVote(ring, b, voter))
	}
	qc := c.Certify(b)
	if qc == nil {
		t.Fatal("no certificate from a quorum")
	}
	if err := qc.CheckStructure(3); err != nil {
		t.Fatal(err)
	}
	for i, want := range []types.ReplicaID{0, 1, 3} {
		if qc.Votes[i].Voter != want {
			t.Fatalf("vote %d from %d, want ascending order", i, qc.Votes[i].Voter)
		}
	}
}

// TestOrphansBounded: the buffer never holds more than maxOrphans proposals,
// evicts the longest-waiting parent first, and hands back what it kept.
func TestOrphansBounded(t *testing.T) {
	var o orphans
	mk := func(i int, parent types.BlockID) *types.Proposal {
		b := types.NewBlock(parent, types.NewGenesisQC(parent), 1, 1, 0, int64(i), types.Payload{}, nil)
		return &types.Proposal{Block: b, Round: 1}
	}
	parentOf := func(i int) types.BlockID { return types.BlockID{byte(i), byte(i >> 8), byte(i >> 16), 1} }
	for i := 0; i < 10000; i++ {
		if first := o.add(mk(i, parentOf(i))); !first {
			t.Fatalf("proposal %d: not reported as the first waiting on its parent", i)
		}
		if o.n > maxOrphans {
			t.Fatalf("buffer holds %d proposals, bound is %d", o.n, maxOrphans)
		}
	}
	if got := o.take(parentOf(0)); got != nil {
		t.Fatal("oldest parent survived 10,000 newer ones")
	}
	if got := o.take(parentOf(9999)); len(got) != 1 {
		t.Fatalf("newest parent: %d proposals, want 1", len(got))
	}
	// One parent, many children: the bound counts proposals, not parents.
	var same orphans
	for i := 0; i < 3*maxOrphans; i++ {
		same.add(mk(i, parentOf(7)))
		if same.n > maxOrphans {
			t.Fatalf("single-parent spray holds %d proposals", same.n)
		}
	}
	if o.add(mk(1, parentOf(9500))) || len(o.take(parentOf(9500))) != 2 || o.take(parentOf(9500)) != nil {
		t.Fatal("second orphan on a waiting parent must not read as first, and take must drain")
	}
}

func TestUnwrapEchoDepth(t *testing.T) {
	base := &types.VoteMsg{}
	var msg types.Message = base
	for depth := 0; depth <= maxEchoDepth+1; depth++ {
		got := UnwrapEcho(msg)
		if depth <= maxEchoDepth && got != types.Message(base) {
			t.Fatalf("%d wrappers: got %T, want the base message", depth, got)
		}
		if depth > maxEchoDepth && got != nil {
			t.Fatalf("%d wrappers unwrapped past the cap", depth)
		}
		msg = &types.Echo{Inner: msg}
	}
	if UnwrapEcho(&types.Echo{}) != nil {
		t.Fatal("empty echo must unwrap to nil")
	}
}

// TestCountedFailures: a rejected sync segment is counted, not dropped, and
// the three tolerated-failure families are exported from the start.
func TestCountedFailures(t *testing.T) {
	sink := obs.New(obs.Options{N: 4})
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{N: 4, Verifier: ring, Obs: sink}, core.ModeRound, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.ApplySegment(&types.StateSyncResponse{Blocks: []*types.Block{nil}}, nil); n != 0 {
		t.Fatalf("installed %d blocks from a malformed segment", n)
	}
	var text strings.Builder
	if err := sink.Registry().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sft_sync_segments_rejected_total 1",
		"sft_app_execute_failed_total 0",
		"sft_qc_aggregate_failed_total 0",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// committedChain drives a chassis through the bookkeeping of a forkless run
// of n blocks — accept, certify into the store and the tracker, vote — and
// commits all of them, so that every PruneBelow step after it has one block's
// worth of state to drop from each structure.
func committedChain(t testing.TB, n int) *Chassis {
	c, chain := certifiedChain(t, n)
	c.CommitTo(chain[n-1])
	c.Take()
	return c
}

// certifiedChain is committedChain before the commit: the event is still open.
func certifiedChain(t testing.TB, n int) (*Chassis, []*types.Block) {
	c, _ := testChassis(t, 4, 1)
	c.Begin(0)
	chain := make([]*types.Block, 0, n)
	parent, qc := c.Store().Genesis(), c.Store().HighQC()
	for i := 1; i <= n; i++ {
		b := childOf(parent, qc, types.Round(i))
		if !c.AcceptBlock(b) {
			t.Fatalf("block %d refused", i)
		}
		qc = &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
		for v := types.ReplicaID(0); v < 3; v++ {
			qc.Votes = append(qc.Votes, types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: v})
		}
		if _, _, err := c.Store().RegisterQC(qc); err != nil {
			t.Fatal(err)
		}
		c.Tracker().OnQC(qc)
		c.History().Marker(b)
		c.History().RecordVote(b)
		chain, parent = append(chain, b), b
	}
	return c, chain
}

// TestAllocsPruneStep: one cut's worth of pruning — store, tracker, vote
// sets, history, committed tail — allocates nothing.
func TestAllocsPruneStep(t *testing.T) {
	const keep, runs = 512, 1000
	c := committedChain(t, keep+runs) // AllocsPerRun makes runs+1 calls
	cut := types.Height(0)
	if a := testing.AllocsPerRun(runs, func() {
		cut++
		if removed, floor := c.PruneBelow(cut); len(removed) != 1 || floor != types.Round(cut) {
			t.Fatalf("cut %d removed %d blocks, floor %d", cut, len(removed), floor)
		}
	}); a != 0 {
		t.Fatalf("PruneBelow step: %v allocs/op, want 0", a)
	}
	if got := c.Store().Len(); got != keep {
		t.Fatalf("store holds %d blocks after %d cuts, want %d", got, cut, keep)
	}
	if got := c.History().Len(); got != keep {
		t.Fatalf("history holds %d votes, want %d", got, keep)
	}
}

// TestAllocsCommitTo: once the committed tail has its pruned length, an
// event that commits the next block and cuts one height allocates nothing:
// CommitTo walks the chain by node into a buffer the chassis reuses.
func TestAllocsCommitTo(t *testing.T) {
	const keep, runs = 64, 1000
	c, chain := certifiedChain(t, 2*keep+runs+1) // AllocsPerRun makes runs+1 calls
	next := 0
	step := func() {
		c.Begin(0)
		c.CommitTo(chain[next])
		if next >= keep {
			c.PruneBelow(chain[next-keep].Height)
		}
		c.Take()
		next++
	}
	for next < 2*keep {
		step()
	}
	if a := testing.AllocsPerRun(runs, step); a != 0 {
		t.Fatalf("commit step: %v allocs/op, want 0", a)
	}
	if got, want := c.CommittedHeight(), chain[next-1].Height; got != want {
		t.Fatalf("committed height %d, want %d", got, want)
	}
}

// BenchmarkPruneStep is one cut at three kept-window sizes. The cost follows
// the block removed, so the three must read the same.
func BenchmarkPruneStep(b *testing.B) {
	for _, keep := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("keep=%d", keep), func(b *testing.B) {
			const batch = 8192
			b.ReportAllocs()
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				steps := min(batch, b.N-done)
				c := committedChain(b, keep+steps)
				b.StartTimer()
				for cut := 1; cut <= steps; cut++ {
					c.PruneBelow(types.Height(cut))
				}
			}
		})
	}
}

// TestPruneWithoutAnchorForgetsNothing pins the case where the committed
// chain has no block at the cut (the last committed block is not in the
// store, as after restoring a log that lost it): nothing is removed, so
// nothing is forgotten — not the tracker's entries below the cut either,
// which used to go regardless.
func TestPruneWithoutAnchorForgetsNothing(t *testing.T) {
	c := committedChain(t, 10)
	c.lastCommitted = types.BlockID{0xee}
	c.committed.Reset()
	high := c.Store().HighQC()
	low := c.Store().Node(high.Height, high.Block).Ancestor(2).Block()
	before := c.Tracker().Endorsers(low)
	if removed, floor := c.PruneBelow(5); removed != nil || floor != 0 {
		t.Fatalf("removed %d blocks, floor %d; want nothing", len(removed), floor)
	}
	if c.Store().PrunedHeight() != 0 || c.Store().Len() != 11 || c.History().Len() != 10 {
		t.Fatalf("pruned height %d, %d blocks, %d votes; want all kept",
			c.Store().PrunedHeight(), c.Store().Len(), c.History().Len())
	}
	if got := c.Tracker().Endorsers(low); got != before || got == 0 {
		t.Fatalf("endorsers of a kept block below the cut: %d, had %d", got, before)
	}
}
