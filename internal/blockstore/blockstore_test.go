package blockstore_test

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/types"
)

// chainBuilder makes hand-built trees terse: mk(parent, round) inserts a
// block at parent.Height+1.
type chainBuilder struct {
	t     *testing.T
	s     *blockstore.Store
	count uint32
}

func newBuilder(t *testing.T) *chainBuilder {
	return &chainBuilder{t: t, s: blockstore.New()}
}

func (cb *chainBuilder) mk(parent *types.Block, round types.Round) *types.Block {
	cb.t.Helper()
	cb.count++
	b := types.NewBlock(parent.ID(), types.NewGenesisQC(parent.ID()), round, parent.Height+1, 0,
		int64(cb.count), types.Payload{Txns: []types.Transaction{{Sender: cb.count}}}, nil)
	if err := cb.s.Insert(b); err != nil {
		cb.t.Fatalf("insert round %d: %v", round, err)
	}
	return b
}

func (cb *chainBuilder) qc(b *types.Block, voters ...types.ReplicaID) *types.QC {
	cb.t.Helper()
	votes := make([]types.Vote, len(voters))
	for i, v := range voters {
		votes[i] = types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: v}
	}
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
	if _, _, err := cb.s.RegisterQC(qc); err != nil {
		cb.t.Fatalf("register qc: %v", err)
	}
	return qc
}

func TestInsertValidation(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	b1 := cb.mk(g, 1)

	// Missing parent.
	orphan := types.NewBlock(types.BlockID{9}, types.NewGenesisQC(types.BlockID{9}), 5, 5, 0, 0, types.Payload{}, nil)
	if err := cb.s.Insert(orphan); !errors.Is(err, blockstore.ErrMissingParent) {
		t.Errorf("want ErrMissingParent, got %v", err)
	}
	// Wrong height.
	badH := types.NewBlock(b1.ID(), types.NewGenesisQC(b1.ID()), 2, 5, 0, 0, types.Payload{}, nil)
	if err := cb.s.Insert(badH); !errors.Is(err, blockstore.ErrBadHeight) {
		t.Errorf("want ErrBadHeight, got %v", err)
	}
	// Non-increasing round.
	badR := types.NewBlock(b1.ID(), types.NewGenesisQC(b1.ID()), 1, 2, 0, 0, types.Payload{}, nil)
	if err := cb.s.Insert(badR); !errors.Is(err, blockstore.ErrBadRound) {
		t.Errorf("want ErrBadRound, got %v", err)
	}
	// Duplicate insert is a no-op.
	if err := cb.s.Insert(b1); err != nil {
		t.Errorf("duplicate insert: %v", err)
	}
	if cb.s.Len() != 2 { // genesis + b1
		t.Errorf("store len = %d, want 2", cb.s.Len())
	}
}

func TestAncestryAndConflicts(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	//      g - a1 - a2 - a3
	//        \ b1 - b2
	a1 := cb.mk(g, 1)
	a2 := cb.mk(a1, 2)
	a3 := cb.mk(a2, 3)
	b1 := cb.mk(g, 2) // sibling branch
	b2 := cb.mk(b1, 4)

	if !cb.s.IsAncestor(g.ID(), a3.ID()) || !cb.s.IsAncestor(a1.ID(), a3.ID()) {
		t.Error("ancestor chain broken")
	}
	if !cb.s.IsAncestor(a3.ID(), a3.ID()) {
		t.Error("a block extends itself")
	}
	if cb.s.IsAncestor(a3.ID(), a1.ID()) {
		t.Error("descendant is not an ancestor")
	}
	if cb.s.Conflicts(a1.ID(), a3.ID()) {
		t.Error("same-branch blocks should not conflict")
	}
	if !cb.s.Conflicts(a2.ID(), b2.ID()) || !cb.s.Conflicts(a1.ID(), b1.ID()) {
		t.Error("cross-branch blocks must conflict")
	}
	if cb.s.Conflicts(a1.ID(), a1.ID()) {
		t.Error("a block does not conflict itself")
	}

	if ca := cb.s.CommonAncestor(a3.ID(), b2.ID()); ca == nil || ca.ID() != g.ID() {
		t.Errorf("common ancestor = %v, want genesis", ca)
	}
	if ca := cb.s.CommonAncestor(a1.ID(), a3.ID()); ca == nil || ca.ID() != a1.ID() {
		t.Errorf("common ancestor on same branch = %v, want a1", ca)
	}
}

func TestChainBetweenAndWalk(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	a1 := cb.mk(g, 1)
	a2 := cb.mk(a1, 2)
	a3 := cb.mk(a2, 3)

	chain := cb.s.ChainBetween(g.ID(), a3.ID())
	if len(chain) != 3 || chain[0].ID() != a1.ID() || chain[2].ID() != a3.ID() {
		t.Fatalf("chain between genesis and a3 wrong: %v", chain)
	}
	if cb.s.ChainBetween(a3.ID(), a1.ID()) != nil {
		t.Error("reverse chain must be nil")
	}

	var seen []types.Round
	cb.s.WalkAncestors(a3.ID(), func(b *types.Block) bool {
		seen = append(seen, b.Round)
		return b.Round != 1
	})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 1 {
		t.Errorf("walk order wrong: %v", seen)
	}

	if b := cb.s.AncestorAtHeight(a3.ID(), 1); b == nil || b.ID() != a1.ID() {
		t.Error("AncestorAtHeight(1) wrong")
	}
	if cb.s.AncestorAtHeight(a3.ID(), 9) != nil {
		t.Error("AncestorAtHeight above block must be nil")
	}
}

func TestQCRegistration(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	a1 := cb.mk(g, 1)
	a2 := cb.mk(a1, 2)

	if cb.s.IsCertified(a1.ID()) {
		t.Error("uncertified block reported certified")
	}
	cb.qc(a1, 0, 1, 2)
	if !cb.s.IsCertified(a1.ID()) {
		t.Error("certified block not reported")
	}
	if cb.s.HighQC().Block != a1.ID() {
		t.Error("high QC not updated")
	}
	cb.qc(a2, 0, 1, 2)
	if cb.s.HighQC().Block != a2.ID() {
		t.Error("high QC should follow the higher round")
	}
	// A larger certificate for the same block replaces the smaller one.
	cb.qc(a1, 0, 1, 2, 3)
	if got := len(cb.s.QCFor(a1.ID()).Votes); got != 4 {
		t.Errorf("bigger QC not kept: %d votes", got)
	}
	// A smaller one does not.
	cb.qc(a1, 0, 1)
	if got := len(cb.s.QCFor(a1.ID()).Votes); got != 4 {
		t.Errorf("smaller QC replaced bigger: %d votes", got)
	}
	// Unknown block.
	if _, _, err := cb.s.RegisterQC(&types.QC{Block: types.BlockID{9}, Round: 9}); err == nil {
		t.Error("QC for unknown block accepted")
	}
}

func TestPruneBelow(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	// Main chain to height 6 plus a dead fork at height 2.
	cur := g
	var blocks []*types.Block
	for r := types.Round(1); r <= 6; r++ {
		cur = cb.mk(cur, r)
		blocks = append(blocks, cur)
	}
	fork := cb.mk(blocks[0], 7) // height 2, dead branch
	forkChild := cb.mk(fork, 8)

	// Heights 0..3 of the spine plus the two fork blocks, and nothing else.
	removed := cb.s.PruneBelow(4)
	if len(removed) != 6 {
		t.Fatalf("pruned %d blocks, want 6", len(removed))
	}
	for _, b := range removed {
		if b.Height >= 4 || cb.s.Has(b.ID()) {
			t.Errorf("removed list holds surviving block h%d", b.Height)
		}
	}
	// Everything below the cut is gone, spine included; the anchor at the
	// cut height and everything above survives.
	for _, b := range blocks {
		if b.Height < 4 && cb.s.Has(b.ID()) {
			t.Errorf("below-cut spine block h%d survived", b.Height)
		}
		if b.Height >= 4 && !cb.s.Has(b.ID()) {
			t.Errorf("above-cut spine block h%d pruned", b.Height)
		}
	}
	if cb.s.Has(fork.ID()) || cb.s.Has(forkChild.ID()) {
		t.Error("dead fork below cut survived")
	}
	// The surviving chain is still internally consistent.
	if !cb.s.IsAncestor(blocks[3].ID(), cur.ID()) {
		t.Error("anchor no longer an ancestor of the tip")
	}
	if cb.s.IsAncestor(g.ID(), cur.ID()) {
		t.Error("pruned genesis still counted as an ancestor")
	}
	if cb.s.PrunedHeight() != 4 {
		t.Errorf("pruned height = %d", cb.s.PrunedHeight())
	}
	// Chain operations above the cut still work.
	if chain := cb.s.ChainBetween(blocks[3].ID(), cur.ID()); len(chain) != 2 {
		t.Errorf("chain above cut has %d blocks", len(chain))
	}
}

// TestNodeHandle: the handle answers what the ID-keyed queries answer, and
// lists children in insertion order.
func TestNodeHandle(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	a1 := cb.mk(g, 1)
	kids := []*types.Block{cb.mk(a1, 2), cb.mk(a1, 3), cb.mk(a1, 4)}
	qc := cb.qc(a1, 0, 1, 2)

	n := cb.s.Node(a1.ID())
	if n == nil || n.Block() != a1 || n.QC() != qc || n.Parent() != cb.s.Node(g.ID()) || n.Parent().Parent() != nil {
		t.Fatalf("node of a1 = %+v", n)
	}
	if certified, _, _ := cb.s.RegisterQC(qc); certified != n {
		t.Error("RegisterQC did not return the certified block's node")
	}
	var got []*types.Block
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		got = append(got, c.Block())
	}
	if len(got) != 3 || got[0] != kids[0] || got[1] != kids[1] || got[2] != kids[2] {
		t.Errorf("children = %v, want %v", got, kids)
	}
	if cb.s.Node(types.BlockID{9}) != nil {
		t.Error("unknown block has a node")
	}
}

// TestPrunedNodeRetainsNothing: a handle taken before the prune that removes
// its block is left with the block and nothing else — no parent, child or
// sibling link, no record — so whoever still holds it keeps no other block
// alive and walks from it reach no stored node; the nodes at the cut lose
// their way down and keep everything else.
func TestPrunedNodeRetainsNothing(t *testing.T) {
	cb := newBuilder(t)
	spine := []*types.Block{cb.s.Genesis()}
	for r := types.Round(1); r <= 3; r++ {
		spine = append(spine, cb.mk(spine[len(spine)-1], r))
	}
	fork := cb.mk(spine[2], 4) // beside spine[3], at height 3
	stale := []*blockstore.Node{cb.s.Node(spine[2].ID()), cb.s.Node(spine[3].ID()), cb.s.Node(fork.ID())}
	for _, n := range stale {
		n.Record = "state"
	}
	if stale[1].NextSibling() != stale[2] || stale[0].FirstChild() != stale[1] {
		t.Fatal("the handles are not linked as built")
	}
	for r := types.Round(5); r <= 8; r++ {
		spine = append(spine, cb.mk(spine[len(spine)-1], r))
	}
	edge := cb.s.Node(spine[5].ID())
	edge.Record = "kept"
	cb.s.PruneBelow(5)
	for _, n := range stale {
		if n.Parent() != nil || n.FirstChild() != nil || n.NextSibling() != nil || n.Record != nil {
			t.Errorf("removed %v keeps parent %v, child %v, sibling %v, record %v",
				n.Block(), n.Parent(), n.FirstChild(), n.NextSibling(), n.Record)
		}
		if n.Block() == nil || cb.s.Node(n.Block().ID()) != nil {
			t.Errorf("removed node lost its block, or the store still knows %v", n.Block())
		}
	}
	if edge.Parent() != nil || edge.Record != "kept" || edge.FirstChild() != cb.s.Node(spine[6].ID()) {
		t.Errorf("node at the cut: parent %v, record %v, child %v", edge.Parent(), edge.Record, edge.FirstChild())
	}
	// A second prune reaches what the first kept.
	cb.s.PruneBelow(6)
	if edge.FirstChild() != nil || edge.Record != nil {
		t.Error("node removed by a later prune is not severed")
	}
}

// TestPruningBoundaryQueries pins the ancestry/conflict semantics at and
// below PrunedHeight — the boundary recovery replay leans on: a detached
// edge behaves exactly like an unknown relation, never like agreement.
func TestPruningBoundaryQueries(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	// Spine to height 8 with a live fork branching at height 4.
	cur := g
	var spine []*types.Block
	for r := types.Round(1); r <= 8; r++ {
		cur = cb.mk(cur, r)
		spine = append(spine, cur)
	}
	forkA := cb.mk(spine[3], 9) // height 5, conflicts with spine[4..]
	forkB := cb.mk(forkA, 10)   // height 6
	tip := cur

	cut := types.Height(4)
	cb.s.PruneBelow(cut)

	// AT the boundary: the anchor block (height == prunedHeight) survives
	// and all queries against it behave normally.
	anchor := spine[3]
	if !cb.s.Has(anchor.ID()) {
		t.Fatal("anchor at the pruned height must survive")
	}
	if !cb.s.IsAncestor(anchor.ID(), tip.ID()) {
		t.Error("anchor not an ancestor of the tip")
	}
	if cb.s.Conflicts(anchor.ID(), tip.ID()) {
		t.Error("anchor conflicts with its own descendant")
	}
	if got := cb.s.AncestorAtHeight(tip.ID(), cut); got == nil || got.ID() != anchor.ID() {
		t.Errorf("AncestorAtHeight(cut) = %v, want the anchor", got)
	}

	// BELOW the boundary: pruned blocks are unknown — ancestry is false,
	// lookups are nil, and Conflicts is conservatively TRUE (an unknown
	// relation must never pass for agreement: markers computed over it can
	// only over-report, which is the safe direction).
	pruned := spine[1] // height 2, gone
	if cb.s.Has(pruned.ID()) {
		t.Fatal("below-cut block survived")
	}
	if cb.s.IsAncestor(pruned.ID(), tip.ID()) {
		t.Error("pruned block still reported as ancestor")
	}
	if !cb.s.Conflicts(pruned.ID(), tip.ID()) {
		t.Error("unknown relation must conservatively count as conflicting")
	}
	if cb.s.AncestorAtHeight(tip.ID(), 2) != nil {
		t.Error("AncestorAtHeight below the cut must be nil")
	}
	if cb.s.CommonAncestor(pruned.ID(), tip.ID()) != nil {
		t.Error("CommonAncestor with a pruned block must be nil")
	}

	// ACROSS the boundary: the surviving fork still conflicts with the
	// spine above the cut, and their common ancestor is the anchor.
	if !cb.s.Conflicts(forkB.ID(), tip.ID()) {
		t.Error("surviving fork no longer conflicts with the spine")
	}
	if ca := cb.s.CommonAncestor(forkB.ID(), tip.ID()); ca == nil || ca.ID() != anchor.ID() {
		t.Errorf("common ancestor across the fork = %v, want the anchor", ca)
	}
	// A walk from the fork stops at the detached edge rather than claiming
	// genesis ancestry.
	if cb.s.IsAncestor(g.ID(), forkB.ID()) {
		t.Error("walk across the pruned edge reached genesis")
	}
	// ChainBetween from a pruned block is unknown ancestry -> nil.
	if cb.s.ChainBetween(pruned.ID(), tip.ID()) != nil {
		t.Error("ChainBetween from a pruned block must be nil")
	}
}

// TestSnapshotRestore covers the durability hooks: a snapshot re-installed
// into a fresh store reproduces the tree, certificates included via the
// embedded justifies, and restore degrades gracefully on detached blocks.
func TestSnapshotRestore(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	cur := g
	qc := cb.s.HighQC()
	for r := types.Round(1); r <= 5; r++ {
		b := types.NewBlock(cur.ID(), qc, r, cur.Height+1, 0, int64(r), types.Payload{}, nil)
		if err := cb.s.Insert(b); err != nil {
			t.Fatal(err)
		}
		qc = cb.qc(b, 0, 1, 2)
		cur = b
	}
	snap := cb.s.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d blocks, want 5", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Height <= snap[i-1].Height {
			t.Fatal("snapshot not in ascending height order")
		}
	}

	fresh := blockstore.New()
	if n, err := fresh.Restore(0, snap, nil); n != 5 || err != nil {
		t.Fatalf("restored %d blocks (%v), want 5", n, err)
	}
	for _, b := range snap {
		if !fresh.Has(b.ID()) {
			t.Fatalf("restored store missing %v", b)
		}
	}
	// Justifies certify heights 1..4; the high QC tracks the highest round
	// certificate among them.
	if !fresh.IsCertified(snap[3].ID()) {
		t.Error("restored store lost certification state")
	}
	// Restore with a hole: dropping the first block strands the rest.
	holey := blockstore.New()
	if n, err := holey.Restore(0, snap[1:], nil); n != 0 || !errors.Is(err, blockstore.ErrMissingParent) {
		t.Errorf("restore across a hole installed %d blocks (%v), want 0 and ErrMissingParent", n, err)
	}
	// Idempotent re-restore.
	if n, err := fresh.Restore(0, snap, nil); n != 0 || err != nil {
		t.Errorf("re-restore installed %d blocks (%v), want 0", n, err)
	}
}

// TestRestoreRefusesForeignLog: a log the store cannot have written fails to
// restore — a block at the wrong height, or a justify naming a block the
// store does not hold.
func TestRestoreRefusesForeignLog(t *testing.T) {
	g := types.Genesis()
	gqc := types.NewGenesisQC(g.ID())
	b1 := types.NewBlock(g.ID(), gqc, 1, 1, 0, 1, types.Payload{}, nil)
	badHeight := types.NewBlock(b1.ID(), gqc, 2, 3, 0, 2, types.Payload{}, nil)
	if n, err := blockstore.New().Restore(0, []*types.Block{b1, badHeight}, nil); !errors.Is(err, blockstore.ErrBadHeight) {
		t.Errorf("bad-height log: installed %d, err %v, want ErrBadHeight", n, err)
	}
	stranger := types.NewBlock(g.ID(), gqc, 7, 1, 1, 7, types.Payload{}, nil)
	strangerQC := &types.QC{Block: stranger.ID(), Round: stranger.Round, Height: stranger.Height}
	unknownJustify := types.NewBlock(b1.ID(), strangerQC, 2, 2, 0, 2, types.Payload{}, nil)
	if n, err := blockstore.New().Restore(0, []*types.Block{b1, unknownJustify}, nil); !errors.Is(err, blockstore.ErrUnknownBlock) {
		t.Errorf("unknown-justify log: installed %d, err %v, want ErrUnknownBlock", n, err)
	}
}

// TestHeightIndexMatchesScan: over a long random tree with side forks, cut
// in random steps so the height ring wraps and doubles, every PruneBelow
// returns exactly the stored blocks below the cut (what a scan of the whole
// store would find), detaches the blocks at the cut, and leaves Snapshot
// holding the rest in parent-before-child order.
func TestHeightIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cb := newBuilder(t)
	live := map[types.BlockID]*types.Block{cb.s.Genesis().ID(): cb.s.Genesis()}
	spine := []*types.Block{cb.s.Genesis()}
	round := types.Round(0)
	grow := func(parent *types.Block) *types.Block {
		round++
		b := cb.mk(parent, round)
		live[b.ID()] = b
		return b
	}
	for step := 0; step < 3000; step++ {
		tip := spine[len(spine)-1]
		spine = append(spine, grow(tip))
		if rng.Intn(4) == 0 { // a fork off a recent spine block, sometimes two deep
			if from := spine[len(spine)-1-rng.Intn(min(len(spine), 6))]; cb.s.Has(from.ID()) {
				if side := grow(from); rng.Intn(2) == 0 {
					grow(side)
				}
			}
		}
		// Let the window grow past one ring size before the cuts catch up.
		if step < 200 || rng.Intn(3) != 0 {
			continue
		}
		cut := cb.s.PrunedHeight() + types.Height(rng.Intn(5))
		removed := cb.s.PruneBelow(cut)
		for _, b := range removed {
			if _, ok := live[b.ID()]; !ok || b.Height >= cut {
				t.Fatalf("cut %d removed %v, which was not stored below it", cut, b)
			}
			delete(live, b.ID())
		}
		for id, b := range live {
			if b.Height < cut {
				t.Fatalf("cut %d left %v in place", cut, b)
			}
			if !cb.s.Has(id) {
				t.Fatalf("cut %d lost %v", cut, b)
			}
			if b.Height == cut && cb.s.Parent(id) != nil {
				t.Fatalf("cut %d left %v attached to a removed parent", cut, b)
			}
		}
		if cb.s.Len() != len(live) || cb.s.PrunedHeight() != cut {
			t.Fatalf("cut %d: store holds %d blocks, want %d", cut, cb.s.Len(), len(live))
		}
	}
	if cb.s.PrunedHeight() < 1000 {
		t.Fatalf("cuts only reached height %d", cb.s.PrunedHeight())
	}
	snap := cb.s.Snapshot()
	if len(snap) != len(live) {
		t.Fatalf("snapshot holds %d blocks, store %d", len(snap), len(live))
	}
	seen := map[types.BlockID]bool{}
	for _, b := range snap {
		if b.Height > cb.s.PrunedHeight() && !seen[b.Parent] {
			t.Fatalf("snapshot lists %v before its parent", b)
		}
		seen[b.ID()] = true
	}
}

// TestRestoreAtFloor: a replay restored onto a floor equals the whole replay
// followed by PruneBelow at that floor — the blocks at the floor are
// parentless roots, what lies below is skipped — and only blocks at the floor
// may lack a parent: a reordered log or one missing a block record above the
// floor fails, naming the stranded block.
func TestRestoreAtFloor(t *testing.T) {
	cb := newBuilder(t)
	cur, qc := cb.s.Genesis(), cb.s.HighQC()
	var chain []*types.Block
	for r := types.Round(1); r <= 8; r++ {
		b := types.NewBlock(cur.ID(), qc, r, cur.Height+1, 0, int64(r), types.Payload{}, nil)
		if err := cb.s.Insert(b); err != nil {
			t.Fatal(err)
		}
		qc = cb.qc(b, 0, 1, 2)
		chain, cur = append(chain, b), b
	}
	fork := types.NewBlock(chain[2].ID(), cb.s.QCFor(chain[2].ID()), 20, 4, 1, 20, types.Payload{}, nil) // a second block at height 4
	if err := cb.s.Insert(fork); err != nil {
		t.Fatal(err)
	}
	log := append(slices.Clone(chain), fork)
	const floor = 4
	want := blockstore.New()
	if _, err := want.Restore(0, log, nil); err != nil {
		t.Fatal(err)
	}
	want.PruneBelow(floor)

	got := blockstore.New()
	if n, err := got.Restore(floor, log, nil); err != nil || n != want.Len() {
		t.Fatalf("restored %d blocks (%v), want %d", n, err, want.Len())
	}
	for _, b := range want.Snapshot() {
		n := got.Node(b.ID())
		if n == nil || (n.Parent() == nil) != (want.Node(b.ID()).Parent() == nil) || got.QCFor(b.ID()) != want.QCFor(b.ID()) {
			t.Fatalf("%v differs from the pruned full replay", b)
		}
	}
	if got.Len() != want.Len() || got.PrunedHeight() != floor || got.HighQC() != want.HighQC() || got.Has(got.Genesis().ID()) {
		t.Fatalf("store of %d blocks from h%d (high %v), want %d from h%d (high %v)", got.Len(), got.PrunedHeight(), got.HighQC(), want.Len(), floor, want.HighQC())
	}

	swapped := slices.Clone(log)
	swapped[5], swapped[6] = swapped[6], swapped[5] // heights 6 and 7
	missing := slices.Delete(slices.Clone(log), 5, 6)
	for _, tc := range []struct {
		name     string
		floor    types.Height
		log      []*types.Block
		stranded *types.Block
	}{
		{"reordered above the floor", floor, swapped, chain[6]},
		{"missing a block record above the floor", floor, missing, chain[6]},
		{"reordered without a checkpoint", 0, swapped, chain[6]},
		{"missing a block record without a checkpoint", 0, missing, chain[6]},
	} {
		_, err := blockstore.New().Restore(tc.floor, tc.log, nil)
		if !errors.Is(err, blockstore.ErrMissingParent) || !strings.Contains(err.Error(), tc.stranded.String()) {
			t.Errorf("%s: %v, want ErrMissingParent naming %v", tc.name, err, tc.stranded)
		}
	}
}
