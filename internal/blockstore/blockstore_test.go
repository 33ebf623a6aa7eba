package blockstore_test

import (
	"errors"
	"math/rand"
	"reflect"
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

// node and has look a block up at its own height.
func (cb *chainBuilder) node(b *types.Block) *blockstore.Node { return cb.s.Node(b.Height, b.ID()) }
func (cb *chainBuilder) has(b *types.Block) bool              { return cb.s.Has(b.Height, b.ID()) }

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
	// Wrong height: b1 is stored, but not at height 4, so the parent is
	// unknown.
	badH := types.NewBlock(b1.ID(), types.NewGenesisQC(b1.ID()), 2, 5, 0, 0, types.Payload{}, nil)
	if err := cb.s.Insert(badH); !errors.Is(err, blockstore.ErrMissingParent) {
		t.Errorf("want ErrMissingParent, got %v", err)
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

	if !cb.node(a3).Extends(cb.node(g)) || !cb.node(a3).Extends(cb.node(a1)) {
		t.Error("ancestor chain broken")
	}
	if !cb.node(a3).Extends(cb.node(a3)) {
		t.Error("a block extends itself")
	}
	if cb.node(a1).Extends(cb.node(a3)) {
		t.Error("descendant is not an ancestor")
	}
	if cb.node(a1).Conflicts(cb.node(a3)) {
		t.Error("same-branch blocks should not conflict")
	}
	if !cb.node(a2).Conflicts(cb.node(b2)) || !cb.node(a1).Conflicts(cb.node(b1)) {
		t.Error("cross-branch blocks must conflict")
	}
	if cb.node(a1).Conflicts(cb.node(a1)) {
		t.Error("a block does not conflict itself")
	}

	if a, b := cb.node(a3).Ancestor(0), cb.node(b2).Ancestor(0); a == nil || a != b || a.Block() != g {
		t.Errorf("the branches meet at %v and %v, want genesis", a, b)
	}
}

func TestChainBetweenAndWalk(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	a1 := cb.mk(g, 1)
	a2 := cb.mk(a1, 2)
	a3 := cb.mk(a2, 3)

	prefix := []*types.Block{g}
	chain, ok := blockstore.AppendChain(prefix, cb.node(g), cb.node(a3))
	if !ok || len(chain) != 4 || chain[0] != g || chain[1] != a1 || chain[3] != a3 {
		t.Fatalf("chain between genesis and a3 wrong: %v", chain)
	}
	if again, ok := blockstore.AppendChain(chain[:0], cb.node(a3), cb.node(a3)); !ok || len(again) != 0 {
		t.Errorf("a block's chain to itself is %v (%v), want empty", again, ok)
	}
	if rev, ok := blockstore.AppendChain(prefix[:1], cb.node(a3), cb.node(a1)); ok || len(rev) != 1 {
		t.Error("reverse chain must be refused, leaving dst as it was")
	}
	if allocs := testing.AllocsPerRun(100, func() { chain, _ = blockstore.AppendChain(chain[:0], cb.node(g), cb.node(a3)) }); allocs != 0 {
		t.Errorf("AppendChain into a buffer with room allocates %.1f times", allocs)
	}

	var seen []types.Round
	for n := cb.node(a3).Parent(); n != nil; n = n.Parent() {
		seen = append(seen, n.Block().Round)
	}
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 1 || seen[2] != 0 {
		t.Errorf("walk order wrong: %v", seen)
	}

	if n := cb.node(a3).Ancestor(1); n == nil || n.Block() != a1 {
		t.Error("Ancestor(1) wrong")
	}
	if cb.node(a3).Ancestor(9) != nil {
		t.Error("Ancestor above block must be nil")
	}
}

func TestQCRegistration(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	a1 := cb.mk(g, 1)
	a2 := cb.mk(a1, 2)

	if cb.node(a1).QC() != nil {
		t.Error("uncertified block reported certified")
	}
	cb.qc(a1, 0, 1, 2)
	if cb.node(a1).QC() == nil {
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
	if got := len(cb.node(a1).QC().Votes); got != 4 {
		t.Errorf("bigger QC not kept: %d votes", got)
	}
	// A smaller one does not.
	cb.qc(a1, 0, 1)
	if got := len(cb.node(a1).QC().Votes); got != 4 {
		t.Errorf("smaller QC replaced bigger: %d votes", got)
	}
	// Unknown block.
	if _, _, err := cb.s.RegisterQC(&types.QC{Block: types.BlockID{9}, Round: 9}); err == nil {
		t.Error("QC for unknown block accepted")
	}
	// A stored block named at the wrong height is unknown.
	wrong := &types.QC{Block: a2.ID(), Round: a2.Round, Height: a1.Height, Votes: []types.Vote{{Block: a2.ID(), Round: a2.Round, Height: a1.Height}}}
	if n, _, err := cb.s.RegisterQC(wrong); !errors.Is(err, blockstore.ErrUnknownBlock) || n != nil {
		t.Errorf("QC naming a2 at height %d: node %v, err %v, want ErrUnknownBlock", a1.Height, n, err)
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
		if b.Height >= 4 || cb.has(b) {
			t.Errorf("removed list holds surviving block h%d", b.Height)
		}
	}
	// Everything below the cut is gone, spine included; the anchor at the
	// cut height and everything above survives.
	for _, b := range blocks {
		if b.Height < 4 && cb.has(b) {
			t.Errorf("below-cut spine block h%d survived", b.Height)
		}
		if b.Height >= 4 && !cb.has(b) {
			t.Errorf("above-cut spine block h%d pruned", b.Height)
		}
	}
	if cb.has(fork) || cb.has(forkChild) {
		t.Error("dead fork below cut survived")
	}
	// The surviving chain is still internally consistent.
	if !cb.node(cur).Extends(cb.node(blocks[3])) {
		t.Error("anchor no longer an ancestor of the tip")
	}
	if cb.node(cur).Ancestor(0) != nil {
		t.Error("pruned genesis still reached as an ancestor")
	}
	if cb.s.PrunedHeight() != 4 {
		t.Errorf("pruned height = %d", cb.s.PrunedHeight())
	}
	// Chain operations above the cut still work.
	if chain, _ := blockstore.AppendChain(nil, cb.node(blocks[3]), cb.node(cur)); len(chain) != 2 {
		t.Errorf("chain above cut has %d blocks", len(chain))
	}
}

// TestNodeHandle: the handle carries the block, its certificate and its
// parent, lists children in insertion order, and is found only at its own
// height.
func TestNodeHandle(t *testing.T) {
	cb := newBuilder(t)
	g := cb.s.Genesis()
	a1 := cb.mk(g, 1)
	kids := []*types.Block{cb.mk(a1, 2), cb.mk(a1, 3), cb.mk(a1, 4)}
	qc := cb.qc(a1, 0, 1, 2)

	n := cb.node(a1)
	if n == nil || n.Block() != a1 || n.QC() != qc || n.Parent() != cb.node(g) || n.Parent().Parent() != nil {
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
	if cb.s.Node(1, types.BlockID{9}) != nil {
		t.Error("unknown block has a node")
	}
	for _, h := range []types.Height{0, 2, 3, ^types.Height(0)} {
		if cb.s.Node(h, a1.ID()) != nil || cb.s.Has(h, a1.ID()) || cb.s.Block(h, a1.ID()) != nil {
			t.Errorf("a1 (height 1) found at height %d", h)
		}
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
	stale := []*blockstore.Node{cb.node(spine[2]), cb.node(spine[3]), cb.node(fork)}
	for _, n := range stale {
		n.Record = "state"
	}
	if stale[1].NextSibling() != stale[2] || stale[0].FirstChild() != stale[1] {
		t.Fatal("the handles are not linked as built")
	}
	for r := types.Round(5); r <= 8; r++ {
		spine = append(spine, cb.mk(spine[len(spine)-1], r))
	}
	edge := cb.node(spine[5])
	edge.Record = "kept"
	cb.s.PruneBelow(5)
	for _, n := range stale {
		if n.Parent() != nil || n.FirstChild() != nil || n.NextSibling() != nil || n.Record != nil {
			t.Errorf("removed %v keeps parent %v, child %v, sibling %v, record %v",
				n.Block(), n.Parent(), n.FirstChild(), n.NextSibling(), n.Record)
		}
		if n.Block() == nil || cb.node(n.Block()) != nil {
			t.Errorf("removed node lost its block, or the store still knows %v", n.Block())
		}
	}
	if edge.Parent() != nil || edge.Record != "kept" || edge.FirstChild() != cb.node(spine[6]) {
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
	if !cb.has(anchor) {
		t.Fatal("anchor at the pruned height must survive")
	}
	if !cb.node(tip).Extends(cb.node(anchor)) {
		t.Error("anchor not an ancestor of the tip")
	}
	if cb.node(anchor).Conflicts(cb.node(tip)) {
		t.Error("anchor conflicts with its own descendant")
	}
	if got := cb.node(tip).Ancestor(cut); got == nil || got.Block() != anchor {
		t.Errorf("Ancestor(cut) = %v, want the anchor", got)
	}

	// BELOW the boundary: pruned blocks are unknown — ancestry is false,
	// lookups are nil, and Conflicts is conservatively TRUE (an unknown
	// relation must never pass for agreement: markers computed over it can
	// only over-report, which is the safe direction).
	pruned := spine[1] // height 2, gone
	if cb.has(pruned) {
		t.Fatal("below-cut block survived")
	}
	if cb.node(tip).Extends(cb.node(pruned)) {
		t.Error("pruned block still reported as ancestor")
	}
	if !cb.node(pruned).Conflicts(cb.node(tip)) {
		t.Error("unknown relation must conservatively count as conflicting")
	}
	if cb.node(tip).Ancestor(2) != nil {
		t.Error("Ancestor below the cut must be nil")
	}

	// ACROSS the boundary: the surviving fork still conflicts with the
	// spine above the cut, and their common ancestor is the anchor.
	if !cb.node(forkB).Conflicts(cb.node(tip)) {
		t.Error("surviving fork no longer conflicts with the spine")
	}
	if a := cb.node(forkB).Ancestor(cut); a == nil || a.Block() != anchor {
		t.Errorf("the fork's ancestor at the cut = %v, want the anchor", a)
	}
	// A walk from the fork stops at the detached edge rather than claiming
	// genesis ancestry.
	if cb.node(forkB).Ancestor(g.Height) != nil {
		t.Error("walk across the pruned edge reached genesis")
	}
	// A chain from a pruned block is unknown ancestry: refused.
	if _, ok := blockstore.AppendChain(nil, cb.node(pruned), cb.node(tip)); ok {
		t.Error("AppendChain from a pruned block must be refused")
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
		if !fresh.Has(b.Height, b.ID()) {
			t.Fatalf("restored store missing %v", b)
		}
	}
	// Justifies certify heights 1..4; the high QC tracks the highest round
	// certificate among them.
	if n := fresh.Node(snap[3].Height, snap[3].ID()); n == nil || n.QC() == nil {
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
// restore — a block at the wrong height, whose parent is then unknown, or a
// justify naming a block the store does not hold.
func TestRestoreRefusesForeignLog(t *testing.T) {
	g := types.Genesis()
	gqc := types.NewGenesisQC(g.ID())
	b1 := types.NewBlock(g.ID(), gqc, 1, 1, 0, 1, types.Payload{}, nil)
	badHeight := types.NewBlock(b1.ID(), gqc, 2, 3, 0, 2, types.Payload{}, nil)
	if n, err := blockstore.New().Restore(0, []*types.Block{b1, badHeight}, nil); !errors.Is(err, blockstore.ErrMissingParent) {
		t.Errorf("bad-height log: installed %d, err %v, want ErrMissingParent", n, err)
	}
	stranger := types.NewBlock(g.ID(), gqc, 7, 1, 1, 7, types.Payload{}, nil)
	strangerQC := &types.QC{Block: stranger.ID(), Round: stranger.Round, Height: stranger.Height}
	unknownJustify := types.NewBlock(b1.ID(), strangerQC, 2, 2, 0, 2, types.Payload{}, nil)
	if n, err := blockstore.New().Restore(0, []*types.Block{b1, unknownJustify}, nil); !errors.Is(err, blockstore.ErrUnknownBlock) {
		t.Errorf("unknown-justify log: installed %d, err %v, want ErrUnknownBlock", n, err)
	}
}

// TestHeightIndexMatchesScan: over a long random tree with side forks, cut
// in random steps so the height ring wraps and grows, every PruneBelow
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
			if from := spine[len(spine)-1-rng.Intn(min(len(spine), 6))]; cb.has(from) {
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
		for _, b := range live {
			if b.Height < cut {
				t.Fatalf("cut %d left %v in place", cut, b)
			}
			if !cb.has(b) {
				t.Fatalf("cut %d lost %v", cut, b)
			}
			if b.Height == cut && cb.node(b).Parent() != nil {
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
	fork := types.NewBlock(chain[2].ID(), cb.node(chain[2]).QC(), 20, 4, 1, 20, types.Payload{}, nil) // a second block at height 4
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
		n, w := got.Node(b.Height, b.ID()), want.Node(b.Height, b.ID())
		if n == nil || (n.Parent() == nil) != (w.Parent() == nil) || n.QC() != w.QC() {
			t.Fatalf("%v differs from the pruned full replay", b)
		}
	}
	if got.Len() != want.Len() || got.PrunedHeight() != floor || got.HighQC() != want.HighQC() || got.Has(0, got.Genesis().ID()) {
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

// TestLookupAfterSprayIsFront: an equivocating leader's 1,000 blocks at one
// height cost the lookup of the certified one a walk once; the node found
// moves to the front of its height's list, so every later lookup of it — by
// the certificate's registration, the votes, the child's parent check —
// compares one ID. Snapshot lists a height in list order, which shows the
// position.
func TestLookupAfterSprayIsFront(t *testing.T) {
	cb := newBuilder(t)
	b1 := cb.mk(cb.s.Genesis(), 1)
	certified := cb.mk(b1, 2) // inserted first, so last in its height's list
	for r := types.Round(3); r < 1002; r++ {
		cb.mk(b1, r)
	}
	atTwo := func() []*types.Block {
		var out []*types.Block
		for _, b := range cb.s.Snapshot() {
			if b.Height == 2 {
				out = append(out, b)
			}
		}
		return out
	}
	if list := atTwo(); len(list) != 1000 || list[999] != certified {
		t.Fatalf("height 2 holds %d blocks, the certified one not last", len(list))
	}
	cb.qc(certified, 0, 1, 2) // the first lookup walks the list
	for i := 0; i < 1000; i++ {
		if n := cb.node(certified); n == nil || n.QC() == nil {
			t.Fatal("certified block not found")
		}
		child := cb.mk(certified, types.Round(2000+i)) // its parent check is a lookup too
		if cb.node(child) == nil {
			t.Fatal("child not found")
		}
	}
	if list := atTwo(); list[0] != certified {
		t.Errorf("after its lookups the certified block is not at the front of height 2")
	}
	other := atTwo()[500]
	if cb.node(other) == nil || atTwo()[0] != other || atTwo()[1] != certified {
		t.Error("a lookup of another block at the height did not move that one to the front")
	}
}

// TestFootprintStoreHasOneIndex: the store's one index is the height ring. No
// type of this package reachable from Store holds a map keyed by a block ID
// (or by anything a block ID converts to): such a map was a second index
// beside the ring and took a tenth of a replica's heap.
func TestFootprintStoreHasOneIndex(t *testing.T) {
	id := reflect.TypeOf(types.BlockID{})
	pkg := reflect.TypeOf(blockstore.Store{}).PkgPath()
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Map:
			if ty.Key().ConvertibleTo(id) {
				t.Errorf("%s is a %v", path, ty)
			}
			walk(path+" key", ty.Key())
			walk(path+" value", ty.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(path, ty.Elem())
		case reflect.Struct:
			if ty.PkgPath() != pkg {
				return // another package's type answers to its own tests
			}
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("Store", reflect.TypeOf(blockstore.Store{}))
	if !seen[reflect.TypeOf(blockstore.Node{})] {
		t.Fatal("the walk never reached Node; it checks nothing")
	}
}
