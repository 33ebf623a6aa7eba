package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/intervals"
	"repro/internal/types"
)

// refHistory is the vote history as it was before it became incremental: it
// keeps every voted block of the window and, at each query, walks the
// target's whole ancestor chain and scans the whole window against it. It
// exists only here, as the definition VoteHistory's results are held to.
type refHistory struct {
	store *blockstore.Store
	voted []core.VotedBlock
	anc   []types.BlockID // anc[d] is the target's ancestor at height target.Height-d
}

func (h *refHistory) record(b *types.Block) {
	h.voted = append(h.voted, core.VotedBlock{ID: b.ID(), Round: b.Round, Height: b.Height})
}

func (h *refHistory) indexAncestors(target *types.Block) {
	h.anc = append(h.anc[:0], target.ID())
	walkAncestors(h.store, target.Height, target.ID(), func(b *types.Block) bool {
		h.anc = append(h.anc, b.ID())
		return true
	})
}

func (h *refHistory) conflicts(target *types.Block, id types.BlockID, height types.Height) bool {
	if height > target.Height {
		return h.store.Node(height, id).Conflicts(h.store.Node(target.Height, target.ID()))
	}
	d := uint64(target.Height - height)
	return uint64(len(h.anc)) <= d || h.anc[d] != id
}

func (h *refHistory) marker(target *types.Block) (m types.Round) {
	h.indexAncestors(target)
	for _, v := range h.voted {
		if v.Round > m && h.store.Has(v.Height, v.ID) && h.conflicts(target, v.ID, v.Height) {
			m = v.Round
		}
	}
	return m
}

func (h *refHistory) heightMarker(target *types.Block) (m types.Height) {
	h.indexAncestors(target)
	for _, v := range h.voted {
		if v.Height > m && h.store.Has(v.Height, v.ID) && h.conflicts(target, v.ID, v.Height) {
			m = v.Height
		}
	}
	return m
}

func (h *refHistory) intervals(target *types.Block, window types.Round) intervals.Set {
	r := uint64(target.Round)
	set := intervals.Full(r)
	h.indexAncestors(target)
	for _, v := range h.voted {
		if !h.store.Has(v.Height, v.ID) || !h.conflicts(target, v.ID, v.Height) {
			continue
		}
		lo := uint64(1)
		walkAncestors(h.store, v.Height, v.ID, func(b *types.Block) bool {
			if h.conflicts(target, b.ID(), b.Height) {
				return true
			}
			lo = uint64(b.Round) + 1
			return false
		})
		set = set.Subtract(intervals.Interval{Lo: lo, Hi: uint64(v.Round)})
	}
	if window > 0 && r > uint64(window) {
		set = set.Intersect(intervals.New(intervals.Interval{Lo: r - uint64(window), Hi: r}))
	}
	return set
}

func (h *refHistory) pruneBelow(r types.Round) {
	kept := h.voted[:0]
	for _, v := range h.voted {
		if v.Round >= r {
			kept = append(kept, v)
		}
	}
	h.voted = kept
}

// historyRun drives a VoteHistory and the reference through one op stream
// over a random block tree. pick(n) yields the stream's next choice in
// [0, n), or ok false when the stream is spent. The ops: extend the tree
// under the tip, a recent ancestor of it or any stored block (a side branch),
// query the new block and vote for it or skip the vote; query any stored
// block, which need not extend the last target; vote for a block the store
// receives only later; prune the store at a cut on the tip's chain and the
// histories at that block's round; and, once, Restore. Every query compares
// Marker, HeightMarker, Intervals(·,0) and Intervals(·,w).
type historyRun struct {
	t       *testing.T
	pick    func(n int) (int, bool)
	store   *blockstore.Store
	h       *core.VoteHistory
	ref     *refHistory
	blocks  []*types.Block // stored, in insertion order
	pending []*types.Block // voted, not yet stored
	tip     *types.Block
	round   types.Round
	queries int
}

func runHistoryOps(t *testing.T, pick func(n int) (int, bool)) int {
	store := blockstore.New()
	r := &historyRun{
		t: t, pick: pick, store: store, h: core.NewVoteHistory(store), ref: &refHistory{store: store},
		blocks: []*types.Block{store.Genesis()}, tip: store.Genesis(),
	}
	restored := false
	for {
		op, ok := pick(16)
		if !ok {
			return r.queries
		}
		switch {
		case op < 9:
			r.extend()
		case op < 11:
			r.query(r.anyStored())
		case op == 11:
			r.voteDetached()
		case op == 12:
			r.deliverPending()
		case op < 15:
			r.prune()
		case !restored:
			restored = true
			r.h.Restore(slices.Clone(r.ref.voted))
		}
	}
}

func (r *historyRun) choose(n int) int {
	v, _ := r.pick(n)
	return v
}

func (r *historyRun) anyStored() *types.Block {
	// Recent blocks: old ones are below the cut. The tip never is.
	if b := r.blocks[len(r.blocks)-1-r.choose(min(len(r.blocks), 12))]; r.store.Has(b.Height, b.ID()) {
		return b
	}
	return r.tip
}

func (r *historyRun) newBlock(parent *types.Block) *types.Block {
	r.round++
	return types.NewBlock(parent.ID(), types.NewGenesisQC(parent.ID()), r.round, parent.Height+1, 0,
		int64(r.round), types.Payload{}, nil)
}

func (r *historyRun) insert(b *types.Block) {
	if err := r.store.Insert(b); err != nil {
		r.t.Fatalf("insert %v: %v", b, err)
	}
	r.blocks = append(r.blocks, b)
}

func (r *historyRun) extend() {
	parent := r.tip
	switch c := r.choose(8); {
	case c == 5 || c == 6: // fork off a recent ancestor of the tip
		for up := 1 + r.choose(4); up > 0; up-- {
			if p := parentOf(r.store, parent); p != nil {
				parent = p
			}
		}
	case c == 7: // grow a side branch
		parent = r.anyStored()
	}
	b := r.newBlock(parent)
	r.insert(b)
	voteOnly := r.choose(8) == 0
	if !voteOnly {
		r.query(b)
	}
	if voteOnly || r.choose(6) != 0 {
		r.h.RecordVote(b)
		r.ref.record(b)
		r.tip = b
	}
}

func (r *historyRun) voteDetached() {
	b := r.newBlock(r.anyStored())
	r.h.RecordVote(b)
	r.ref.record(b)
	r.pending = append(r.pending, b)
}

func (r *historyRun) deliverPending() {
	for _, b := range r.pending {
		if r.store.Has(b.Height-1, b.Parent) {
			r.insert(b)
		}
	}
	r.pending = r.pending[:0]
}

func (r *historyRun) prune() {
	floor := r.store.PrunedHeight()
	if r.tip.Height <= floor+1 || !r.store.Has(r.tip.Height, r.tip.ID()) {
		return
	}
	span := int(r.tip.Height - floor - 1)
	if r.choose(3) != 0 {
		span = min(span, 3) // mostly a step at a time, as commits move the cut
	}
	cut := floor + 1 + types.Height(r.choose(span))
	n := r.store.Node(r.tip.Height, r.tip.ID()).Ancestor(cut)
	if n == nil {
		return
	}
	anchor := n.Block()
	r.store.PruneBelow(cut)
	r.h.PruneBelow(anchor.Round)
	r.ref.pruneBelow(anchor.Round)
}

func (r *historyRun) query(target *types.Block) {
	r.queries++
	if got, want := r.h.Marker(target), r.ref.marker(target); got != want {
		r.t.Fatalf("query %d on %v: Marker = %d, reference %d", r.queries, target, got, want)
	}
	if got, want := r.h.HeightMarker(target), r.ref.heightMarker(target); got != want {
		r.t.Fatalf("query %d on %v: HeightMarker = %d, reference %d", r.queries, target, got, want)
	}
	for _, w := range []types.Round{0, 5} {
		if got, want := r.h.Intervals(target, w), r.ref.intervals(target, w); !got.Equal(want) {
			r.t.Fatalf("query %d on %v: Intervals(%d) = %s, reference %s", r.queries, target, w, got, want)
		}
	}
	if got, want := r.h.Len(), len(r.ref.voted); got != want {
		r.t.Fatalf("query %d: window holds %d votes, reference %d", r.queries, got, want)
	}
}

// TestHistoryMatchesReference: on 400 seeded random trees with forks, side
// branches, fork switches, skipped and detached votes, prunes at random cuts
// and one Restore, every marker and interval set equals the full scan's.
func TestHistoryMatchesReference(t *testing.T) {
	queries := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng, left := rand.New(rand.NewSource(seed)), 800
		queries += runHistoryOps(t, func(n int) (int, bool) {
			left--
			return rng.Intn(n), left > 0
		})
	}
	if queries < 50000 {
		t.Fatalf("only %d queries compared; the streams are too short to mean anything", queries)
	}
}

// FuzzHistoryMatchesReference reads the same op stream from the fuzzer's
// bytes, one choice per byte.
func FuzzHistoryMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 5, 1, 0, 0, 1, 9, 3, 13, 2, 0, 7, 4, 0, 1, 15, 0, 0, 1, 11, 2, 12, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runHistoryOps(t, func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			c := int(data[0]) % n
			data = data[1:]
			return c, true
		})
	})
}
