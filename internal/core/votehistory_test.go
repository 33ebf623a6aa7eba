package core_test

import (
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/types"
)

// world bundles a store with helpers for hand-building forks.
type world struct {
	t     *testing.T
	store *blockstore.Store
	seq   uint32
}

func newWorld(t *testing.T) *world {
	return &world{t: t, store: blockstore.New()}
}

func (w *world) mk(parent *types.Block, round types.Round) *types.Block {
	w.t.Helper()
	w.seq++
	b := types.NewBlock(parent.ID(), types.NewGenesisQC(parent.ID()), round, parent.Height+1, 0,
		int64(w.seq), types.Payload{Txns: []types.Transaction{{Sender: w.seq}}}, nil)
	if err := w.store.Insert(b); err != nil {
		w.t.Fatalf("insert: %v", err)
	}
	return b
}

func TestMarkerNoForks(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()

	cur := g
	for r := types.Round(1); r <= 5; r++ {
		cur = w.mk(cur, r)
		if m := h.Marker(cur); m != 0 {
			t.Errorf("round %d: marker = %d on a forkless chain, want 0", r, m)
		}
		h.RecordVote(cur)
	}
}

func TestMarkerAfterForkSwitch(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()

	// Vote a1 (r1), then fork block b1 (r2) extending genesis, then switch
	// back to a-branch with a2 (r3) extending a1.
	a1 := w.mk(g, 1)
	h.RecordVote(a1)
	b1 := w.mk(g, 2)
	h.RecordVote(b1)
	a2 := w.mk(a1, 3)

	// a2 conflicts with b1 (round 2): marker must be 2.
	if m := h.Marker(a2); m != 2 {
		t.Fatalf("marker = %d, want 2", m)
	}
	h.RecordVote(a2)

	// Deeper on the a-branch the marker stays 2 (b1 is still the highest
	// conflicting voted block).
	a3 := w.mk(a2, 4)
	if m := h.Marker(a3); m != 2 {
		t.Fatalf("marker = %d, want 2", m)
	}

	// Now a block extending b1: conflicts with a1, a2 (rounds 1, 3).
	b2 := w.mk(b1, 5)
	if m := h.Marker(b2); m != 3 {
		t.Fatalf("marker on b-branch = %d, want 3", m)
	}
}

func TestHeightMarker(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()

	a1 := w.mk(g, 1) // height 1
	a2 := w.mk(a1, 2)
	a3 := w.mk(a2, 3) // height 3
	h.RecordVote(a1)
	h.RecordVote(a2)
	h.RecordVote(a3)

	b1 := w.mk(g, 4) // conflicting branch
	if m := h.HeightMarker(b1); m != 3 {
		t.Fatalf("height marker = %d, want 3", m)
	}
	if m := h.Marker(b1); m != 3 {
		t.Fatalf("round marker = %d, want 3", m)
	}
}

func TestIntervalsSingleFork(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()

	// Chain a1(r1) a2(r2); fork f1(r3) extends a1; back on main with
	// a3(r5) extending a2.
	a1 := w.mk(g, 1)
	a2 := w.mk(a1, 2)
	h.RecordVote(a1)
	h.RecordVote(a2)
	f1 := w.mk(a1, 3)
	h.RecordVote(f1)
	a3 := w.mk(a2, 5)

	// D_F = [common(f1,a3).round+1, 3] = [2, 3]; I = [1,5] \ [2,3]... the
	// common ancestor of f1 and a3 is a1 (round 1), so D_F = [2,3].
	set := h.Intervals(a3, 0)
	wantIn := []uint64{1, 4, 5}
	wantOut := []uint64{2, 3}
	for _, v := range wantIn {
		if !set.Contains(v) {
			t.Errorf("interval %s should contain %d", set, v)
		}
	}
	for _, v := range wantOut {
		if set.Contains(v) {
			t.Errorf("interval %s should exclude %d", set, v)
		}
	}

	// The single-marker summary would be [4,5]: strictly less precise.
	if set.Count() <= 2 {
		t.Errorf("interval vote lost precision: %s", set)
	}
}

func TestIntervalsWindowClipping(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()

	cur := g
	for r := types.Round(1); r <= 20; r++ {
		cur = w.mk(cur, r)
		h.RecordVote(cur)
	}
	tip := w.mk(cur, 21)
	set := h.Intervals(tip, 5)
	if set.Contains(10) {
		t.Errorf("window-clipped set %s contains round 10", set)
	}
	if !set.Contains(18) || !set.Contains(21) {
		t.Errorf("window-clipped set %s lost recent rounds", set)
	}
}

func TestIntervalsMatchMarkerSemantics(t *testing.T) {
	// On any history, the interval set must be a superset of the marker
	// interval (markers are the coarsest summary): every round the marker
	// endorses, the interval set endorses too.
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()

	a1 := w.mk(g, 1)
	h.RecordVote(a1)
	b1 := w.mk(g, 2)
	h.RecordVote(b1)
	a2 := w.mk(a1, 3)
	h.RecordVote(a2)
	b2 := w.mk(b1, 4)
	h.RecordVote(b2)
	a3 := w.mk(a2, 5)

	marker := h.Marker(a3)
	set := h.Intervals(a3, 0)
	for r := marker + 1; r <= 5; r++ {
		if !set.Contains(uint64(r)) {
			t.Errorf("round %d endorsed by marker %d but not by %s", r, marker, set)
		}
	}
}

// TestVoteHistoryPrune: ten votes on one chain leave one leaf, a vote on a
// fork adds a second, and a prune drops the one below its round.
func TestVoteHistoryPrune(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()
	cur, low := g, g
	for r := types.Round(1); r <= 10; r++ {
		cur = w.mk(cur, r)
		h.RecordVote(cur)
		if r == 3 {
			low = cur
		}
	}
	if h.Len() != 1 {
		t.Fatalf("history len = %d after ten votes on one chain, want 1", h.Len())
	}
	h.RecordVote(w.mk(low, 11))
	if h.Len() != 2 {
		t.Fatalf("history len = %d after a vote on a fork, want 2", h.Len())
	}
	h.PruneBelow(11)
	if h.Len() != 1 {
		t.Fatalf("after prune len = %d, want 1", h.Len())
	}
	for _, v := range h.Voted() {
		if v.Round < 11 {
			t.Errorf("pruned entry r%d survived", v.Round)
		}
	}
}

// TestUnstoredTargetConflictsWithAll: a target the store does not hold
// conflicts with every voted block and shares no ancestor with any, as in
// the full scan; the next stored target is judged afresh.
func TestUnstoredTargetConflictsWithAll(t *testing.T) {
	w := newWorld(t)
	h := core.NewVoteHistory(w.store)
	g := w.store.Genesis()
	a1 := w.mk(g, 1)
	a2 := w.mk(a1, 2)
	h.RecordVote(a2)
	h.RecordVote(w.mk(g, 3))
	loose := types.NewBlock(a2.ID(), types.NewGenesisQC(a2.ID()), 4, a2.Height+1, 0, 0, types.Payload{}, nil)
	if m, hm := h.Marker(loose), h.HeightMarker(loose); m != 3 || hm != 2 {
		t.Fatalf("marker %d, height marker %d on an unstored target; want 3 and 2", m, hm)
	}
	if set := h.Intervals(loose, 0); set.Contains(1) || set.Contains(3) || !set.Contains(4) {
		t.Fatalf("intervals %s on an unstored target; want [4,4]", set)
	}
	if m := h.Marker(w.mk(a2, 5)); m != 3 {
		t.Fatalf("marker %d on a stored extension of a2; want 3", m)
	}
}
