package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// newRand is a tiny helper so fuzz-style tests share a deterministic source.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDirectTrackerStrongCommit(t *testing.T) {
	w := newWorld(t)
	var events []int
	tr := core.NewDirectTracker(w.store, 1, func(b *types.Block, x int) {
		events = append(events, x)
	})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)

	for _, b := range []*types.Block{b1, b2, b3} {
		tr.OnQC(qcFor(b, sameMarkers(0, 0, 1, 2)))
	}
	if got := tr.Strength(b1.ID()); got != 1 {
		t.Fatalf("strength = %d, want f=1", got)
	}

	// Late direct votes (the FBFT ExtraVote path) raise the level; markers
	// play no role in the baseline.
	tr.AddVote(b1.ID(), 3)
	tr.AddVote(b2.ID(), 3)
	tr.AddVote(b3.ID(), 3)
	if got := tr.Strength(b1.ID()); got != 2 {
		t.Fatalf("strength after extra votes = %d, want 2f=2", got)
	}
	if len(events) < 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestDirectTrackerNoIndirectCredit(t *testing.T) {
	// Unlike the SFT tracker, a QC for a descendant must NOT credit
	// ancestors: the baseline counts direct votes only.
	w := newWorld(t)
	tr := core.NewDirectTracker(w.store, 1, nil)
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)

	tr.OnQC(qcFor(b2, sameMarkers(0, 0, 1, 2, 3)))
	if got := tr.DirectVotes(b1.ID()); got != 0 {
		t.Fatalf("ancestor got %d direct votes from a descendant QC", got)
	}
	if got := tr.DirectVotes(b2.ID()); got != 4 {
		t.Fatalf("block direct votes = %d", got)
	}
}

func TestDirectTrackerDuplicateVotes(t *testing.T) {
	w := newWorld(t)
	tr := core.NewDirectTracker(w.store, 1, nil)
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	tr.AddVote(b1.ID(), 2)
	tr.AddVote(b1.ID(), 2)
	if got := tr.DirectVotes(b1.ID()); got != 1 {
		t.Fatalf("duplicate vote counted: %d", got)
	}
}

// TestDirectTrackerForget: the direct tracker's state goes with the blocks
// the store prunes, and only with those.
func TestDirectTrackerForget(t *testing.T) {
	w := newWorld(t)
	tr := core.NewDirectTracker(w.store, 1, nil)
	chain := []*types.Block{w.store.Genesis()}
	for r := types.Round(1); r <= 5; r++ {
		b := w.mk(chain[len(chain)-1], r)
		chain = append(chain, b)
		tr.OnQC(qcFor(b, sameMarkers(0, 0, 1, 2)))
	}
	if tr.Strength(chain[1].ID()) != 1 || tr.Strength(chain[3].ID()) != 1 {
		t.Fatal("blocks under a 3-chain are not f-strong before the prune")
	}
	w.store.PruneBelow(3)
	for _, b := range chain[1:3] {
		if v, x := tr.DirectVotes(b.ID()), tr.Strength(b.ID()); v != 0 || x != -1 {
			t.Errorf("removed %v keeps %d direct votes, strength %d", b, v, x)
		}
	}
	for _, b := range chain[3:] {
		if tr.DirectVotes(b.ID()) != 3 {
			t.Errorf("surviving %v has %d direct votes, want 3", b, tr.DirectVotes(b.ID()))
		}
	}
	if got := tr.Strength(chain[3].ID()); got != 1 {
		t.Errorf("surviving block's strength = %d, want 1", got)
	}
}
