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

func TestDirectTrackerForget(t *testing.T) {
	w := newWorld(t)
	tr := core.NewDirectTracker(w.store, 1, nil)
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	tr.AddVote(b1.ID(), 0)
	tr.AddVote(b2.ID(), 0)
	tr.Forget(b1.ID())
	if tr.DirectVotes(b1.ID()) != 0 || tr.DirectVotes(b2.ID()) != 1 {
		t.Fatal("forget boundary wrong")
	}
}
