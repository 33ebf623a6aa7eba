package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intervals"
	"repro/internal/types"
)

// qcFor fabricates a QC with explicit per-voter markers.
func qcFor(b *types.Block, markers map[types.ReplicaID]types.Round) *types.QC {
	votes := make([]types.Vote, 0, len(markers))
	for voter, m := range markers {
		votes = append(votes, types.Vote{
			Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter, Marker: m,
		})
	}
	return &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
}

// sameMarkers builds a voters->marker map with one marker for all.
func sameMarkers(m types.Round, voters ...types.ReplicaID) map[types.ReplicaID]types.Round {
	out := make(map[types.ReplicaID]types.Round, len(voters))
	for _, v := range voters {
		out[v] = m
	}
	return out
}

func TestTrackerRegularCommitEqualsFStrong(t *testing.T) {
	// n=4, f=1: three chained QCs with consecutive rounds and quorum-size
	// vote sets must yield exactly f-strong (x = 2f+1 - f - 1 = f).
	w := newWorld(t)
	var events []int
	tr := core.NewTracker(w.store, core.Config{
		N: 4, F: 1, Mode: core.ModeRound,
		OnStrength: func(b *types.Block, x int) { events = append(events, x) },
	})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)

	tr.OnQC(qcFor(b1, sameMarkers(0, 0, 1, 2)))
	tr.OnQC(qcFor(b2, sameMarkers(0, 0, 1, 2)))
	if tr.Strength(b1) != -1 {
		t.Fatal("strong commit before 3-chain complete")
	}
	tr.OnQC(qcFor(b3, sameMarkers(0, 0, 1, 2)))
	if got := tr.Strength(b1); got != 1 {
		t.Fatalf("b1 strength = %d, want f=1", got)
	}
	if len(events) == 0 || events[0] != 1 {
		t.Fatalf("strength events = %v", events)
	}
	// b2, b3 are not yet strong committed (no 3-chain starting at them).
	if tr.Strength(b3) != -1 {
		t.Fatal("b3 cannot be strong committed yet")
	}
}

func TestTrackerIndirectEndorsementsRaiseStrength(t *testing.T) {
	// n=7, f=2: the 3-chain QCs hold 5 votes each; later QCs from the other
	// two replicas (markers 0) endorse the old blocks and lift them to 2f.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 7, F: 2, Mode: core.ModeRound})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)
	b4 := w.mk(b3, 4)
	b5 := w.mk(b4, 5)

	quorum := sameMarkers(0, 0, 1, 2, 3, 4)
	tr.OnQC(qcFor(b1, quorum))
	tr.OnQC(qcFor(b2, quorum))
	tr.OnQC(qcFor(b3, quorum))
	if got := tr.Strength(b1); got != 2 {
		t.Fatalf("b1 strength = %d, want f=2", got)
	}
	// Replicas 5 and 6 appear in later QCs; their votes endorse all
	// ancestors (marker 0), raising the 3-chain to 7 endorsers each.
	tr.OnQC(qcFor(b4, sameMarkers(0, 0, 1, 2, 3, 4, 5, 6)))
	tr.OnQC(qcFor(b5, sameMarkers(0, 0, 1, 2, 3, 4, 5, 6)))
	if got := tr.Strength(b1); got != 4 {
		t.Fatalf("b1 strength = %d, want 2f=4", got)
	}
	if got := tr.Endorsers(b1); got != 7 {
		t.Fatalf("b1 endorsers = %d, want 7", got)
	}
}

func TestTrackerMarkerBlocksForkedVoters(t *testing.T) {
	// A voter whose marker equals the ancestor's round must NOT endorse it.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeRound})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)

	// Voter 3 voted on a conflicting fork at round 1: marker 1.
	tr.OnQC(qcFor(b1, sameMarkers(0, 0, 1, 2)))
	markers := map[types.ReplicaID]types.Round{0: 0, 1: 0, 2: 0, 3: 1}
	tr.OnQC(qcFor(b2, markers))

	// Voter 3's vote for b2 endorses b2 (direct) but not b1 (round 1 and
	// marker 1: 1 < 1 fails).
	if got := tr.Endorsers(b2); got != 4 {
		t.Fatalf("b2 endorsers = %d, want 4", got)
	}
	if got := tr.Endorsers(b1); got != 3 {
		t.Fatalf("b1 endorsers = %d, want 3 (voter 3 blocked by marker)", got)
	}
}

func TestTrackerIntervalVotes(t *testing.T) {
	// Interval votes endorse rounds inside the set, with gaps respected.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeRound})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)

	tr.OnQC(qcFor(b1, sameMarkers(0, 0, 1, 2)))
	tr.OnQC(qcFor(b2, sameMarkers(0, 0, 1, 2)))
	// Voter 3's interval vote for b3 endorses {1, 3} but not 2.
	iv := types.Vote{
		Block: b3.ID(), Round: 3, Height: b3.Height, Voter: 3,
		HasIntervals: true,
		Intervals: intervals.New(
			intervals.Interval{Lo: 1, Hi: 1},
			intervals.Interval{Lo: 3, Hi: 3},
		),
	}
	qc := qcFor(b3, sameMarkers(0, 0, 1, 2))
	qc.Votes = append(qc.Votes, iv)
	tr.OnQC(qc)

	if got := tr.Endorsers(b1); got != 4 {
		t.Fatalf("b1 endorsers = %d, want 4 (interval contains 1)", got)
	}
	if got := tr.Endorsers(b2); got != 3 {
		t.Fatalf("b2 endorsers = %d, want 3 (interval gap at 2)", got)
	}
	if got := tr.Endorsers(b3); got != 4 {
		t.Fatalf("b3 endorsers = %d, want 4 (direct)", got)
	}
}

func TestTrackerAncestorInheritance(t *testing.T) {
	// "x-strong commits a block Bk and all its ancestors": raising a
	// descendant raises every ancestor below it.
	w := newWorld(t)
	raised := make(map[types.Height]int)
	tr := core.NewTracker(w.store, core.Config{
		N: 4, F: 1, Mode: core.ModeRound,
		OnStrength: func(b *types.Block, x int) { raised[b.Height] = x },
	})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)
	b4 := w.mk(b3, 4)
	b5 := w.mk(b4, 5)

	all := sameMarkers(0, 0, 1, 2, 3)
	for _, b := range []*types.Block{b1, b2, b3, b4, b5} {
		tr.OnQC(qcFor(b, all))
	}
	// b2's own 3-chain (b2,b3,b4) reached 4 endorsers each -> 2f; b1 must
	// inherit at least the same.
	if tr.Strength(b2) != 2 || tr.Strength(b1) < tr.Strength(b2) {
		t.Fatalf("strengths b1=%d b2=%d", tr.Strength(b1), tr.Strength(b2))
	}
	if raised[1] != 2 || raised[2] != 2 {
		t.Fatalf("raised events: %v", raised)
	}
}

func TestTrackerNonConsecutiveRoundsNoCommit(t *testing.T) {
	// A round gap in the 3-chain must prevent strong commits at the gap.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeRound})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 4) // gap: round 4, not 3

	all := sameMarkers(0, 0, 1, 2, 3)
	tr.OnQC(qcFor(b1, all))
	tr.OnQC(qcFor(b2, all))
	tr.OnQC(qcFor(b3, all))
	if tr.Strength(b1) != -1 {
		t.Fatal("strong commit across a round gap")
	}
}

func TestTrackerHorizonBoundsWalk(t *testing.T) {
	// With Horizon=2, endorsements do not reach more than 2 ancestors up.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeRound, Horizon: 2})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)
	b4 := w.mk(b3, 4)

	tr.OnQC(qcFor(b4, sameMarkers(0, 0, 1, 2)))
	if tr.Endorsers(b3) != 3 || tr.Endorsers(b2) != 3 {
		t.Error("within-horizon ancestors not endorsed")
	}
	if tr.Endorsers(b1) != 0 {
		t.Error("beyond-horizon ancestor endorsed")
	}
}

func TestTrackerDuplicateQCIgnored(t *testing.T) {
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeRound})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	qc := qcFor(b1, sameMarkers(0, 0, 1, 2))
	tr.OnQC(qc)
	tr.OnQC(qc) // replay
	if got := tr.Endorsers(b1); got != 3 {
		t.Fatalf("endorsers after replay = %d", got)
	}
	// A larger QC for the same block is processed.
	tr.OnQC(qcFor(b1, sameMarkers(0, 0, 1, 2, 3)))
	if got := tr.Endorsers(b1); got != 4 {
		t.Fatalf("bigger QC ignored: %d", got)
	}
}

func TestTrackerHeightModeKEndorsements(t *testing.T) {
	// SFT-Streamlet: a vote k-endorses ancestors for thresholds above its
	// height marker.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeHeight})
	g := w.store.Genesis()
	b1 := w.mk(g, 1) // height 1
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3) // height 3

	tr.OnQC(qcFor(b1, sameMarkers(0, 0, 1, 2)))
	tr.OnQC(qcFor(b2, sameMarkers(0, 0, 1, 2)))
	// Voter 3 voted a conflicting block at height 2: its height marker is 2.
	qc := qcFor(b3, sameMarkers(0, 0, 1, 2))
	qc.Votes = append(qc.Votes, types.Vote{
		Block: b3.ID(), Round: 3, Height: 3, Voter: 3, Marker: 2,
	})
	tr.OnQC(qc)

	// For threshold k=3 voter 3's vote k-endorses b2 (2 < 3)...
	if got := tr.EndorsersAt(b2, 3); got != 4 {
		t.Fatalf("b2 3-endorsers = %d, want 4", got)
	}
	// ...but for threshold k=2 it does not (2 < 2 fails).
	if got := tr.EndorsersAt(b2, 2); got != 3 {
		t.Fatalf("b2 2-endorsers = %d, want 3", got)
	}
	// Direct votes endorse for any k.
	if got := tr.EndorsersAt(b3, 1); got != 4 {
		t.Fatalf("b3 direct endorsers = %d, want 4", got)
	}
}

func TestTrackerHeightModeStrongCommit(t *testing.T) {
	// The SFT-Streamlet rule: B_{k-1}, B_k, B_k+1 with consecutive rounds,
	// each with >= x+f+1 k-endorsers, commits the MIDDLE block.
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeHeight})
	g := w.store.Genesis()
	b1 := w.mk(g, 1)
	b2 := w.mk(b1, 2)
	b3 := w.mk(b2, 3)

	all := sameMarkers(0, 0, 1, 2, 3)
	tr.OnQC(qcFor(b1, all))
	tr.OnQC(qcFor(b2, all))
	tr.OnQC(qcFor(b3, all))
	if got := tr.Strength(b2); got != 2 {
		t.Fatalf("middle block strength = %d, want 2f=2", got)
	}
	if got := tr.Strength(b1); got != 2 {
		t.Fatalf("ancestor strength = %d, want inherited 2", got)
	}
	if tr.Strength(b3) != -1 {
		t.Fatal("last block of the 3-chain cannot be strong committed yet")
	}
}

// TestTrackerForget: the tracker's state goes with the blocks the store
// prunes, and only with those.
func TestTrackerForget(t *testing.T) {
	w := newWorld(t)
	tr := core.NewTracker(w.store, core.Config{N: 4, F: 1, Mode: core.ModeRound})
	chain := []*types.Block{w.store.Genesis()}
	for r := types.Round(1); r <= 5; r++ {
		b := w.mk(chain[len(chain)-1], r)
		chain = append(chain, b)
		tr.OnQC(qcFor(b, sameMarkers(0, 0, 1, 2)))
	}
	if tr.Strength(chain[1]) != 1 || tr.Strength(chain[3]) != 1 {
		t.Fatal("blocks under a 3-chain are not f-strong before the prune")
	}
	w.store.PruneBelow(3)
	for _, b := range chain[1:3] {
		if e, x := tr.Endorsers(b), tr.Strength(b); e != 0 || x != -1 {
			t.Errorf("removed %v keeps %d endorsers, strength %d", b, e, x)
		}
	}
	for _, b := range chain[3:] {
		if tr.Endorsers(b) != 3 {
			t.Errorf("surviving %v has %d endorsers, want 3", b, tr.Endorsers(b))
		}
	}
	if got := tr.Strength(chain[3]); got != 1 {
		t.Errorf("surviving block's strength = %d, want 1", got)
	}
}
