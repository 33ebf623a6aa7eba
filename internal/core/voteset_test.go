package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

func vs(voter types.ReplicaID) types.Vote {
	return types.Vote{Round: 3, Voter: voter}
}

func TestVoteSetAddDedupAndOrder(t *testing.T) {
	var s core.VoteSet
	for _, v := range []types.ReplicaID{5, 1, 70, 3} {
		if !s.Add(vs(v)) {
			t.Fatalf("fresh vote from %v rejected", v)
		}
	}
	if s.Add(vs(5)) {
		t.Fatal("duplicate voter accepted")
	}
	if s.Len() != 4 || s.Count() != 4 {
		t.Fatalf("len=%d count=%d, want 4/4", s.Len(), s.Count())
	}
	for _, v := range []types.ReplicaID{1, 3, 5, 70} {
		if !s.Has(v) {
			t.Fatalf("Has(%v) = false", v)
		}
	}
	if s.Has(2) || s.Has(64) {
		t.Fatal("Has reports unseen voter")
	}
	sorted := s.Sorted()
	for i, want := range []types.ReplicaID{1, 3, 5, 70} {
		if sorted[i].Voter != want {
			t.Fatalf("Sorted()[%d] = %v, want %v", i, sorted[i].Voter, want)
		}
	}
}

// TestVoteSetMarkVsAdd pins the journal-replay semantics: Mark deduplicates
// a voter without retaining a vote, so a replayed own-vote is blocked from
// re-entering but never counts toward a fresh certificate.
func TestVoteSetMarkVsAdd(t *testing.T) {
	var s core.VoteSet
	if !s.Mark(2) {
		t.Fatal("fresh Mark rejected")
	}
	if s.Mark(2) {
		t.Fatal("repeated Mark accepted")
	}
	if s.Add(vs(2)) {
		t.Fatal("Add accepted a voter already marked")
	}
	if s.Len() != 0 {
		t.Fatalf("marked-only set retains %d votes", s.Len())
	}
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1", s.Count())
	}
	if !s.Add(vs(3)) {
		t.Fatal("unrelated Add rejected")
	}
	if s.Len() != 1 || s.Count() != 2 {
		t.Fatalf("len=%d count=%d, want 1/2", s.Len(), s.Count())
	}
}

// TestVoteSetNilSafe pins that probing reads work on a nil set — the engines
// probe map entries without creating them.
func TestVoteSetNilSafe(t *testing.T) {
	var s *core.VoteSet
	if s.Has(0) {
		t.Fatal("nil set Has = true")
	}
	if s.Len() != 0 || s.Count() != 0 || s.Height() != 0 {
		t.Fatal("nil set reports non-zero size or height")
	}
	marked := &core.VoteSet{}
	marked.Mark(2)
	if marked.Height() != 0 {
		t.Fatal("Mark-only set claims a height")
	}
	marked.Add(types.Vote{Voter: 3, Height: 9})
	if marked.Height() != 9 {
		t.Fatalf("Height = %d, want the retained vote's 9", marked.Height())
	}
}
