package core

import (
	"sort"

	"repro/internal/types"
)

// VoteSet collects the votes for one block: a voter bitmap for O(1) dedup
// plus a dense array of the accepted votes. It replaces the engines'
// map[ReplicaID]Vote inner maps, which cost a map allocation per candidate
// block and hashing per vote — at n=101 with a handful of candidate blocks in
// flight that map-of-maps bookkeeping was the last super-linear term on the
// vote path. The bitmap doubles as the seed for the compact certificate's
// signer bitmap (types.AggCert).
//
// Mark records a voter without retaining a vote; the engines use it to
// reinstate "already seen" state from the journal so a replayed vote is
// deduplicated but never double-counted toward a new certificate.
type VoteSet struct {
	words  []uint64
	votes  []types.Vote
	marked int
}

// Mark records the voter's bit and reports whether it was newly set.
func (s *VoteSet) Mark(id types.ReplicaID) bool {
	w := int(id) >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	bit := uint64(1) << (id & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.marked++
	return true
}

// Has reports whether the voter's bit is set (whether via Add or Mark).
// Safe on a nil set, so callers can probe a map entry without creating it.
func (s *VoteSet) Has(id types.ReplicaID) bool {
	if s == nil {
		return false
	}
	w := int(id) >> 6
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

// Add retains the vote unless its voter is already present, reporting
// whether it was accepted.
func (s *VoteSet) Add(v types.Vote) bool {
	if !s.Mark(v.Voter) {
		return false
	}
	s.votes = append(s.votes, v)
	return true
}

// Len returns the number of retained votes (Add calls, not Mark calls).
// Safe on a nil set.
func (s *VoteSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.votes)
}

// Height returns the height the retained votes claim for their block (0 for
// a nil, empty or Mark-only set). Engines prune sets of long-committed blocks
// by it, including sets whose block never arrived.
func (s *VoteSet) Height() types.Height {
	if s.Len() == 0 {
		return 0
	}
	return s.votes[0].Height
}

// Count returns the number of distinct voters seen via Add or Mark.
// Safe on a nil set.
func (s *VoteSet) Count() int {
	if s == nil {
		return 0
	}
	return s.marked
}

// Sorted returns a fresh slice of the retained votes in ascending voter
// order — the canonical order certificates are assembled in, so QCs formed
// from a VoteSet are byte-identical to those the map-based collection
// produced.
func (s *VoteSet) Sorted() []types.Vote {
	out := make([]types.Vote, len(s.votes))
	copy(out, s.votes)
	sort.Slice(out, func(i, j int) bool { return out[i].Voter < out[j].Voter })
	return out
}
