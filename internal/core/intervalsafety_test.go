package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intervals"
	"repro/internal/types"
)

// TestDefinition1PropertyIntervalVotes repeats the Definition 1 fuzz with
// Section 3.4 generalized interval votes: honest voters compute truthful
// interval sets (I = [1, r] minus the per-fork exclusion intervals),
// Byzantine voters claim full intervals. Safety must hold for every random
// fork schedule.
func TestDefinition1PropertyIntervalVotes(t *testing.T) {
	const f = 2
	const n = 3*f + 1
	const byzCount = f + 1

	for seed := int64(0); seed < 30; seed++ {
		w := newWorld(t)
		tr := core.NewTracker(w.store, core.Config{N: n, F: f, Mode: core.ModeRound})
		histories := make([]*core.VoteHistory, n)
		for i := range histories {
			histories[i] = core.NewVoteHistory(w.store)
		}
		rng := newRand(seed)
		lastVoted := make(map[types.ReplicaID]types.Round)

		blocks := []*types.Block{w.store.Genesis()}
		for round := types.Round(1); round <= 24; round++ {
			parent := blocks[rng.Intn(len(blocks))]
			if parent.Round >= round {
				continue
			}
			b := w.mk(parent, round)
			blocks = append(blocks, b)
			var votes []types.Vote
			for v := types.ReplicaID(0); int(v) < n; v++ {
				honest := int(v) < n-byzCount
				if honest && lastVoted[v] >= round {
					continue
				}
				if rng.Intn(4) == 0 {
					continue
				}
				vote := types.Vote{
					Block: b.ID(), Round: round, Height: b.Height, Voter: v,
					HasIntervals: true,
				}
				if honest {
					vote.Intervals = histories[v].Intervals(b, 0)
					histories[v].RecordVote(b)
					lastVoted[v] = round
				} else {
					// Byzantine: lie maximally.
					vote.Intervals = intervals.Full(uint64(round))
				}
				votes = append(votes, vote)
			}
			if len(votes) < 2*f+1 {
				continue
			}
			tr.OnQC(&types.QC{Block: b.ID(), Round: round, Height: b.Height, Votes: votes})
		}

		for i := 1; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				a, b := blocks[i], blocks[j]
				if !conflicts(w.store, a, b) {
					continue
				}
				xa, xb := tr.Strength(a), tr.Strength(b)
				if xa < 0 || xb < 0 {
					continue
				}
				if min(xa, xb) >= byzCount {
					t.Fatalf("seed %d: conflicting %v (x=%d) and %v (x=%d) with %d Byzantine",
						seed, a, xa, b, xb, byzCount)
				}
			}
		}
	}
}

// TestIntervalVotesEndorseAtLeastMarkerVotes: for identical histories, the
// interval vote endorses a superset of what the single-marker vote
// endorses — the paper's claim that richer votes only improve liveness,
// never change safety.
func TestIntervalVotesEndorseAtLeastMarkerVotes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		w := newWorld(t)
		h := core.NewVoteHistory(w.store)
		rng := newRand(seed + 100)

		blocks := []*types.Block{w.store.Genesis()}
		var lastVote types.Round
		for round := types.Round(1); round <= 16; round++ {
			parent := blocks[rng.Intn(len(blocks))]
			if parent.Round >= round {
				continue
			}
			b := w.mk(parent, round)
			blocks = append(blocks, b)
			if round > lastVote && rng.Intn(3) > 0 {
				h.RecordVote(b)
				lastVote = round
			}
		}
		tip := blocks[len(blocks)-1]
		marker := h.Marker(tip)
		set := h.Intervals(tip, 0)
		for r := types.Round(1); r <= tip.Round; r++ {
			markerEndorses := marker < r
			if markerEndorses && !set.Contains(uint64(r)) {
				t.Fatalf("seed %d: marker %d endorses round %d but interval %s does not",
					seed, marker, r, set)
			}
		}
	}
}
