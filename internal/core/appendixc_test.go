package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// TestAppendixCCounterExample replays the paper's Figure 9 script (f = 2,
// f+1 Byzantine replicas) against both endorsement-counting modes and
// checks:
//
//   - naive counting (every indirect vote counts) produces TWO conflicting
//     (f+1)-strong commits — the safety violation the appendix constructs;
//   - marker-based counting keeps branch A at f-strong, so Definition 1
//     holds (only one branch reaches (f+1)-strong under t = f+1 faults).
func TestAppendixCCounterExample(t *testing.T) {
	const f = 2
	const n = 3*f + 1
	h := []types.ReplicaID{0, 1, 2, 3} // h1..h4 honest
	byz := []types.ReplicaID{4, 5, 6}  // b1..b3 Byzantine

	type branch struct {
		main *types.Block // B_r
		fork *types.Block // B'_{r+4}
	}

	play := func(naive bool) (*core.Tracker, branch) {
		w := newWorld(t)
		tr := core.NewTracker(w.store, core.Config{N: n, F: f, Mode: core.ModeRound, Naive: naive})
		voted := make(map[types.ReplicaID][]*types.Block)

		marker := func(voter types.ReplicaID, target *types.Block, lie bool) types.Round {
			if lie {
				return 0
			}
			var m types.Round
			for _, b := range voted[voter] {
				if conflicts(w.store, b, target) && b.Round > m {
					m = b.Round
				}
			}
			return m
		}
		qc := func(b *types.Block, honest, lying []types.ReplicaID) *types.QC {
			var votes []types.Vote
			for _, v := range honest {
				votes = append(votes, types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height,
					Voter: v, Marker: marker(v, b, false)})
				voted[v] = append(voted[v], b)
			}
			for _, v := range lying {
				votes = append(votes, types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height,
					Voter: v, Marker: 0})
				voted[v] = append(voted[v], b)
			}
			return &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
		}

		g := w.store.Genesis()
		brm1 := w.mk(g, 4) // B_{r-1}, r = 5
		tr.OnQC(qc(brm1, h, byz[:1]))

		br := w.mk(brm1, 5) // B_r
		tr.OnQC(qc(br, h[:2], byz))

		ba1 := w.mk(br, 6) // B_{r+1}
		tr.OnQC(qc(ba1, h[:2], byz))
		bp1 := w.mk(brm1, 6) // B'_{r+1}: the equivocation
		tr.OnQC(qc(bp1, h[2:], byz))

		ba2 := w.mk(ba1, 7) // B_{r+2}: h3 switches over, 2f+2 votes
		tr.OnQC(qc(ba2, h[:3], byz))

		bb4 := w.mk(bp1, 9) // B'_{r+4}: branch B revived
		tr.OnQC(qc(bb4, h[2:], byz))
		bb5 := w.mk(bb4, 10)
		tr.OnQC(qc(bb5, h[1:], byz))
		bb6 := w.mk(bb5, 11)
		tr.OnQC(qc(bb6, h[1:], byz))
		bb7 := w.mk(bb6, 12)
		tr.OnQC(qc(bb7, h[1:], byz))

		return tr, branch{main: br, fork: bb4}
	}

	// Naive mode: both branches reach (f+1)-strong — safety violated.
	naiveTr, nb := play(true)
	a := naiveTr.Strength(nb.main)
	b := naiveTr.Strength(nb.fork)
	if a < f+1 || b < f+1 {
		t.Fatalf("naive counting should show the violation: branch A=%d, branch B=%d, want both >= %d", a, b, f+1)
	}

	// Marker mode: branch A stays at f-strong; only one (f+1)-strong branch.
	sftTr, sb := play(false)
	a = sftTr.Strength(sb.main)
	b = sftTr.Strength(sb.fork)
	if a != f {
		t.Errorf("marker mode branch A strength = %d, want exactly f=%d", a, f)
	}
	if b != f+1 {
		t.Errorf("marker mode branch B strength = %d, want f+1=%d", b, f+1)
	}
	if a >= f+1 && b >= f+1 {
		t.Fatal("marker mode violated Definition 1")
	}
}

// TestDefinition1Property fuzzes random fork/vote schedules (honest voters
// report truthful markers, Byzantine voters lie) and asserts the paper's
// safety property on every outcome: for any two conflicting blocks with
// strengths x <= x', the number of Byzantine voters must exceed x.
func TestDefinition1Property(t *testing.T) {
	const f = 2
	const n = 3*f + 1
	const byzCount = f + 1 // t = f+1 Byzantine replicas

	for seed := int64(0); seed < 30; seed++ {
		w := newWorld(t)
		tr := core.NewTracker(w.store, core.Config{N: n, F: f, Mode: core.ModeRound})
		voted := make(map[types.ReplicaID][]*types.Block)
		rng := newRand(seed)

		marker := func(voter types.ReplicaID, target *types.Block) types.Round {
			if int(voter) >= n-byzCount {
				return 0 // Byzantine: always lie low
			}
			var m types.Round
			for _, b := range voted[voter] {
				if conflicts(w.store, b, target) && b.Round > m {
					m = b.Round
				}
			}
			return m
		}

		// honestCanVote enforces the protocol's one-vote-per-round rule for
		// honest replicas (Byzantine ignore it).
		lastVoted := make(map[types.ReplicaID]types.Round)

		blocks := []*types.Block{w.store.Genesis()}
		for round := types.Round(1); round <= 24; round++ {
			parent := blocks[rng.Intn(len(blocks))]
			if parent.Round >= round {
				continue
			}
			b := w.mk(parent, round)
			blocks = append(blocks, b)
			// Random voter subset of size >= 2f+1.
			var votes []types.Vote
			for v := types.ReplicaID(0); int(v) < n; v++ {
				honest := int(v) < n-byzCount
				if honest && lastVoted[v] >= round {
					continue
				}
				if rng.Intn(4) == 0 { // some replicas miss the round
					continue
				}
				votes = append(votes, types.Vote{Block: b.ID(), Round: round, Height: b.Height,
					Voter: v, Marker: marker(v, b)})
				voted[v] = append(voted[v], b)
				if honest {
					lastVoted[v] = round
				}
			}
			if len(votes) < 2*f+1 {
				continue // no QC this round
			}
			tr.OnQC(&types.QC{Block: b.ID(), Round: round, Height: b.Height, Votes: votes})
		}

		// Definition 1 check over all conflicting pairs.
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
				lo := min(xa, xb)
				if lo >= byzCount {
					t.Fatalf("seed %d: conflicting blocks %v (x=%d) and %v (x=%d) both strong committed with only %d Byzantine",
						seed, a, xa, b, xb, byzCount)
				}
			}
		}
	}
}
