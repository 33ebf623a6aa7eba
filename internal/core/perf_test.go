package core

import (
	"fmt"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/types"
)

func TestEndorserSetBasics(t *testing.T) {
	s := newEndorserSet(10)
	if s.size() != 0 || s.countBelow(5) != 0 {
		t.Fatal("fresh set not empty")
	}
	if !s.add(3, 7) {
		t.Fatal("first add did not improve")
	}
	if s.add(3, 7) || s.add(3, 9) {
		t.Fatal("equal-or-higher key reported as improvement")
	}
	if !s.add(3, 2) {
		t.Fatal("lower key did not improve")
	}
	s.add(0, unconditional)
	s.add(9, 4)
	if got := s.size(); got != 3 {
		t.Fatalf("size=%d, want 3", got)
	}
	// countBelow(3): voter 3 (key 2), voter 0 (unconditional). Voter 9 (key 4) excluded.
	if got := s.countBelow(3); got != 2 {
		t.Fatalf("countBelow(3)=%d, want 2", got)
	}
	if got := s.countBelow(100); got != 3 {
		t.Fatalf("countBelow(100)=%d, want 3", got)
	}
}

func TestEndorserSetWordBoundaries(t *testing.T) {
	s := newEndorserSet(130)
	for _, v := range []types.ReplicaID{0, 63, 64, 127, 128, 129} {
		if !s.add(v, uint64(v)+1) {
			t.Fatalf("add(%d) did not improve", v)
		}
	}
	if s.size() != 6 {
		t.Fatalf("size=%d, want 6", s.size())
	}
	if got := s.countBelow(65); got != 2 { // keys 1 and 64
		t.Fatalf("countBelow(65)=%d, want 2", got)
	}
	// Out-of-range voters grow the set instead of panicking.
	if !s.add(500, 1) {
		t.Fatal("out-of-range add failed")
	}
	if s.size() != 7 {
		t.Fatalf("size=%d after grow, want 7", s.size())
	}
}

// buildChain makes a linear chain of n certified blocks and returns the
// store, the blocks, and one QC per block signed by voters [0, quorum).
func buildChain(tb testing.TB, n, voters int) (*blockstore.Store, []*types.Block, []*types.QC) {
	tb.Helper()
	store := blockstore.New()
	parent := store.Genesis()
	blocks := make([]*types.Block, 0, n)
	qcs := make([]*types.QC, 0, n)
	for i := 1; i <= n; i++ {
		b := types.NewBlock(parent.ID(), types.NewGenesisQC(parent.ID()), types.Round(i), types.Height(i), 0, int64(i), types.Payload{}, nil)
		if err := store.Insert(b); err != nil {
			tb.Fatal(err)
		}
		qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
		for v := 0; v < voters; v++ {
			qc.Votes = append(qc.Votes, types.Vote{
				Block: b.ID(), Round: b.Round, Height: b.Height, Voter: types.ReplicaID(v),
			})
		}
		qcs = append(qcs, qc)
		blocks = append(blocks, b)
		parent = b
	}
	return store, blocks, qcs
}

// BenchmarkTrackerOnQC measures the steady-state endorsement bookkeeping: a
// fresh QC arriving at the tip of a long chain, with marker-coverage making
// the walk O(1) per vote and the bitset sets avoiding per-vote hashing.
func BenchmarkTrackerOnQC(b *testing.B) {
	const chain = 256
	const n, f = 31, 10
	store, _, qcs := buildChain(b, chain, 2*f+1)
	tr := NewTracker(store, Config{N: n, F: f, Mode: ModeRound, Horizon: 2*n + 16})
	// Feed all but the last QC so the benchmark hits a warm tracker.
	for _, qc := range qcs[:chain-1] {
		tr.OnQC(qc)
	}
	last := qcs[chain-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset only the processed counter so the unpack path runs fully.
		tr.processed[last.Block] = 0
		tr.OnQC(last)
	}
}

// BenchmarkMarker measures the vote-marker computation against a deep chain
// and a full vote history — the single hottest path of the simulations
// before PR 1 made it one indexed walk.
func BenchmarkMarker(b *testing.B) {
	const chain = 256
	store, blocks, _ := buildChain(b, chain, 1)
	h := NewVoteHistory(store)
	for _, blk := range blocks[:chain-1] {
		h.RecordVote(blk)
	}
	target := blocks[chain-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := h.Marker(target); m != 0 {
			b.Fatalf("marker=%d on a fork-free chain", m)
		}
	}
}

// historySizes are the kept windows the O(changed) benchmarks run at: a step
// whose cost follows what changed reads the same at all three.
var historySizes = []int{64, 512, 4096}

// votedWindow returns a history that voted for the first window blocks of a
// forkless chain, asked about each first as an engine does, and the chain's
// remaining blocks.
func votedWindow(tb testing.TB, window, spare int) (*VoteHistory, []*types.Block) {
	store, blocks, _ := buildChain(tb, window+spare, 1)
	h := NewVoteHistory(store)
	for _, blk := range blocks[:window] {
		h.Marker(blk)
		h.RecordVote(blk)
	}
	return h, blocks[window:]
}

// voteStep is one vote's history work on a target extending the last one:
// the marker, the record, and the prune that keeps the window's size.
func voteStep(h *VoteHistory, target *types.Block, window int) types.Round {
	m := h.Marker(target)
	h.RecordVote(target)
	h.PruneBelow(target.Round - types.Round(window) + 1)
	return m
}

// TestAllocsMarkerExtend: in steady state a vote's history work allocates
// nothing (amortized: the window and the chain index are appended to at one
// end and re-sliced at the other, so they re-allocate once per few hundred
// votes).
func TestAllocsMarkerExtend(t *testing.T) {
	const window, runs = 512, 2000
	h, rest := votedWindow(t, window, runs+1)
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		if m := voteStep(h, rest[next], window); m != 0 {
			t.Fatalf("marker=%d on a fork-free chain", m)
		}
		next++
	}); a != 0 {
		t.Fatalf("Marker+RecordVote+PruneBelow on an extending target: %v allocs/op, want 0", a)
	}
	if h.Len() != window || len(h.open) != 0 {
		t.Fatalf("window holds %d votes, %d open; want %d and none", h.Len(), len(h.open), window)
	}
}

// BenchmarkMarkerExtend is the per-vote history cost on the honest path: the
// target extends the last one. It must read the same at every window.
func BenchmarkMarkerExtend(b *testing.B) {
	for _, window := range historySizes {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			const batch = 8192
			b.ReportAllocs()
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				h, rest := votedWindow(b, window, batch)
				b.StartTimer()
				for _, target := range rest[:min(batch, b.N-done)] {
					voteStep(h, target, window)
				}
			}
		})
	}
}

// BenchmarkMarkerForkSwitch is the cost of a target that does not extend the
// last one: the whole window is judged again, as every query used to be.
func BenchmarkMarkerForkSwitch(b *testing.B) {
	for _, window := range historySizes {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			h, rest := votedWindow(b, window, 1)
			tips := [2]*types.Block{rest[0]}
			tips[1] = types.NewBlock(rest[0].Parent, rest[0].Justify, rest[0].Round+1, rest[0].Height, 0, 0, types.Payload{}, nil)
			if err := h.store.Insert(tips[1]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m := h.Marker(tips[i&1]); m != 0 {
					b.Fatalf("marker=%d: neither tip was voted for", m)
				}
			}
		})
	}
}

// TestOnQCBeforeBlockIsNotRemembered: a certificate fed ahead of its block
// leaves nothing behind, so nothing outlives the prune that never sees the
// block, and the same certificate counts once the block is there. The direct
// tracker treats a vote the same way.
func TestOnQCBeforeBlockIsNotRemembered(t *testing.T) {
	store, blocks, qcs := buildChain(t, 2, 3)
	late := types.NewBlock(blocks[1].ID(), qcs[1], 3, 3, 0, 3, types.Payload{}, nil)
	qc := &types.QC{Block: late.ID(), Round: 3, Height: 3, Votes: []types.Vote{{Voter: 0}, {Voter: 1}, {Voter: 2}}}
	tr := NewTracker(store, Config{N: 4, F: 1, Mode: ModeRound})
	direct := NewDirectTracker(store, 1, nil)

	tr.OnQC(qc)
	direct.OnQC(qc)
	if n := len(tr.processed) + len(tr.endorsed) + len(tr.strength) + len(direct.votes); n != 0 {
		t.Fatalf("%d entries kept for a block the store does not hold", n)
	}
	if err := store.Insert(late); err != nil {
		t.Fatal(err)
	}
	tr.OnQC(qc)
	direct.OnQC(qc)
	if got := tr.Endorsers(late.ID()); got != 3 {
		t.Fatalf("re-fed certificate credited %d endorsers, want 3", got)
	}
	if got := direct.DirectVotes(late.ID()); got != 3 {
		t.Fatalf("re-fed certificate credited %d direct votes, want 3", got)
	}
}
