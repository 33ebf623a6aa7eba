package core

import (
	"fmt"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/types"
)

func TestEndorserSetBasics(t *testing.T) {
	const n = 10
	s := &record{}
	if s.size() != 0 || s.countBelow(5) != 0 || (*record)(nil).size() != 0 || (*record)(nil).countBelow(5) != 0 {
		t.Fatal("fresh set not empty")
	}
	if !s.add(3, 7, n) {
		t.Fatal("first add did not improve")
	}
	if s.add(3, 7, n) || s.add(3, 9, n) {
		t.Fatal("equal-or-higher key reported as improvement")
	}
	if !s.add(3, 2, n) {
		t.Fatal("lower key did not improve")
	}
	s.add(0, unconditional, n)
	s.add(9, 4, n)
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
	const n = 130
	s := &record{}
	for _, v := range []types.ReplicaID{0, 63, 64, 127, 128, 129} {
		if !s.add(v, uint64(v)+1, n) {
			t.Fatalf("add(%d) did not improve", v)
		}
	}
	if s.size() != 6 {
		t.Fatalf("size=%d, want 6", s.size())
	}
	if got := s.countBelow(65); got != 2 { // keys 1 and 64
		t.Fatalf("countBelow(65)=%d, want 2", got)
	}
	// Out-of-range voters grow the set instead of panicking, and growing
	// keeps what was there.
	if !s.add(500, 1, n) {
		t.Fatal("out-of-range add failed")
	}
	if s.size() != 7 || s.countBelow(65) != 3 || s.add(129, 130, n) {
		t.Fatalf("size=%d, countBelow(65)=%d after grow, want 7 and 3, voter 129 kept", s.size(), s.countBelow(65))
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

// BenchmarkTrackerOnQC measures the already-covered fast path: one
// certificate at the tip of a long warm chain unpacked again and again, every
// vote stopping at the certified block's own record.
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
	tr.OnQC(last)
	rec := recordAt(store.Node(last.Height, last.Block))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset only the processed counter so the unpack path runs fully.
		rec.processed = 0
		tr.OnQC(last)
	}
}

// markVotes gives vote i of every certificate the marker marks[i%len(marks)].
// With three marks it is the shape after partitions: most voters carry 0, the
// voters of each earlier minority side their fork round.
func markVotes(qcs []*types.QC, marks ...types.Round) {
	for _, qc := range qcs {
		for i := range qc.Votes {
			qc.Votes[i].Marker = marks[i%len(marks)]
		}
	}
}

// BenchmarkTrackerOnQCFresh is the shape of the bench's core.tracker_onqc_ns
// probe and of a simulation's steady state at the paper's scale: n=100,
// 67-vote certificates, each new to a tracker warm on a 256-block chain, so
// every vote is a new direct endorsement plus one ancestor hop and every
// certificate a new record.
func BenchmarkTrackerOnQCFresh(b *testing.B) { benchmarkFresh(b) }

// BenchmarkTrackerOnQCMixedMarkers is BenchmarkTrackerOnQCFresh after
// partitions: the 67 votes carry three distinct markers, so every record
// holds three key classes.
func BenchmarkTrackerOnQCMixedMarkers(b *testing.B) { benchmarkFresh(b, 0, 3, 7) }

func benchmarkFresh(b *testing.B, marks ...types.Round) {
	const warm, batch = 256, 2048
	const n, f = 100, 33
	b.ReportAllocs()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		store, _, qcs := buildChain(b, warm+batch, 2*f+1)
		if len(marks) > 0 {
			markVotes(qcs, marks...)
		}
		tr := NewTracker(store, Config{N: n, F: f, Mode: ModeRound, Horizon: 2*n + 16})
		for _, qc := range qcs[:warm] {
			tr.OnQC(qc)
		}
		b.StartTimer()
		for _, qc := range qcs[warm:][:min(batch, b.N-done)] {
			tr.OnQC(qc)
		}
	}
}

// TestAllocsTrackerOnQC: a re-delivered certificate and one whose votes are
// all covered already allocate nothing; a certificate for a fresh block
// allocates its record and the record's one backing array, with one key class
// or with three.
func TestAllocsTrackerOnQC(t *testing.T) {
	for _, marks := range [][]types.Round{{0}, {0, 3, 7}} {
		t.Run(fmt.Sprintf("markers=%v", marks), func(t *testing.T) {
			const warm, runs = 64, 200
			const n, f = 100, 33
			store, blocks, qcs := buildChain(t, warm+runs+1, 2*f+1)
			markVotes(qcs, marks...)
			tr := NewTracker(store, Config{N: n, F: f, Mode: ModeRound, Horizon: 2*n + 16})
			for _, qc := range qcs[:warm] {
				tr.OnQC(qc)
			}
			last := qcs[warm-1]
			if a := testing.AllocsPerRun(runs, func() { tr.OnQC(last) }); a != 0 {
				t.Fatalf("re-delivered certificate: %v allocs/op, want 0", a)
			}
			rec := recordAt(store.Node(last.Height, last.Block))
			if a := testing.AllocsPerRun(runs, func() {
				rec.processed = 0
				tr.OnQC(last)
			}); a != 0 {
				t.Fatalf("already-covered certificate: %v allocs/op, want 0", a)
			}
			next := warm
			if a := testing.AllocsPerRun(runs, func() {
				tr.OnQC(qcs[next])
				next++
			}); a > 2 {
				t.Fatalf("certificate for a fresh block: %v allocs/op, want at most 2", a)
			}
			if got := tr.Strength(blocks[next-3]); got != f {
				t.Fatalf("block under a 3-chain of fresh certificates has strength %d, want %d", got, f)
			}
			if got := recordAt(store.Node(qcs[next-1].Height, qcs[next-1].Block)).classes(); got != len(marks) {
				t.Fatalf("fresh block holds %d key classes, want %d", got, len(marks))
			}
		})
	}
}

// TestRecordFootprint: at n=100 a block whose endorsers carry two distinct
// keys stores its presence bitset and two key classes in at most 8 words,
// where a per-replica key array took 102; a voter whose key drops moves class
// and leaves no empty one behind.
func TestRecordFootprint(t *testing.T) {
	const n, f = 100, 33
	store, _, qcs := buildChain(t, 8, 2*f+1)
	markVotes(qcs, 0, 0, 4)
	tr := NewTracker(store, Config{N: n, F: f, Mode: ModeRound})
	for _, qc := range qcs {
		tr.OnQC(qc)
	}
	rec := recordAt(store.Node(qcs[5].Height, qcs[5].Block))
	if rec.classes() != 2 || rec.size() != 2*f+1 || cap(rec.set) > 8 {
		t.Fatalf("record holds %d endorsers in %d classes, %d words; want %d in 2, at most 8", rec.size(), rec.classes(), cap(rec.set), 2*f+1)
	}
	if got := rec.countBelow(1); got != 2*f+1-(2*f+1)/3 {
		t.Fatalf("%d endorsers below key 1, want the %d with marker 0", got, 2*f+1-(2*f+1)/3)
	}
	for v := 2; v < 2*f+1; v += 3 { // the marker-4 voters, now at key 0
		rec.add(types.ReplicaID(v), 0, n)
	}
	if rec.classes() != 1 || rec.countBelow(1) != 2*f+1 || cap(rec.set) > 8 {
		t.Fatalf("after the moves: %d classes, %d below key 1, %d words; want 1, %d, at most 8", rec.classes(), rec.countBelow(1), cap(rec.set), 2*f+1)
	}
}

// TestScratchHoldsNoNodeBetweenCalls: the worklists are cleared after use, not
// just re-sliced, so a long catch-up walk leaves no node behind in their
// arrays for a later prune to find still referenced.
func TestScratchHoldsNoNodeBetweenCalls(t *testing.T) {
	const chain = 40
	store, _, qcs := buildChain(t, chain+1, 3)
	tr := NewTracker(store, Config{N: 4, F: 1, Mode: ModeRound})
	tr.OnQC(qcs[chain-1]) // the first certificate seen: every vote walks to genesis
	if cap(tr.changed) < chain {
		t.Fatalf("catch-up walk grew the worklist to %d; the test needs a long one", cap(tr.changed))
	}
	tr.OnQC(qcs[chain]) // one fresh block over a covered chain
	for name, scratch := range map[string][]*blockstore.Node{"changed": tr.changed, "candidates": tr.candidates} {
		if len(scratch) != 0 {
			t.Fatalf("%s has length %d between calls", name, len(scratch))
		}
		for i, n := range scratch[:cap(scratch)] {
			if n != nil {
				t.Fatalf("%s[%d] still holds %v", name, i, n.Block())
			}
		}
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
// nothing: the vote takes the place of the leaf it extends, so the leaves
// never grow on a fork-free chain.
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
	if h.Len() != 1 || h.leaves[0].node.Block() != rest[next-1] || h.leaves[0].rel != onChain {
		t.Fatalf("history holds %d votes; want one, the last vote, on the base's chain", h.Len())
	}
}

// TestAllocsHistoryFlat: along a fork-free chain of 20,000 votes, each asked
// about first as an engine does, a vote's history work allocates nothing and
// the history holds one leaf in one slot throughout: it keeps one vote per
// fork, however many votes the chain took.
func TestAllocsHistoryFlat(t *testing.T) {
	const votes = 20000
	store, blocks, _ := buildChain(t, votes, 1)
	h := NewVoteHistory(store)
	next := 0
	if a := testing.AllocsPerRun(votes-1, func() { // AllocsPerRun makes runs+1 calls
		b := blocks[next]
		next++
		if m := h.Marker(b); m != 0 {
			t.Fatalf("vote %d: marker=%d on a fork-free chain", next, m)
		}
		h.RecordVote(b)
		if h.Len() != 1 || h.Capacity() != 1 {
			t.Fatalf("vote %d: history holds %d votes in %d slots, want one in one", next, h.Len(), h.Capacity())
		}
	}); a != 0 {
		t.Fatalf("Marker+RecordVote: %v allocs per vote, want 0", a)
	}
	if next != votes {
		t.Fatalf("%d votes recorded, want %d", next, votes)
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
// last one: the leaves are judged again, one ancestor lookup each. It must
// read the same at every window.
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
// leaves nothing behind, and the same certificate counts once the block is
// there. The direct tracker, on a store of its own, treats a vote the same way.
func TestOnQCBeforeBlockIsNotRemembered(t *testing.T) {
	store, blocks, qcs := buildChain(t, 2, 3)
	directStore, _, _ := buildChain(t, 2, 3)
	late := types.NewBlock(blocks[1].ID(), qcs[1], 3, 3, 0, 3, types.Payload{}, nil)
	qc := &types.QC{Block: late.ID(), Round: 3, Height: 3, Votes: []types.Vote{{Voter: 0}, {Voter: 1}, {Voter: 2}}}
	tr := NewTracker(store, Config{N: 4, F: 1, Mode: ModeRound})
	direct := NewDirectTracker(directStore, 1, nil)

	tr.OnQC(qc)
	direct.OnQC(qc)
	if e, x, d := tr.Endorsers(late), tr.Strength(late), direct.DirectVotes(late); e != 0 || x != -1 || d != 0 {
		t.Fatalf("a block the store does not hold has %d endorsers, strength %d, %d direct votes", e, x, d)
	}
	for _, s := range []*blockstore.Store{store, directStore} {
		for _, b := range blocks {
			if s.Node(b.Height, b.ID()).Record != nil {
				t.Fatalf("the early certificate left a record on %v", b)
			}
		}
		if err := s.Insert(late); err != nil {
			t.Fatal(err)
		}
	}
	tr.OnQC(qc)
	direct.OnQC(qc)
	if got := tr.Endorsers(late); got != 3 {
		t.Fatalf("re-fed certificate credited %d endorsers, want 3", got)
	}
	if got := direct.DirectVotes(late); got != 3 {
		t.Fatalf("re-fed certificate credited %d direct votes, want 3", got)
	}
}
