package diembft_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
)

// corrupt swaps replica id's engine for one wrapped with the given
// adversary behaviors (the subsystem that replaced the old engine-level
// Misbehavior knobs). Call after buildCluster, before Run.
func corrupt(t *testing.T, sim *simnet.Sim, rep *diembft.Replica, n int, specs ...adversary.Spec) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 42, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	var eng engine.Engine
	eng, err = adversary.Wrap(rep, adversary.Config{
		ID: rep.ID(), N: n, Signer: ring.Signer(rep.ID()), Seed: int64(rep.ID()) + 1,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEngine(rep.ID(), eng)
}

// TestSafetyUnderEquivocatingLeader: one Byzantine equivocator (t = f) must
// never cause honest replicas to commit divergent prefixes.
func TestSafetyUnderEquivocatingLeader(t *testing.T) {
	commits := make(map[types.ReplicaID][]types.BlockID)
	simCfg := simnet.Config{
		Seed: 21,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b.ID())
		},
	}
	sim, reps := buildCluster(t, 4, 1, nil, simCfg)
	corrupt(t, sim, reps[2], 4, adversary.Spec{Kind: adversary.Equivocate})
	sim.Run(5 * time.Second)

	honest := []types.ReplicaID{0, 1, 3}
	for _, id := range honest {
		if len(commits[id]) < 5 {
			t.Fatalf("replica %v committed only %d blocks under equivocation", id, len(commits[id]))
		}
	}
	ref := commits[0]
	for _, id := range honest[1:] {
		other := commits[id]
		for i := 0; i < min(len(ref), len(other)); i++ {
			if ref[i] != other[i] {
				t.Fatalf("SAFETY VIOLATION: divergence at %d between 0 and %v", i, id)
			}
		}
	}
}

// TestIntervalVoteMode: the generalized §3.4 votes work end to end and, in a
// fault-free cluster, produce the same 2f-strong outcomes as markers.
func TestIntervalVoteMode(t *testing.T) {
	best := make(map[types.BlockID]int)
	simCfg := simnet.Config{
		Seed: 22,
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep == 0 && x > best[b.ID()] {
				best[b.ID()] = x
			}
		},
	}
	sim, _ := buildCluster(t, 4, 1, func(id types.ReplicaID, c *diembft.Config) {
		c.VoteMode = diembft.VoteIntervals
		c.IntervalWindow = 64
	}, simCfg)
	sim.Run(3 * time.Second)

	reached := 0
	for _, x := range best {
		if x == 2 {
			reached++
		}
	}
	if reached < 10 {
		t.Fatalf("interval mode reached 2f on only %d blocks", reached)
	}
}

// TestWithholdingVotesCapsStrength: with one silent Byzantine replica
// (t = f = 1 at n = 4) the maximum achievable strength is 2f - t = f; the
// liveness bound of Definition 2.
func TestWithholdingVotesCapsStrength(t *testing.T) {
	best := make(map[types.BlockID]int)
	simCfg := simnet.Config{
		Seed: 23,
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep == 0 && x > best[b.ID()] {
				best[b.ID()] = x
			}
		},
	}
	sim, reps := buildCluster(t, 4, 1, nil, simCfg)
	corrupt(t, sim, reps[3], 4, adversary.Spec{Kind: adversary.Withhold})
	sim.Run(5 * time.Second)

	if len(best) == 0 {
		t.Fatal("no strong commits with one silent replica")
	}
	for id, x := range best {
		if x > 1 { // 2f - t = 1
			t.Fatalf("block %v reached %d-strong with a silent replica (max 1)", id, x)
		}
	}
}

// TestFBFTExtraVotesRaiseStrength: the Appendix B baseline reaches 2f-strong
// through leader-relayed late votes.
func TestFBFTExtraVotesRaiseStrength(t *testing.T) {
	best := make(map[types.BlockID]int)
	var extraVotes int
	simCfg := simnet.Config{
		Seed: 24,
		// A straggler whose votes always miss the QC window.
		Latency: &simnet.RegionModel{
			RegionOf: []int{0, 0, 0, 0},
			Intra:    2 * time.Millisecond,
			Inter:    [][]time.Duration{{2 * time.Millisecond}},
			Penalty:  map[types.ReplicaID]time.Duration{3: 30 * time.Millisecond},
		},
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep == 0 && x > best[b.ID()] {
				best[b.ID()] = x
			}
		},
	}
	sim, _ := buildCluster(t, 4, 1, func(id types.ReplicaID, c *diembft.Config) {
		c.Rule = replica.RuleFBFT
	}, simCfg)
	sim.Run(4 * time.Second)
	extraVotes = int(sim.Stats().ByType[types.MsgExtraVote])

	if extraVotes == 0 {
		t.Fatal("FBFT relayed no extra votes despite a straggler")
	}
	reached := 0
	for _, x := range best {
		if x == 2 {
			reached++
		}
	}
	if reached < 5 {
		t.Fatalf("FBFT reached 2f on only %d blocks (extra votes: %d)", reached, extraVotes)
	}
}

// TestCommitLogAttached: with MaxCommitLog set, proposals carry §5 strength
// records.
func TestCommitLogAttached(t *testing.T) {
	var logged int
	simCfg := simnet.Config{
		Seed: 25,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			logged += len(b.CommitLog)
		},
	}
	sim, _ := buildCluster(t, 4, 1, func(id types.ReplicaID, c *diembft.Config) {
		c.MaxCommitLog = 8
	}, simCfg)
	sim.Run(2 * time.Second)
	if logged == 0 {
		t.Fatal("no strength records in committed blocks")
	}
}

// TestPartialSynchronyRecovery: with long pre-GST delays the cluster stalls
// (timeouts), then recovers and commits after GST — the liveness property.
func TestPartialSynchronyRecovery(t *testing.T) {
	const gst = 3 * time.Second
	var beforeGST, afterGST int
	lat := &preGST{gst: gst, extra: 2 * time.Second} // far beyond the round timeout
	simCfg := simnet.Config{
		Seed:    26,
		Latency: lat,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			if rep != 0 {
				return
			}
			if now < gst {
				beforeGST++
			} else {
				afterGST++
			}
		},
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	lat.clock = sim
	sim.Run(8 * time.Second)

	if afterGST < 10 {
		t.Fatalf("only %d commits after GST (before: %d)", afterGST, beforeGST)
	}
}

// preGST is buildCluster's default latency plus extra on every delivery sent
// before virtual time gst.
type preGST struct {
	clock      *simnet.Sim
	gst, extra time.Duration
}

func (p *preGST) Delay(from, to types.ReplicaID, size int, rng *rand.Rand) time.Duration {
	d := (&simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: time.Millisecond}).Delay(from, to, size, rng)
	if p.clock.Now() < p.gst {
		d += p.extra
	}
	return d
}

// TestPruningKeepsLiveness: aggressive pruning must not break long runs.
func TestPruningKeepsLiveness(t *testing.T) {
	var commits int
	var replicas []*diembft.Replica
	simCfg := simnet.Config{
		Seed: 27,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			if rep == 0 {
				commits++
			}
		},
	}
	sim, reps := buildCluster(t, 4, 1, func(id types.ReplicaID, c *diembft.Config) {
		c.PruneKeep = 16
	}, simCfg)
	replicas = reps
	sim.Run(10 * time.Second)

	if commits < 100 {
		t.Fatalf("pruned cluster committed only %d blocks", commits)
	}
	// Stores must stay bounded: committed ~900 blocks, keep window 16 plus
	// slack.
	for _, r := range replicas {
		if r.Store().Len() > 200 {
			t.Fatalf("replica %v store grew to %d blocks despite pruning", r.ID(), r.Store().Len())
		}
	}
}

// TestDynamicExtraWait: ExtraWaitFor applies the Figure 8 wait to selected
// rounds only (the paper's dynamic per-block strategy).
func TestDynamicExtraWait(t *testing.T) {
	best := make(map[types.Round]int) // strength by block round
	rounds := make(map[types.BlockID]types.Round)
	simCfg := simnet.Config{
		Seed: 28,
		Latency: &simnet.RegionModel{
			RegionOf: []int{0, 0, 0, 0},
			Intra:    2 * time.Millisecond,
			Inter:    [][]time.Duration{{2 * time.Millisecond}},
			Penalty:  map[types.ReplicaID]time.Duration{3: 25 * time.Millisecond},
		},
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep != 0 {
				return
			}
			rounds[b.ID()] = b.Round
			if x > best[b.Round] {
				best[b.Round] = x
			}
		},
	}
	// Wait only on rounds divisible by 10: those QCs catch the straggler.
	sim, _ := buildCluster(t, 4, 1, func(id types.ReplicaID, c *diembft.Config) {
		c.ExtraWaitFor = func(r types.Round) time.Duration {
			if r%10 == 0 {
				return 80 * time.Millisecond
			}
			return 0
		}
	}, simCfg)
	sim.Run(4 * time.Second)

	// Blocks certified in waited rounds (round % 10 == 0) gain full
	// strength immediately; count how many reached 2f overall as a sanity
	// signal that the selective wait worked.
	reached := 0
	for _, x := range best {
		if x == 2 {
			reached++
		}
	}
	if reached == 0 {
		t.Fatal("dynamic extra wait produced no 2f-strong commits")
	}
}
