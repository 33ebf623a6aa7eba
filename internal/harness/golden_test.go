package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/observer"
	"repro/internal/reference"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/sft"
)

// Golden trace pins: the cross-commit regression oracle. The determinism
// tests next door compare two runs of the SAME build, so a refactor that
// moves the trace passes them; these compare a run against fingerprints
// recorded at an earlier commit. A fingerprint folds fp() (commits, events,
// message accounting, latency summaries) together with every replica's
// committed (height, block id) chain, every replica's maximum strength per
// block, the committed state roots, the per-type message counts and the
// highest round any observed block carries.
//
// The constants were generated at commit 0685529 (the parent of the replica
// chassis extraction) with
//
//	SFT_GOLDEN_PRINT=1 go test ./internal/harness -run TestGoldenTraces -v
//
// which prints the table instead of comparing. Re-pin only for an intended
// protocol change, and write the reason next to the constant. Three were
// re-pinned when the per-block sync protocol (wire tags 6 and 7) gave way to
// state sync for the missing-parent case, and three when leader reputation
// became DiemBFT's only election.
var goldenPins = map[string]string{
	// Reputation: the crashed replica's failed slot makes the next rotation
	// skip it, so fewer rounds time out. The observer commits 378 blocks, was
	// 316 (the crashed replica stays at 260); timeouts 828 -> 720 messages.
	"diembft-marker-n7":    "8e1cb9f7599ba8865265b272cba0488d",
	"diembft-intervals-n7": "a8a02d7807912b372dd62498f375a1b2",
	"diembft-fbft-n4":      "533e25a0792b9bb8518eecf1fccdeb0d",
	// Reputation, as for the marker run: the crashed replica's slot is
	// skipped while it is down. 780 blocks committed, was 755; timeouts 324
	// -> 288; every replica, the restarted one included, ends within one.
	"diembft-bank-crash-n7": "d64088bbe546f644e1e7ec387ba99ff7",
	// The healed pair's catch-up traffic moved from message types 6/7 to 8/9
	// (3 requests, 3 responses, as before) and the response now carries the
	// tip's high QC: +1,455 wire bytes of 1.69 GB. Every replica's committed
	// chain, state roots and per-block maximum strength are the old pin's, as
	// are the block, event and message counts.
	// Re-pinned again when a leader whose high QC names a block it lacks
	// started asking a voter of that QC for it: the heal hands the next
	// leaders to the formerly cut pair, which now propose in their rounds
	// instead of letting them time out. The observer commits 650 blocks, was
	// 599 (every replica within one of it), timeouts fall from 392 to 308
	// messages, and the catch-up takes 2 requests and 2 responses, was 3.
	// Re-pinned a third time for reputation: the cut pair's failed slots are
	// skipped during the partition. The observer commits 676 blocks, was
	// 650, all seven end at 676, and timeouts fall 308 -> 276.
	"diembft-partition-n7":  "0c946061831880229793664197cc38ac",
	"diembft-ed25519agg-n7": "75a374a5e42046fddff3221fe9e5b320",
	// The restarted replica used to stay behind for good (it ended at 131 of
	// 217 committed heights): its boot-time state sync installed blocks but
	// nothing adopted the proposals parked on them, and a missing parent asked
	// nobody. It now also asks the proposer of its first orphan, adopts what
	// was parked and takes a child's justify as the certificate of a parent
	// whose votes it missed, so all seven end at 231 and its leader slots
	// stop being lost.
	"streamlet-echo-crash-n7": "d2324f2166bd27011c9ec61f3d0f8f89",
	// Same change, echo off and the bank on: the restarted replica ended at
	// 110 of 213 heights, now all seven end at 230.
	"streamlet-noecho-n7": "129680c5e7510f1f5dda1eed5e469658",
	// The voters ran the opt-in active pacemaker, which left with its
	// round-entry message (tag 10); they now run the default one with the same
	// leader-reputation window. The 22,554 round entries (30,052 messages,
	// now 7,496) no longer draw simnet jitter, so delivery times and with
	// them block timestamps and IDs move. What the run reaches does not: six
	// voters end at round 497 with 481 commits each, the observer at height
	// 162 with 164 certified blocks; the crashed replica ends at round 412
	// with 409 commits (was 411 and 408).
	"observer-diembft-n7": "375c641d3b81d05ea38543620208032c",
}

func goldenLatency() simnet.LatencyModel {
	return &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}
}

// goldenScenarios are the harness-run scenarios; the observer scenario is
// hand-wired below because the harness has no observer slot.
func goldenScenarios() []*Scenario {
	// Every scenario checks signatures under the simulated scheme; a further
	// sft.WithReference adds its arms to this one.
	base := func(name string, seed int64, opts ...sft.Option) *Scenario {
		return &Scenario{
			Name: name, N: 7, Seed: seed,
			Latency:         goldenLatency(),
			Duration:        12 * time.Second,
			RecordChains:    true,
			RecordStrengths: true,
			Options: append([]sft.Option{
				sft.WithRoundTimeout(300 * time.Millisecond),
				sft.WithReference(reference.Arms{VerifySignatures: true}),
			}, opts...),
		}
	}

	marker := base("diembft-marker-n7", 101, sft.WithExtraWait(3*time.Millisecond))
	marker.Crash = map[types.ReplicaID]time.Duration{5: 4 * time.Second}

	// Pre-GST delays beyond the round timeout force timeouts, TCs and orphaned
	// proposals before the run settles.
	intervals := base("diembft-intervals-n7", 102,
		sft.WithCommitRule(sft.CommitRule{Votes: sft.VoteIntervals, IntervalWindow: 32, Horizon: horizon(7)}))
	intervals.Latency = PreGST(goldenLatency(), 3*time.Second, 350*time.Millisecond)

	fbft := base("diembft-fbft-n4", 103, sft.WithReference(reference.Arms{Rule: reference.RuleFBFT}))
	fbft.N = 4
	fbft.Latency = simnet.NewSymmetricModel(4, 2, intraDelay, 20*time.Millisecond, 8*time.Millisecond)

	bankCfg := app.BankConfig{Seed: 104, Accounts: 1 << 10, InitialBalance: 1 << 20, DisableSigVerify: true}
	gen := workload.NewBank(104, bankCfg, 32)
	bank := base("diembft-bank-crash-n7", 104,
		sft.WithApp(func() sft.StateMachine { return app.NewBank(bankCfg) }),
		sft.WithPayloadNow(gen.Payload))
	bank.Crashes = []CrashPlan{{Replica: 3, Crash: 4 * time.Second, Restart: 7 * time.Second}}

	partition := base("diembft-partition-n7", 105, sft.WithPruneKeep(48))
	partition.Partitions = []PartitionPlan{{
		At: 3 * time.Second, Heal: 7 * time.Second,
		Groups: [][]types.ReplicaID{{5, 6}},
	}}

	agg := base("diembft-ed25519agg-n7", 106)
	agg.Scheme = crypto.SchemeEd25519Agg
	agg.Duration = 4 * time.Second

	streamEcho := base("streamlet-echo-crash-n7", 107, sft.WithEngine(sft.Streamlet), sft.WithDelta(25*time.Millisecond))
	streamEcho.Crashes = []CrashPlan{{Replica: 2, Crash: 4 * time.Second, Restart: 7 * time.Second}}

	streamBankCfg := app.BankConfig{Seed: 108, Accounts: 1 << 8, InitialBalance: 1 << 20, DisableSigVerify: true}
	streamGen := workload.NewBank(108, streamBankCfg, 8)
	streamNoEcho := base("streamlet-noecho-n7", 108,
		sft.WithEngine(sft.Streamlet), sft.WithDelta(25*time.Millisecond), sft.WithoutEcho(),
		sft.WithApp(func() sft.StateMachine { return app.NewBank(streamBankCfg) }),
		sft.WithPayloadNow(streamGen.Payload))
	streamNoEcho.Crashes = []CrashPlan{{Replica: 4, Crash: 3 * time.Second, Restart: 6 * time.Second}}

	return []*Scenario{marker, intervals, fbft, bank, partition, agg, streamEcho, streamNoEcho}
}

func TestGoldenTraces(t *testing.T) {
	printing := os.Getenv("SFT_GOLDEN_PRINT") != ""
	check := func(name, got string) {
		if printing {
			fmt.Printf("\t%q: %q,\n", name, got)
			return
		}
		if want := goldenPins[name]; got != want {
			t.Errorf("%s: trace fingerprint %s, pinned %s — behaviour changed since the pin was recorded", name, got, want)
		}
	}
	for _, sc := range goldenScenarios() {
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.CommittedBlocks == 0 {
			t.Fatalf("%s: committed nothing; the pin would be vacuous", sc.Name)
		}
		check(sc.Name, goldenHash(res))
	}
	check("observer-diembft-n7", goldenObserverRun(t))
}

// goldenHash reduces a Result to one hex digest over everything a fixed-seed
// run determines.
func goldenHash(res *Result) string {
	h := sha256.New()
	f := fp(res)
	fmt.Fprintf(h, "fp %d %d %d %v\n", f.Blocks, f.Txns, f.Events, f.Regular)
	hashMsgStats(h, res.Msgs)
	levels := make([]int, 0, len(f.Levels))
	for lv := range f.Levels {
		levels = append(levels, lv)
	}
	sort.Ints(levels)
	for _, lv := range levels {
		fmt.Fprintf(h, "level %d %v\n", lv, f.Levels[lv])
	}
	fmt.Fprintf(h, "drops %d executed %d\n", res.PartitionDrops, res.AppExecutedBlocks)

	var maxRound types.Round
	for _, b := range res.Blocks {
		if b.Round > maxRound {
			maxRound = b.Round
		}
	}
	fmt.Fprintf(h, "final-round %d\n", maxRound)

	for rep := types.ReplicaID(0); int(rep) < res.Scenario.N; rep++ {
		chain := res.Chains[rep]
		heights := make([]types.Height, 0, len(chain))
		for ht := range chain {
			heights = append(heights, ht)
		}
		sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
		for _, ht := range heights {
			fmt.Fprintf(h, "chain %d %d %x %x\n", rep, ht, chain[ht], res.AppHashes[rep][ht])
		}
		strengths := res.Strengths[rep]
		ids := make([]types.BlockID, 0, len(strengths))
		for id := range strengths {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return string(ids[i][:]) < string(ids[j][:]) })
		for _, id := range ids {
			fmt.Fprintf(h, "strength %d %x %d\n", rep, id, strengths[id])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func hashMsgStats(h hash.Hash, m simnet.MsgStats) {
	fmt.Fprintf(h, "msgs %d %d\n", m.Count, m.Bytes)
	kinds := make([]int, 0, len(m.ByType))
	for k := range m.ByType {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "msgtype %d %d\n", k, m.ByType[types.MsgType(k)])
	}
}

// goldenObserverRun feeds one observer engine the traffic of an n=7 DiemBFT
// cluster (leader reputation on) on simnet,
// cuts the observer off for a while so it has to buffer orphans and catch up
// through state sync, and digests the observer's whole output stream next to
// the voters' commit streams and final rounds.
func goldenObserverRun(t *testing.T) string {
	const n, f, seed = 7, 2, 109
	ring, err := crypto.NewKeyRing(n, seed, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	sim := simnet.New(simnet.Config{
		N: n, Observers: 1, Latency: goldenLatency(), Seed: seed,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			fmt.Fprintf(h, "commit %d %d %d %x\n", rep, now, b.Height, b.ID())
		},
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			fmt.Fprintf(h, "strength %d %d %x %d\n", rep, now, b.ID(), x)
		},
	})
	payload := workload.PaperPayload(seed, 4, 256)
	var voters []*diembft.Replica
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		eng, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID: id, N: n,
				Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
				Horizon: 2*n + 16, PayloadNow: payload,
			},
			RoundTimeout: 300 * time.Millisecond, MaxCommitLog: 8, PruneKeep: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		voters = append(voters, eng)
		sim.SetEngine(id, eng)
	}
	certified := 0
	obsEng, err := observer.New(observer.Config{
		ID: n, N: n, Mode: core.ModeRound, Verifier: ring, VerifySignatures: true,
		OnCertified: func(b *types.Block, qc *types.QC) {
			certified++
			fmt.Fprintf(h, "certified %d %x %d\n", b.Height, b.ID(), len(b.CommitLog))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEngine(n, obsEng)
	sim.CrashAt(6, 5*time.Second)
	sim.PartitionAt(2*time.Second, []types.ReplicaID{n})
	sim.HealAt(4 * time.Second)
	sim.Run(10 * time.Second)

	if certified == 0 || obsEng.CommittedHeight() == 0 {
		t.Fatalf("observer followed nothing (certified %d, height %d); the pin would be vacuous",
			certified, obsEng.CommittedHeight())
	}
	for i, v := range voters {
		fmt.Fprintf(h, "round %d %d\n", i, v.Round())
	}
	fmt.Fprintf(h, "observer height %d events %d\n", obsEng.CommittedHeight(), sim.Events())
	hashMsgStats(h, sim.Stats())
	return hex.EncodeToString(h.Sum(nil)[:16])
}
