package harness_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/health"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestFullStackConsistency runs a 7-replica SFT cluster with per-replica
// ledgers and state machines, one straggler, and a health monitor, then
// checks the whole story end to end: linearizable logs agree, state
// machines agree, strength levels respect the straggler, and the monitor
// identifies it.
func TestFullStackConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	const (
		n         = 7
		f         = 2
		straggler = types.ReplicaID(5)
	)
	ring, err := crypto.NewKeyRing(n, 77, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}

	ledgers := make([]*Ledger, n)
	stores := make([]*KVStore, n)
	for i := range ledgers {
		stores[i] = NewKVStore()
		ledgers[i] = newLedger(stores[i])
	}
	monitor := health.NewMonitor(n, 2*n)

	sim := simnet.New(simnet.Config{
		N: n,
		Latency: &simnet.RegionModel{
			RegionOf: make([]int, n),
			Intra:    3 * time.Millisecond,
			Inter:    [][]time.Duration{{3 * time.Millisecond}},
			Jitter:   2 * time.Millisecond,
			Penalty:  map[types.ReplicaID]time.Duration{straggler: 40 * time.Millisecond},
		},
		Seed: 3,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			if err := ledgers[rep].Commit(b); err != nil {
				t.Errorf("replica %v ledger: %v", rep, err)
			}
			// Feed the health monitor from replica 0's chain view.
			if rep == 0 && b.Justify != nil {
				monitor.ObserveQC(b.Justify)
			}
		},
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			ledgers[rep].Strengthen(b.ID(), x)
		},
	})

	// A write-heavy workload over a small keyspace so state convergence is
	// meaningful.
	gen := workload.NewGenerator(5, 8, 0)
	payload := func(r types.Round) types.Payload {
		base := gen.Batch(4)
		for i := range base {
			base[i].Data = []byte{byte('a' + i%4), '=', byte('0' + r%10)}
		}
		return types.Payload{Txns: base}
	}
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		rep, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID: id, N: n, F: f,
				Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
				SFT:     true,
				Payload: payload,
			}, RoundTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(id, rep)
	}
	sim.Run(20 * time.Second)

	// 1. Logs are consistent prefixes of one another.
	if err := CheckPrefixConsistency(ledgers); err != nil {
		t.Fatalf("ledger divergence: %v", err)
	}
	if ledgers[0].Height() < 100 {
		t.Fatalf("only %d blocks committed", ledgers[0].Height())
	}

	// 2. State machines with equal heights agree exactly.
	h := ledgers[0].Height()
	for i := 1; i < n; i++ {
		if ledgers[i].Height() < h {
			h = ledgers[i].Height()
		}
	}
	if h == 0 {
		t.Fatal("no common committed prefix")
	}
	// Replay prefix h on fresh stores for an exact comparison.
	replay := func(l *Ledger) *KVStore {
		kv := NewKVStore()
		for hh := types.Height(1); hh <= h; hh++ {
			for _, txn := range l.At(hh).Block.Payload.Txns {
				kv.Apply(txn)
			}
		}
		return kv
	}
	ref := replay(ledgers[0])
	for i := 1; i < n; i++ {
		got := replay(ledgers[i])
		if got.Ops() != ref.Ops() || got.Len() != ref.Len() {
			t.Fatalf("state divergence at replica %d: ops %d vs %d", i, got.Ops(), ref.Ops())
		}
	}

	// 3. Strength levels in the middle of the log reached 2f eventually,
	// and the ledger's prefix-strength query works.
	mid := h / 2
	if x := ledgers[0].StrengthAt(mid); x != 2*f {
		t.Errorf("mid-log block strength = %d, want %d", x, 2*f)
	}
	if x := ledgers[0].MinStrengthOver(mid, mid+5); x < f {
		t.Errorf("prefix strength = %d", x)
	}

	// 4. The health monitor flags the straggler (whose votes never enter
	// QCs except when it leads) as the diversity bottleneck: it appears far
	// less often than its peers.
	counts := monitor.AppearanceCounts()
	avg := 0
	for id, c := range counts {
		if types.ReplicaID(id) != straggler {
			avg += c
		}
	}
	avg /= n - 1
	if counts[straggler] >= avg/2 {
		t.Errorf("straggler appears %d times vs avg %d — monitor sees no difference", counts[straggler], avg)
	}
	if monitor.MaxLevel(f) < f {
		t.Errorf("monitor max level = %d", monitor.MaxLevel(f))
	}
}
