// Operations demo (§5): running a cluster with the operational tooling the
// paper sketches — a health monitor that detects stragglers from strong-QC
// diversity, the conflicting-transaction gate that holds a sender's
// follow-up transactions until its high-valued transaction is strong
// committed at the required level, and the durability layer's
// kill → restart → state-sync-rejoin cycle: one replica is killed mid-run,
// shows up in the monitor's straggler report while down, and after being
// restored from its write-ahead log catches back up and disappears from it.
//
// Everything is composed through the sft facade: the victim runs with
// WithWAL, the kill is Simnet.CrashAt, and Simnet.RestartAt rebuilds it
// from the log through the same composition path that built it.
//
//	go run ./examples/operations
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/health"
	"repro/internal/mempool"
	"repro/sft"
)

func main() {
	const (
		n         = 7
		f         = 2
		seed      = 13
		straggler = sft.ReplicaID(4)
		victim    = sft.ReplicaID(5)
		crashAt   = 6 * time.Second
		restartAt = 12 * time.Second
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		log.Fatal(err)
	}

	monitor := health.NewMonitor(n, 2*n)
	pool := mempool.New(0)
	gate := mempool.NewConflictGate(pool)

	// Submit a high-valued transaction that demands a 2f-strong commit,
	// plus follow-ups from the same sender that must wait for it.
	gate.Submit(sft.Transaction{Sender: 7, Seq: 1, Data: []byte("pay=1_000_000")}, 2*f)
	gate.Submit(sft.Transaction{Sender: 7, Seq: 2, Data: []byte("pay=5")}, 0)
	gate.Submit(sft.Transaction{Sender: 8, Seq: 1, Data: []byte("pay=1")}, 0)
	fmt.Printf("submitted: 1 gated high-value txn, %d held follow-up(s), 1 free txn\n\n", gate.Held())

	world, err := sft.NewSimnet(sft.SimnetConfig{
		N: n,
		Latency: &sft.RegionLatency{
			RegionOf: make([]int, n),
			Intra:    4 * time.Millisecond,
			Inter:    [][]time.Duration{{4 * time.Millisecond}},
			Jitter:   2 * time.Millisecond,
			Penalty:  map[sft.ReplicaID]time.Duration{straggler: 50 * time.Millisecond},
		},
		Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Replica 0 drives the operational tooling from its commit-strength
	// stream: QCs feed the health monitor, inclusions and strength updates
	// drive the conflict gate.
	var releasedAt time.Duration
	observe := func(ev sft.CommitEvent) {
		if ev.Regular {
			if ev.Block.Justify != nil {
				monitor.ObserveQC(ev.Block.Justify)
			}
			gate.OnIncluded(ev.Block.ID(), ev.Block.Payload.Txns)
			return
		}
		held := gate.Held()
		gate.OnStrengthened(ev.Block.ID(), ev.Strength)
		if held > 0 && gate.Held() == 0 && releasedAt == 0 {
			releasedAt = ev.Time
		}
	}

	// The victim runs journal-backed so the kill at 6s is survivable: at
	// 12s it is rebuilt from its WAL and re-joins via state sync.
	walDir, err := os.MkdirTemp("", "sft-operations-wal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(sft.DiemBFT),
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(600 * time.Millisecond),
		}
		if id == 0 {
			// Replica 0's proposals drain the gated pool; other replicas
			// propose empty blocks.
			opts = append(opts,
				sft.WithPayloadNow(func(sft.Round, time.Duration) sft.Payload {
					return sft.Payload{Txns: pool.Batch(16)}
				}),
				sft.WithObserver(observe),
			)
		}
		if id == victim {
			opts = append(opts, sft.WithWAL(walDir))
		}
		if _, err := sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...); err != nil {
			log.Fatal(err)
		}
	}
	world.CrashAt(victim, crashAt)
	err = world.RestartAt(victim, restartAt, func(rec sft.RecoveryInfo) {
		fmt.Printf("t=%v  replica %d restored from WAL: %d blocks, %d own votes, committed height %d\n",
			restartAt, victim, rec.Blocks, rec.Votes, rec.CommittedHeight)
	})
	if err != nil {
		log.Fatal(err)
	}

	stragglerReport := func(when time.Duration) {
		st := monitor.Snapshot().Stragglers
		fmt.Printf("t=%v  stragglers per strong-QC diversity: %v\n", when, st)
	}
	// Sample the monitor while the victim is down, then run to completion.
	world.Run(11 * time.Second)
	stragglerReport(11 * time.Second)
	world.Run(20 * time.Second)
	stragglerReport(20 * time.Second)

	fmt.Println()
	rep := monitor.Snapshot()
	fmt.Printf("health after %d QCs (window %d rounds):\n", rep.QCsObserved, 2*n)
	fmt.Printf("  strong-QC diversity: %d/%d replicas -> max reachable level %d (2f = %d)\n",
		rep.Diversity, n, monitor.MaxLevel(f), 2*f)
	counts := monitor.AppearanceCounts()
	for id, c := range counts {
		marker := ""
		if sft.ReplicaID(id) == straggler {
			marker = "   <- straggler (enters QCs only when leading)"
		}
		if sft.ReplicaID(id) == victim {
			marker = "   <- killed at 6s, WAL-restored + state-synced at 12s"
		}
		fmt.Printf("  replica %d appeared in %3d recent QCs%s\n", id, c, marker)
	}

	fmt.Println()
	if releasedAt > 0 {
		fmt.Printf("conflict gate: follow-up released at t=%v, once the high-value txn's block reached %d-strong\n",
			releasedAt.Round(time.Millisecond), 2*f)
	} else if gate.Held() > 0 {
		fmt.Printf("conflict gate: follow-up still held (high-value txn not yet %d-strong)\n", 2*f)
	}
}
