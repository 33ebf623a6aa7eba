package sft_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/sft"
)

// ExampleNew composes a 4-replica SFT-DiemBFT cluster on the deterministic
// Simnet fabric, totals the nodes' commits and reads the strongest commit
// level any of them reached. Fixed seeds make the output reproducible.
func ExampleNew() {
	const (
		n    = 4
		seed = 42
	)
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 5 * time.Millisecond, Jitter: time.Millisecond},
		Seed:    seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var nodes [n]*sft.Node
	for i := range nodes {
		id := sft.ReplicaID(i)
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed},
			sft.WithEngine(sft.DiemBFT),
			sft.WithScheme(sft.SchemeSim), // fast deterministic toy signatures
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(500*time.Millisecond),
		)
		if err != nil {
			log.Fatal(err)
		}
	}
	world.Run(2 * time.Second)

	commits, strongest := sumMetrics(nodes[:])
	f := (n - 1) / 3
	fmt.Printf("committed %d blocks across %d replicas\n", commits, n)
	fmt.Printf("strongest commit level: %d (max possible 2f = %d)\n", strongest, 2*f)
	// Output:
	// committed 716 blocks across 4 replicas
	// strongest commit level: 2 (max possible 2f = 2)
}

// ExampleNew_streamlet runs the same facade against the Streamlet engine:
// the commit rule switches to height-keyed markers (Appendix D), selected
// explicitly here via WithCommitRule.
func ExampleNew_streamlet() {
	const (
		n    = 4
		seed = 11
	)
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 4 * time.Millisecond, Jitter: time.Millisecond},
		Seed:    seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var nodes [n]*sft.Node
	for i := range nodes {
		id := sft.ReplicaID(i)
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed},
			sft.WithEngine(sft.Streamlet),
			sft.WithScheme(sft.SchemeSim),
			sft.WithTransport(world.Transport(id)),
			sft.WithDelta(20*time.Millisecond), // lock-step rounds of 2∆
		)
		if err != nil {
			log.Fatal(err)
		}
	}
	world.Run(4 * time.Second)

	commits, strongest := sumMetrics(nodes[:])
	fmt.Printf("committed %d blocks\n", commits)
	fmt.Printf("strongest commit level: %d\n", strongest)
	// Output:
	// committed 396 blocks
	// strongest commit level: 2
}

// ExampleNode_waitStrength shows the paper's per-transaction resilience
// choice: act on a block only once it tolerates the number of Byzantine
// faults the caller cares about. The first committed block is captured from
// the commit stream; WaitStrength returns as soon as the block's strength
// reaches 2f.
func ExampleNode_waitStrength() {
	const (
		n    = 4
		f    = 1
		seed = 5
	)
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 5 * time.Millisecond, Jitter: time.Millisecond},
		Seed:    seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var first sft.BlockID
	var nodes [n]*sft.Node
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithScheme(sft.SchemeSim),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(500 * time.Millisecond),
		}
		if id == 0 {
			opts = append(opts, sft.WithObserver(func(ev sft.CommitEvent) {
				if ev.Regular && first == (sft.BlockID{}) {
					first = ev.Block.ID()
				}
			}))
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...)
		if err != nil {
			log.Fatal(err)
		}
	}
	world.Run(2 * time.Second)

	// The deterministic run already strengthened the block, so the wait
	// returns immediately; on live transports it blocks until the chain
	// catches up.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := nodes[0].WaitStrength(ctx, first, 2*f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first block is %d-strong (2f = %d)\n", nodes[0].Strength(first), 2*f)
	// Output:
	// first block is 2-strong (2f = 2)
}

// sumMetrics totals the nodes' commit counts and takes the strongest level
// any of them saw.
func sumMetrics(nodes []*sft.Node) (commits int64, strongest int) {
	for _, node := range nodes {
		m := node.Metrics()
		commits += m.Commits
		strongest = max(strongest, m.MaxStrength)
	}
	return commits, strongest
}
