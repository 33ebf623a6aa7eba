// SFT-Streamlet demo (Appendix D): the strengthened-fault-tolerance idea
// carries over to the lock-step Streamlet protocol with height-keyed
// markers and k-endorsements. This example runs a 7-replica SFT-Streamlet
// cluster on the facade's deterministic Simnet fabric, with the O(n^3)
// echo mechanism enabled, and reports strong-commit levels. The engine
// names the commit rule: Streamlet's markers are height-keyed, the second
// instantiation of the paper's rule.
//
//	go run ./examples/streamlet
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/workload"
	"repro/sft"
)

func main() {
	const (
		n    = 7
		f    = 2
		seed = 3
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		log.Fatal(err)
	}
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 8 * time.Millisecond, Jitter: 4 * time.Millisecond},
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	levels := make(map[sft.BlockID]int)
	commits := 0
	payload := workload.PaperPayload(1, 100, 8*1024)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(sft.Streamlet),
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithDelta(25 * time.Millisecond), // lock-step rounds of 2∆ = 50ms
			sft.WithPayloadNow(payload),
		}
		if id == 0 {
			opts = append(opts, sft.WithObserver(func(ev sft.CommitEvent) {
				if ev.Regular {
					commits++
				} else if ev.Strength > levels[ev.Block.ID()] {
					levels[ev.Block.ID()] = ev.Strength
				}
			}))
		}
		if _, err := sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...); err != nil {
			log.Fatal(err)
		}
	}
	world.Run(10 * time.Second)

	hist := make(map[int]int)
	for _, x := range levels {
		hist[x]++
	}
	fmt.Printf("SFT-Streamlet: %d blocks committed on replica 0\n", commits)
	fmt.Printf("strong-commit levels reached (x -> #blocks):\n")
	for x := f; x <= 2*f; x++ {
		fmt.Printf("  %d-strong (%.1ff): %d blocks\n", x, float64(x)/float64(f), hist[x])
	}
	if hist[2*f] == 0 {
		log.Fatal("no block reached 2f-strong in a fault-free run")
	}
	fmt.Printf("\nheight-keyed markers give Streamlet the same graduated assurance as DiemBFT,\n" +
		"with the long-range-attack resistance discussed in Appendix D.4\n")
}
