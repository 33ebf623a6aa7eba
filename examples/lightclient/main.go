// Light-client demo (Section 5): replicas attach a strong-commit Log to
// their proposals; a light client that only sees certified blocks (block +
// QC pairs) — never the protocol messages — can verify strong-commit levels
// with nothing but the public keys.
//
// The cluster runs through the sft facade with WithCommitLog attaching the
// §5 Log. Every block embeds the certificate for its parent (the justify
// QC), so a relay that follows one replica's commit stream can hand the
// light client exactly the data a wallet app would download: (parent block,
// QC certifying it) pairs.
//
//	go run ./examples/lightclient
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/lightclient"
	"repro/sft"
)

func main() {
	const (
		n    = 4
		f    = 1
		seed = 21
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		log.Fatal(err)
	}

	// The light client: verifies QCs against the PKI, trusts nothing else.
	client := lightclient.New(ring, f)

	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 5 * time.Millisecond, Jitter: time.Millisecond},
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The relay watches replica 0's commit stream and forwards certified
	// blocks: a committed block's justify QC certifies its parent, which an
	// earlier commit event already delivered.
	committed := make(map[sft.BlockID]*sft.Block)
	relay := func(ev sft.CommitEvent) {
		if !ev.Regular {
			return
		}
		b := ev.Block
		committed[b.ID()] = b
		if parent, ok := committed[b.Parent]; ok && b.Justify != nil {
			if err := client.ProcessCertified(parent, b.Justify); err != nil {
				log.Fatalf("light client rejected a genuine certificate: %v", err)
			}
		}
	}

	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(sft.DiemBFT),
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(500 * time.Millisecond),
			sft.WithCommitLog(16), // attach the §5 Log to proposals
		}
		if id == 0 {
			opts = append(opts, sft.WithObserver(relay))
		}
		if _, err := sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...); err != nil {
			log.Fatal(err)
		}
	}

	world.Run(3 * time.Second)

	fmt.Printf("light client verified strong-commit proofs for %d blocks\n", client.Proven())
	blk, x := client.Strongest()
	fmt.Printf("strongest proven commit: block %v at %d-strong (2f = %d)\n", blk, x, 2*f)
	if x < 2*f {
		log.Fatal("expected a 2f-strong proof in a fault-free run")
	}
	fmt.Println("the client needed only public keys and certified blocks — no protocol state")
}
