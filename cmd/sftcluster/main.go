// Command sftcluster launches an n-replica SFT-DiemBFT cluster over TCP
// loopback inside one process — the quickest way to watch the protocol run
// on real sockets without orchestrating separate sftnode processes. The
// whole cluster is composed through the public sft facade: ephemeral
// listeners first, then the address book, then Run.
//
//	sftcluster -n 7 -run 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/workload"
	"repro/sft"
)

func main() {
	var (
		n       = flag.Int("n", 4, "cluster size (3f+1)")
		run     = flag.Duration("run", 30*time.Second, "how long to run")
		timeout = flag.Duration("timeout", time.Second, "round timeout")
		txns    = flag.Int("txns", 100, "transactions per block")
	)
	flag.Parse()
	log.SetFlags(log.Lmicroseconds)

	if (*n-1)%3 != 0 {
		log.Fatalf("n=%d is not 3f+1", *n)
	}
	const seed = 2024
	f := (*n - 1) / 3
	// One PKI derivation for the whole in-process cluster.
	ring, err := sft.NewKeyRing(*n, seed, sft.SchemeEd25519)
	if err != nil {
		log.Fatal(err)
	}

	// Bind all listeners on ephemeral ports first, then install the
	// complete address book everywhere.
	nodes := make([]*sft.Node, *n)
	peers := make(map[sft.ReplicaID]string, *n)
	for i := 0; i < *n; i++ {
		id := sft.ReplicaID(i)
		gen := workload.NewGenerator(int64(i), 16, 64)
		node, err := sft.New(sft.Config{ID: id, N: *n, Seed: seed},
			sft.WithEngine(sft.DiemBFT),
			sft.WithKeyRing(ring),
			sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: "127.0.0.1:0"})),
			sft.WithRoundTimeout(*timeout),
			sft.WithPayloadNow(workload.FullPayload(gen, *txns)),
			sft.WithPruneKeep(512),
		)
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		peers[id] = node.Addr().String()
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			log.Fatal(err)
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx, tcancel := context.WithTimeout(ctx, *run)
	defer tcancel()

	// Watch replica 0's commit-strength stream for periodic progress (its
	// per-node metrics sink keeps the totals for the final report).
	go func() {
		blocks := 0
		for ev := range nodes[0].Commits() {
			if !ev.Regular {
				continue
			}
			blocks++
			if blocks%10 == 0 {
				log.Printf("replica 0: %d blocks committed (height %d)", blocks, ev.Height)
			}
		}
	}()

	var wg sync.WaitGroup
	var failed atomic.Bool
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(ctx); err != nil {
				log.Printf("replica %d stopped: %v", i, err)
				failed.Store(true)
			}
		}()
	}

	log.Printf("cluster of %d replicas (f=%d) running for %v", *n, f, *run)
	<-ctx.Done()
	wg.Wait()

	snap := nodes[0].Metrics()
	fmt.Printf("\ncommitted %d blocks; highest strong-commit level observed: %d (%.1ff, max possible 2f=%d)\n",
		snap.Commits, snap.MaxStrength, float64(snap.MaxStrength)/float64(f), 2*f)
	if failed.Load() {
		os.Exit(1)
	}
}
