// Command sftclient streams transactions to an sftnode's -client-listen
// socket through the sft facade's transaction-stream protocol, simulating
// application load against a real cluster.
//
//	sftclient -node 127.0.0.1:9000 -rate 500 -run 30s
//
// With -subscribe it is a gateway probe instead: it dials an sftgateway,
// verifies each streamed strength event's proof against the committee's PKI
// (-n and -seed must match the cluster), and exits zero after -count
// verified events.
//
//	sftclient -subscribe 127.0.0.1:8000 -n 4 -seed 42 -count 3
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/workload"
	"repro/sft"
)

func main() {
	var (
		node    = flag.String("node", "127.0.0.1:9000", "sftnode client-listen address")
		rate    = flag.Int("rate", 200, "transactions per second")
		size    = flag.Int("size", 128, "transaction payload bytes")
		run     = flag.Duration("run", 30*time.Second, "how long to stream")
		clients = flag.Uint("clients", 8, "simulated client identities")
		seed    = flag.Int64("seed", 1, "workload seed; with -subscribe, the committee PKI seed")
		gwAddr  = flag.String("subscribe", "", "gateway address: verify streamed strength events instead of sending transactions")
		n       = flag.Int("n", 4, "committee size for -subscribe proof verification")
		count   = flag.Int("count", 3, "verified events to receive before exiting (with -subscribe)")
		minX    = flag.Int("min-strength", 0, "server-side strength filter (with -subscribe)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("sftclient %s\n", sft.Version)
		return
	}
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix("sftclient ")

	if *gwAddr != "" {
		subscribe(*gwAddr, *n, *seed, *minX, *count, *run)
		return
	}

	stream, err := sft.DialTransactions(*node, 3*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()
	gen := workload.NewGenerator(*seed, uint32(*clients), *size)

	interval := time.Second / time.Duration(max(1, *rate))
	deadline := time.Now().Add(*run)
	tick := time.NewTicker(interval)
	defer tick.Stop()

	sent := 0
	for time.Now().Before(deadline) {
		<-tick.C
		if err := stream.Submit(gen.Next()); err != nil {
			log.Fatalf("after %d txns: %v", sent, err)
		}
		sent++
		if sent%1000 == 0 {
			log.Printf("%d transactions sent", sent)
		}
	}
	log.Printf("done: %d transactions in %v (%.0f tps)", sent, *run, float64(sent)/run.Seconds())
}

// subscribe dials a gateway and consumes its verified strength stream. Every
// event printed here carried a Section 5 proof this process checked itself —
// a lying gateway terminates the stream with a non-zero exit instead.
func subscribe(addr string, n int, seed int64, minX, count int, wait time.Duration) {
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := sft.Subscribe(addr, sft.SubscriberConfig{Ring: ring, MinStrength: minX})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	deadline := time.After(wait)
	for got := 0; got < count; {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				log.Fatalf("subscription ended after %d events: %v", got, sub.Err())
			}
			got++
			log.Printf("verified: block %x height %d round %d strength %d", ev.Block[:8], ev.Height, ev.Round, ev.Strength)
		case <-deadline:
			log.Fatalf("only %d/%d verified events within %v", got, count, wait)
		}
	}
	log.Printf("subscribe probe: %d proof-verified events", count)
}
