// Command sftgateway runs the access tier's read path: a non-voting observer
// that follows a live cluster over TCP, feeding a strength-subscription
// gateway that fans proof-carrying rise events out to any number of
// subscribers — none of which add load to the voting committee.
//
// Against the 4-node example cluster from cmd/sftnode:
//
//	sftgateway -n 4 -upstreams 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -listen 127.0.0.1:8000
//
// Subscribers dial -listen with sft.Subscribe (or any client speaking the
// gateway frame protocol) and re-verify every event's proof against the
// committee's PKI, so the gateway itself needs no trust.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/sft"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8000", "address serving strength subscriptions")
		upstream = flag.String("upstreams", "", "comma-separated replica addresses indexed by replica ID (any non-empty subset of the committee; pass empty slots as blanks)")
		n        = flag.Int("n", 4, "committee size (3f+1)")
		seed     = flag.Int64("seed", 42, "PKI derivation seed (must match the cluster)")
		id       = flag.Int("id", 0, "observer wire identity outside [0, n); 0 = n")
		bound    = flag.Int("queue-bound", 0, "per-subscriber queue depth before eviction (0 = default)")
		obsAddr  = flag.String("obs-addr", "", "optional ops HTTP address serving /metrics and /healthz")
		run      = flag.Duration("run", 0, "exit after this duration (0 = run until signal)")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("sftgateway %s\n", sft.Version)
		return
	}
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix("sftgateway ")

	if (*n-1)%3 != 0 {
		log.Fatalf("n=%d is not 3f+1", *n)
	}
	upstreams := map[sft.ReplicaID]string{}
	for i, a := range strings.Split(*upstream, ",") {
		if a = strings.TrimSpace(a); a != "" {
			upstreams[sft.ReplicaID(i)] = a
		}
	}
	if len(upstreams) == 0 {
		log.Fatal("need at least one -upstreams address")
	}

	var sink *obs.Obs
	if *obsAddr != "" {
		sink = obs.New(obs.Options{N: *n, F: (*n - 1) / 3})
	}

	gw, err := sft.NewGateway(sft.GatewayConfig{
		N: *n, Seed: *seed, Scheme: sft.SchemeEd25519,
		QueueBound: *bound,
		Obs:        sink,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	addr, err := gw.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving strength subscriptions on %s", addr)

	observer, err := sft.NewObserver(sft.ObserverConfig{
		ID: sft.ReplicaID(*id), N: *n, Seed: *seed, Scheme: sft.SchemeEd25519,
		Gateway: gw,
	}, sft.ObserverTCP(upstreams))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("observer %d following %d upstream replicas", observer.ID(), len(upstreams))

	if *obsAddr != "" {
		handler := obs.NewHandler(obs.ServerConfig{
			Obs: sink,
			Health: func() any {
				return map[string]any{
					"subscribers":      gw.Subscribers(),
					"proven_blocks":    gw.Proven(),
					"committed_height": observer.CommittedHeight(),
				}
			},
		})
		obsSrv := &http.Server{Addr: *obsAddr, Handler: handler}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("obs server: %v", err)
			}
		}()
		defer obsSrv.Close()
		log.Printf("ops endpoints on http://%s: /metrics /healthz", *obsAddr)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *run > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *run)
		defer tcancel()
	}

	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				log.Printf("summary: height=%d proven=%d subscribers=%d",
					observer.CommittedHeight(), gw.Proven(), gw.Subscribers())
			}
		}
	}()

	if err := observer.Run(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutting down at height %d with %d proven blocks", observer.CommittedHeight(), gw.Proven())
}
