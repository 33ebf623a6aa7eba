// Command sftnode runs one SFT-DiemBFT replica over TCP, composed entirely
// through the public sft facade. Start n = 3f+1 of them (locally or across
// machines) to form a real cluster.
//
// Example 4-node local cluster:
//
//	sftnode -id 0 -n 4 -listen 127.0.0.1:7000 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	sftnode -id 1 -n 4 -listen 127.0.0.1:7001 -peers ... &
//	sftnode -id 2 -n 4 -listen 127.0.0.1:7002 -peers ... &
//	sftnode -id 3 -n 4 -listen 127.0.0.1:7003 -peers ... &
//
// All nodes must share -n and -seed (the seed derives the cluster's PKI;
// a real deployment would exchange public keys instead). SIGINT/SIGTERM
// (or -run expiring) shuts down gracefully: the event loop drains and
// Node.Close flushes and closes the write-ahead log before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/sft"
)

func main() {
	var (
		id       = flag.Int("id", 0, "replica ID in [0, n)")
		n        = flag.Int("n", 4, "cluster size (3f+1)")
		listen   = flag.String("listen", "127.0.0.1:7000", "listen address")
		peersCSV = flag.String("peers", "", "comma-separated peer addresses indexed by replica ID")
		seed     = flag.Int64("seed", 42, "PKI derivation seed (must match across the cluster)")
		timeout  = flag.Duration("timeout", 2*time.Second, "round timeout")
		txns     = flag.Int("txns", 100, "transactions per block")
		wait     = flag.Duration("extra-wait", 0, "leader extra wait after quorum (Figure 8 knob)")
		run      = flag.Duration("run", 0, "exit after this duration (0 = run until signal)")
		quiet    = flag.Bool("quiet", false, "only print periodic summaries")
		clients  = flag.String("client-listen", "", "optional address accepting client transaction streams (see cmd/sftclient)")
		dataDir  = flag.String("data-dir", "", "directory for the write-ahead log; restarting with the same -data-dir recovers the pre-crash state and re-joins via state sync")
		strength = flag.Int("min-strength", 0, "x-strong threshold for reported commits (the paper's client-side knob; 0 = report every level)")
		obsAddr  = flag.String("obs-addr", "", "optional ops HTTP address serving /metrics (Prometheus), /healthz, /tracez and /debug/pprof")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("sftnode %s\n", sft.Version)
		return
	}
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix(fmt.Sprintf("sftnode[%d] ", *id))

	if (*n-1)%3 != 0 {
		log.Fatalf("n=%d is not 3f+1", *n)
	}
	f := (*n - 1) / 3
	addrs := strings.Split(*peersCSV, ",")
	if len(addrs) != *n {
		log.Fatalf("need %d peer addresses, got %d", *n, len(addrs))
	}
	peers := make(map[sft.ReplicaID]string, *n)
	for i, a := range addrs {
		peers[sft.ReplicaID(i)] = strings.TrimSpace(a)
	}

	// Payload source: synthetic load, plus any transactions submitted by
	// clients over the -client-listen socket.
	gen := workload.NewGenerator(*seed+int64(*id), 16, 64)
	var txnSrv *sft.TxnServer
	if *clients != "" {
		srv, err := sft.ListenTransactions(*clients, 1<<16)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		txnSrv = srv
		log.Printf("accepting client transactions on %s", srv.Addr())
	}
	payload := func(sft.Round, time.Duration) sft.Payload {
		var p sft.Payload
		if txnSrv != nil {
			p.Txns = txnSrv.Batch(*txns)
		}
		if missing := *txns - len(p.Txns); missing > 0 {
			p.Txns = append(p.Txns, gen.Batch(missing)...)
		}
		return p
	}

	opts := []sft.Option{
		sft.WithEngine(sft.DiemBFT),
		sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: *listen, Peers: peers})),
		sft.WithCommitRule(sft.CommitRule{MinStrength: *strength}),
		sft.WithRoundTimeout(*timeout),
		sft.WithExtraWait(*wait),
		sft.WithPayloadNow(payload),
		sft.WithCommitLog(16),
		sft.WithPruneKeep(512),
	}
	if *dataDir != "" {
		// Durability: the replica write-ahead-logs every vote, block and
		// certificate its safety depends on (fsynced before the vote leaves
		// the process) and recovers that state on restart.
		opts = append(opts, sft.WithWAL(filepath.Join(*dataDir, fmt.Sprintf("replica-%d", *id))))
	}
	if *obsAddr != "" {
		opts = append(opts, sft.WithObservability(sft.ObsConfig{}))
	}

	node, err := sft.New(sft.Config{ID: sft.ReplicaID(*id), N: *n, Seed: *seed}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if rec, ok := node.Restored(); ok {
		log.Printf("recovered from WAL: checkpoint at height %d, %d blocks, %d own votes, voted r%d, committed height %d, high QC r%d",
			rec.Floor, rec.Blocks, rec.Votes, rec.VotedRound, rec.CommittedHeight, rec.HighQCRound)
	}
	log.Printf("listening on %s, cluster n=%d f=%d", node.Addr(), *n, f)

	// Ops surface: Prometheus metrics, health, block traces and pprof. The
	// health gate flags this replica when its own votes stop appearing in
	// recent chain QCs — the paper's "outcast replica" signal.
	if *obsAddr != "" {
		handler := obs.NewHandler(obs.ServerConfig{
			Obs: node.Obs(),
			Healthy: func() bool {
				rep, ok := node.Health()
				if !ok || rep.QCsObserved == 0 {
					return true // starting up; no chain evidence either way
				}
				for _, s := range rep.Stragglers {
					if s == sft.ReplicaID(*id) {
						return false
					}
				}
				return true
			},
			Health: func() any {
				rep, ok := node.Health()
				if !ok {
					return nil
				}
				return rep
			},
		})
		obsSrv := &http.Server{Addr: *obsAddr, Handler: handler}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("obs server: %v", err)
			}
		}()
		defer obsSrv.Close()
		log.Printf("ops endpoints on http://%s: /metrics /healthz /tracez /debug/pprof", *obsAddr)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *run > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *run)
		defer tcancel()
	}

	// Consume the commit-strength stream: every commit arrives once at
	// f-strong and again at each level it climbs to (filtered by
	// -min-strength via the commit rule).
	go func() {
		for ev := range node.Commits() {
			if *quiet {
				continue
			}
			if ev.Regular {
				log.Printf("commit %v (height %d, %d txns)", ev.Block.ID(), ev.Height, len(ev.Block.Payload.Txns))
			} else if ev.Strength > f {
				log.Printf("strength %v -> %d-strong (%.1ff)", ev.Block.ID(), ev.Strength, float64(ev.Strength)/float64(f))
			}
		}
	}()
	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				log.Printf("summary: %s", node.Metrics())
			}
		}
	}()

	// Run drains the event loop on cancellation and closes the node —
	// flushing the WAL — before returning.
	if err := node.Run(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutting down after %d commits", node.Metrics().Commits)
}
