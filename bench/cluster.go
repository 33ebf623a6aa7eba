package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/sft"
)

// Fixed cluster parameters. The workload seed never reaches the cluster: the
// PKI and the bank's account keys derive from these constants, so two runs
// with different seeds boot byte-identical replicas and differ only in the
// transactions they are sent.
const (
	pkiSeed         = 20210707 // ICDCS 2021
	bankSeed        = 7
	bankAccounts    = 4096
	bankInitBalance = 1 << 40
	// roundTimeout is far above any healthy round (milliseconds on
	// loopback) so a scheduling hiccup never abandons a proposal and the
	// transactions it drained from the pool.
	roundTimeout = 3 * time.Second
	// bootDeadline is how long the cluster may take to produce its first
	// commit before the run is reported as failed.
	bootDeadline = 10 * time.Second
)

// clusterSpec is what distinguishes one real-stack workload's cluster from
// another's.
type clusterSpec struct {
	n     int  // replicas, 3f+1
	batch int  // B: transactions drained per proposal, at most
	bank  bool // execute-before-vote bank app on every replica
	wal   bool // write-ahead log with real fsync on every replica
	trace bool // WithObservability on every replica
	// extraWait paces rounds: leaders hold a formed quorum this long before
	// proposing (sft.WithExtraWait). Zero lets rounds run back to back.
	extraWait time.Duration
}

// replicaLog is what one replica's synchronous observer records for the
// correctness oracle: the committed chain in commit order. It is written only
// by that replica's event loop and read after every Run has returned.
type replicaLog struct {
	chain []sft.BlockID
}

// cluster is a running loopback cluster built only through the sft facade:
// TCP on 127.0.0.1, ed25519 with aggregated certificates, the verification
// pipeline, a write-ahead log with real fsync per replica, and one shared
// transaction server every leader drains.
type cluster struct {
	spec  clusterSpec
	srv   *sft.TxnServer
	nodes []*sft.Node
	logs  []*replicaLog

	cancel context.CancelFunc
	wg     sync.WaitGroup
	runErr []error
}

// bootCluster binds every replica, exchanges the address book, and only then
// starts the event loops: installing peers on an already running node is the
// ROADMAP item 0 livelock, which this benchmark must not step on.
func bootCluster(spec clusterSpec, dir string) (*cluster, error) {
	ring, err := sft.NewKeyRing(spec.n, pkiSeed, sft.Ed25519Aggregate)
	if err != nil {
		return nil, err
	}
	srv, err := sft.ListenTransactions("127.0.0.1:0", 0)
	if err != nil {
		return nil, err
	}
	c := &cluster{spec: spec, srv: srv, runErr: make([]error, spec.n)}
	payload := func(sft.Round, time.Duration) sft.Payload {
		return sft.Payload{Txns: srv.Batch(spec.batch)}
	}
	peers := make(map[sft.ReplicaID]string, spec.n)
	for i := 0; i < spec.n; i++ {
		id := sft.ReplicaID(i)
		rl := &replicaLog{}
		opts := []sft.Option{
			sft.WithEngine(sft.DiemBFT),
			sft.WithScheme(sft.Ed25519Aggregate),
			sft.WithKeyRing(ring),
			sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: "127.0.0.1:0"})),
			sft.WithVerifyPipeline(0),
			sft.WithRoundTimeout(roundTimeout),
			sft.WithPayloadNow(payload),
			sft.WithPruneKeep(512),
			sft.WithObserver(func(ev sft.CommitEvent) {
				if ev.Regular {
					rl.chain = append(rl.chain, ev.Block.ID())
				}
			}),
		}
		if spec.bank {
			opts = append(opts, sft.WithApp(func() sft.StateMachine {
				// Private keys cache per replica: every replica pays for its
				// own signature checks, as separate machines would.
				return sft.NewBank(sft.BankConfig{
					Seed: bankSeed, Accounts: bankAccounts, InitialBalance: bankInitBalance,
					Keys: sft.NewBankKeys(bankSeed),
				})
			}))
		}
		if spec.trace {
			opts = append(opts, sft.WithObservability(sft.ObsConfig{}))
		}
		if spec.wal {
			opts = append(opts, sft.WithWAL(filepath.Join(dir, fmt.Sprintf("wal-%d", i))))
		}
		if spec.extraWait > 0 {
			opts = append(opts, sft.WithExtraWait(spec.extraWait))
		}
		node, err := sft.New(sft.Config{ID: id, N: spec.n, Seed: pkiSeed}, opts...)
		if err != nil {
			c.closeUnstarted()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.logs = append(c.logs, rl)
		peers[id] = node.Addr().String()
	}
	for _, node := range c.nodes {
		if err := node.SetPeers(peers); err != nil {
			c.closeUnstarted()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i, node := range c.nodes {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.runErr[i] = node.Run(ctx)
		}()
	}
	return c, nil
}

func (c *cluster) closeUnstarted() {
	for _, node := range c.nodes {
		node.Close()
	}
	c.srv.Close()
}

// f is the fault threshold; 2f is the top rung of the strength ladder.
func (c *cluster) f() int { return (c.spec.n - 1) / 3 }

// waitHeight blocks until every replica has committed height h, or the
// deadline passes.
func (c *cluster) waitHeight(h sft.Height, deadline time.Time) bool {
	for {
		done := true
		for _, node := range c.nodes {
			if node.CommittedHeight() < h {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop cancels every event loop, waits for each to flush its WAL and return,
// and closes the transaction listener. After stop no goroutine of the cluster
// is left and no listener is open.
func (c *cluster) stop() error {
	c.cancel()
	c.wg.Wait()
	err := c.srv.Close()
	for _, rerr := range c.runErr {
		if rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// scratchDir creates a fresh directory for one run's write-ahead logs under
// bench/out, which sits on the checkout's own filesystem: the benchmark may
// not write outside its checkout, and /tmp is often tmpfs, where fsync is
// free and the WAL layer would measure nothing.
func scratchDir(outDir, workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-"+workload+"-")
}
