package sft_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/types"
	"repro/sft"
)

// TestAccessTierTCP runs the full read path end to end over real sockets:
// a 4-replica committee, a non-voting observer following it, a gateway fed
// by the observer, and a subscriber that verifies every streamed proof.
func TestAccessTierTCP(t *testing.T) {
	const (
		n    = 4
		seed = 61
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*sft.Node, n)
	peers := map[sft.ReplicaID]string{}
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed},
			sft.WithScheme(sft.SchemeEd25519),
			sft.WithKeyRing(ring),
			sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: "127.0.0.1:0"})),
			sft.WithVerifyPipeline(0),
			sft.WithRoundTimeout(500*time.Millisecond),
			sft.WithCommitLog(8),
		)
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = nodes[i].Addr().String()
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}

	gw, err := sft.NewGateway(sft.GatewayConfig{N: n, Seed: seed, Scheme: sft.SchemeEd25519, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	obs, err := sft.NewObserver(sft.ObserverConfig{
		N: n, Seed: seed, Scheme: sft.SchemeEd25519, Ring: ring, Gateway: gw,
	}, sft.ObserverTCP(peers))
	if err != nil {
		t.Fatal(err)
	}

	sub, err := sft.Subscribe(gwAddr.String(), sft.SubscriberConfig{
		N: n, Seed: seed, Scheme: sft.SchemeEd25519, Ring: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *sft.Node) {
			defer wg.Done()
			if err := nd.Run(ctx); err != nil {
				t.Errorf("node: %v", err)
			}
		}(node)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := obs.Run(ctx); err != nil {
			t.Errorf("observer: %v", err)
		}
	}()

	// The observer must derive commits from the live chain...
	commits := obs.Commits()
	var first sft.CommitEvent
	select {
	case first = <-commits:
	case <-ctx.Done():
		t.Fatal("observer derived no commits from the live cluster")
	}
	if !first.Regular || first.Strength != 1 {
		t.Fatalf("first observer event = %+v, want regular f-strong commit", first)
	}

	// ...and the subscriber must receive proof-verified rises through the
	// gateway.
	var got sft.StrengthEvent
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("subscription died: %v", sub.Err())
		}
		got = ev
	case <-ctx.Done():
		t.Fatal("no verified strength event reached the subscriber")
	}
	if got.Strength < 1 {
		t.Fatalf("verified strength %d, want >= f", got.Strength)
	}
	if sub.Strength(got.Block) < got.Strength {
		t.Fatal("subscriber light client did not record the verified rise")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("live subscription reports error: %v", err)
	}

	cancel()
	wg.Wait()
	obs.Close()
}

// TestSimnetObserver attaches an observer slot to the deterministic fabric,
// under each engine, and checks it reports the same committed chain as the
// voting replicas over nearly the whole run.
func TestSimnetObserver(t *testing.T) {
	const (
		n    = 4
		seed = 7
	)
	for _, eng := range []sft.Engine{sft.DiemBFT, sft.Streamlet} {
		t.Run(eng.String(), func(t *testing.T) {
			world, err := sft.NewSimnet(sft.SimnetConfig{
				N:         n,
				Observers: 1,
				Latency:   &sft.UniformLatency{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
				Seed:      seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			ring, err := sft.NewKeyRing(n, seed, sft.SchemeSim)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]*sft.Node, n)
			for i := 0; i < n; i++ {
				nodes[i], err = sft.New(sft.Config{ID: sft.ReplicaID(i), N: n, Seed: seed},
					sft.WithEngine(eng),
					sft.WithScheme(sft.SchemeSim),
					sft.WithKeyRing(ring),
					sft.WithTransport(world.Transport(sft.ReplicaID(i))),
					sft.WithRoundTimeout(500*time.Millisecond),
					sft.WithDelta(20*time.Millisecond),
				)
				if err != nil {
					t.Fatal(err)
				}
			}
			obs, err := sft.NewObserver(sft.ObserverConfig{
				N: n, Seed: seed, Scheme: sft.SchemeSim, Ring: ring, Engine: eng,
			}, world.ObserverTransport(0))
			if err != nil {
				t.Fatal(err)
			}

			// Drain both streams while the fabric runs, and wait until they
			// hold every regular commit before closing: after close a
			// subscription hands over only what its consumer takes without
			// waiting (see Node.Close).
			var mu sync.Mutex
			caught := sync.NewCond(&mu)
			var wg sync.WaitGroup
			var nodeChain, obsChain []sft.BlockID
			collect := func(events <-chan sft.CommitEvent, chain *[]sft.BlockID) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ev := range events {
						if ev.Regular {
							mu.Lock()
							*chain = append(*chain, ev.Block.ID())
							caught.Broadcast()
							mu.Unlock()
						}
					}
				}()
			}
			collect(nodes[0].Commits(), &nodeChain)
			collect(obs.Commits(), &obsChain)
			world.Run(5 * time.Second)
			nodeHeight, obsHeight := int(nodes[0].CommittedHeight()), int(obs.CommittedHeight())
			expired := false
			timer := time.AfterFunc(10*time.Second, func() {
				mu.Lock()
				expired = true
				caught.Broadcast()
				mu.Unlock()
			})
			mu.Lock()
			for !expired && (len(nodeChain) < nodeHeight || len(obsChain) < obsHeight) {
				caught.Wait()
			}
			stalled, nodeGot, obsGot := expired, len(nodeChain), len(obsChain)
			mu.Unlock()
			timer.Stop()
			if stalled {
				_ = world.Close()
				wg.Wait()
				t.Fatalf("streams stalled: node chain %d of %d, observer chain %d of %d",
					nodeGot, nodeHeight, obsGot, obsHeight)
			}
			_ = world.Close()
			wg.Wait()

			// Commits are observed at different instants by different
			// endpoints, so either side may be ahead by in-flight deliveries
			// at the horizon — but the chains must agree on their common
			// prefix, and that prefix must be nearly the whole run.
			common := min(len(obsChain), len(nodeChain))
			if common == 0 || 10*common < 9*nodeHeight {
				t.Fatalf("compared %d heights of node 0's %d (observer chain %d, node chain %d)",
					common, nodeHeight, len(obsChain), len(nodeChain))
			}
			if diff := len(obsChain) - len(nodeChain); diff < -3 || diff > 3 {
				t.Fatalf("observer committed %d blocks, replica %d — more than in-flight lag", len(obsChain), len(nodeChain))
			}
			for i := 0; i < common; i++ {
				if obsChain[i] != nodeChain[i] {
					t.Fatalf("observer chain diverges from replica chain at %d", i)
				}
			}
			t.Logf("%v: %d common heights; node 0 at %d, observer at %d", eng, common, nodeHeight, obsHeight)
		})
	}
}

// TestLyingGatewayCaught serves fabricated events from a fake gateway: a
// record claiming a level the certified commit log does not prove. Every
// subscriber must reject it and surface ErrProofInvalid.
func TestLyingGatewayCaught(t *testing.T) {
	const (
		n    = 4
		seed = 13
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}

	// A genuinely certified carrier proving {block X at level 1}.
	genesis := types.Genesis()
	var subject types.BlockID
	subject[0] = 0xEE
	honest := types.StrengthRecord{Block: subject, Height: 3, Round: 3, X: 1}
	carrier := types.NewBlock(genesis.ID(), types.NewGenesisQC(genesis.ID()),
		5, 5, 0, 0, types.Payload{}, []types.StrengthRecord{honest})
	votes := make([]types.Vote, 3)
	for i := range votes {
		v := types.Vote{Block: carrier.ID(), Round: carrier.Round, Height: carrier.Height, Voter: types.ReplicaID(i)}
		v.Signature = ring.Signer(v.Voter).Sign(v.SigningPayload())
		votes[i] = v
	}
	qc := &types.QC{Block: carrier.ID(), Round: carrier.Round, Height: carrier.Height, Votes: votes}

	// The lie: same certified carrier, inflated claimed level.
	lie := honest
	lie.X = 2

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := gateway.ReadFrame(c); err != nil { // subscribe frame
					return
				}
				frame := gateway.AppendEventFrame(nil, gateway.Event{Record: lie, Carrier: carrier, QC: qc})
				_ = gateway.WriteFrame(c, frame)
			}(conn)
		}
	}()

	sub, err := sft.Subscribe(ln.Addr().String(), sft.SubscriberConfig{
		N: n, Seed: seed, Scheme: sft.SchemeSim, Ring: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	select {
	case ev, ok := <-sub.Events():
		if ok {
			t.Fatalf("subscriber accepted a fabricated event: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not terminate on the lie")
	}
	var proofErr *sft.ErrProofInvalid
	if !errors.As(sub.Err(), &proofErr) {
		t.Fatalf("Err() = %v, want ErrProofInvalid", sub.Err())
	}
}

// TestAccessConstructorsRejectWrongSizedRing: a supplied key ring that does
// not cover the committee is an error at construction in every constructor
// that takes one (sft.New's case is in TestNewValidation). A short ring
// verifies nothing — KeyRing.Verify is false for a signer it does not hold —
// which would read as an observer that never advances.
func TestAccessConstructorsRejectWrongSizedRing(t *testing.T) {
	ring, err := sft.NewKeyRing(4, 1, sft.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	const want = "key ring holds 4 keys, cluster has 7"
	world, err := sft.NewSimnet(sft.SimnetConfig{N: 7, Observers: 1, Latency: &sft.UniformLatency{Base: time.Millisecond}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		construct func() error
	}{
		{"NewObserver", func() error {
			_, err := sft.NewObserver(sft.ObserverConfig{N: 7, Seed: 1, Scheme: sft.SchemeSim, Ring: ring}, world.ObserverTransport(0))
			return err
		}},
		{"NewGateway", func() error {
			_, err := sft.NewGateway(sft.GatewayConfig{N: 7, Seed: 1, Scheme: sft.SchemeSim, Ring: ring})
			return err
		}},
		{"Subscribe", func() error {
			// The address is never dialed: the ring is checked first.
			_, err := sft.Subscribe("127.0.0.1:1", sft.SubscriberConfig{N: 7, Seed: 1, Scheme: sft.SchemeSim, Ring: ring})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.construct(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s with a 4-key ring and N=7: err = %v, want %q", c.name, err, want)
			}
		})
	}
}
