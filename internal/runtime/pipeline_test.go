package runtime_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/types"
)

// TestPipelinedClusterCommits runs a real-crypto SFT-DiemBFT cluster with
// the prevalidation worker pool enabled on every node and checks liveness
// and prefix agreement — the end-to-end proof that taking signature checks
// off the event loop does not disturb the protocol.
func TestPipelinedClusterCommits(t *testing.T) {
	const n, f = 4, 1
	ring, err := crypto.NewKeyRing(n, 17, crypto.SchemeEd25519)
	if err != nil {
		t.Fatalf("keyring: %v", err)
	}
	net := runtime.NewLocalNetwork(n)

	var mu sync.Mutex
	got := make(map[types.ReplicaID][]types.BlockID)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	nodes := make([]*runtime.Node, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		rep, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID:               id,
				N:                n,
				F:                f,
				Signer:           ring.Signer(id),
				Verifier:         ring,
				VerifySignatures: true,
				BatchWorkers:     2,
				SFT:              true,
			},
			RoundTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		node := runtime.NewNode(rep, net.Endpoint(id), runtime.Options{
			PrevalidateWorkers: 2,
			OnCommit: func(b *types.Block) {
				mu.Lock()
				got[id] = append(got[id], b.ID())
				mu.Unlock()
			},
		})
		nodes[i] = node
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = node.Run(ctx)
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
		net.Close()
	}()

	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		enough := true
		for i := 0; i < n; i++ {
			if len(got[types.ReplicaID(i)]) < 10 {
				enough = false
			}
		}
		mu.Unlock()
		if enough {
			break
		}
		select {
		case <-deadline:
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("pipelined cluster too slow: %d/%d/%d/%d commits",
				len(got[0]), len(got[1]), len(got[2]), len(got[3]))
		case <-time.After(50 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	ref := got[0]
	for id := types.ReplicaID(1); id < n; id++ {
		other := got[id]
		for i := 0; i < min(len(ref), len(other)); i++ {
			if ref[i] != other[i] {
				t.Fatalf("divergence at %d between replica 0 and %v", i, id)
			}
		}
	}
	for i, node := range nodes {
		if d := node.PrevalidateDrops(); d != 0 {
			t.Fatalf("node %d dropped %d honest messages in prevalidation", i, d)
		}
	}
}

// orderProbe is a minimal engine.Pipelined that records the order in which
// validated messages reach the state stage and rejects messages whose
// StateSyncRequest.Have is odd — a stand-in for a bad signature.
type orderProbe struct {
	mu   sync.Mutex
	seen map[types.ReplicaID][]types.Height
	done chan struct{}
	want int
}

func (p *orderProbe) ID() types.ReplicaID                        { return 0 }
func (p *orderProbe) Init(time.Duration) []engine.Output         { return nil }
func (p *orderProbe) OnTimer(time.Duration, int) []engine.Output { return nil }

func (p *orderProbe) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	panic("pipeline must deliver via OnVerifiedMessage")
}

func (p *orderProbe) Prevalidate(from types.ReplicaID, msg types.Message) error {
	m := msg.(*types.StateSyncRequest)
	if m.Have%2 == 1 {
		return fmt.Errorf("probe: invalid message %d", m.Have)
	}
	return nil
}

func (p *orderProbe) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	m := msg.(*types.StateSyncRequest)
	p.mu.Lock()
	p.seen[from] = append(p.seen[from], m.Have)
	total := 0
	for _, s := range p.seen {
		total += len(s)
	}
	if total == p.want {
		close(p.done)
	}
	p.mu.Unlock()
	return nil
}

// TestPipelinePerSenderFIFOAndDrops pins the worker pool's two contracts:
// messages that fail Prevalidate never reach the state stage (and are
// counted), and each sender's surviving messages arrive in send order even
// though two workers prevalidate concurrently.
func TestPipelinePerSenderFIFOAndDrops(t *testing.T) {
	const senders = 3
	const perSender = 40 // even Have values survive; odd ones are dropped
	probe := &orderProbe{
		seen: make(map[types.ReplicaID][]types.Height),
		done: make(chan struct{}),
		want: senders * perSender / 2,
	}
	net := runtime.NewLocalNetwork(senders + 1)
	node := runtime.NewNode(probe, net.Endpoint(0), runtime.Options{
		PrevalidateWorkers: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = node.Run(ctx)
	}()

	for s := 1; s <= senders; s++ {
		ep := net.Endpoint(types.ReplicaID(s))
		for i := 0; i < perSender; i++ {
			msg := &types.StateSyncRequest{Have: types.Height(i), Sender: types.ReplicaID(s)}
			if err := ep.Send(0, msg); err != nil {
				t.Fatalf("send %d/%d: %v", s, i, err)
			}
		}
	}

	select {
	case <-probe.done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not deliver all valid messages")
	}
	cancel()
	<-runDone
	net.Close()

	probe.mu.Lock()
	defer probe.mu.Unlock()
	for s := 1; s <= senders; s++ {
		seq := probe.seen[types.ReplicaID(s)]
		if len(seq) != perSender/2 {
			t.Fatalf("sender %d: %d messages survived, want %d", s, len(seq), perSender/2)
		}
		for i, h := range seq {
			if h != types.Height(2*i) {
				t.Fatalf("sender %d: position %d got Have=%d, want %d (FIFO violated)", s, i, h, 2*i)
			}
		}
	}
	if d := node.PrevalidateDrops(); d != senders*perSender/2 {
		t.Fatalf("PrevalidateDrops=%d, want %d", d, senders*perSender/2)
	}
}
