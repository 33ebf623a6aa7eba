package tcpnet_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

func TestTCPClusterCommits(t *testing.T) {
	const (
		n = 4
		f = 1
	)
	ring, err := crypto.NewKeyRing(n, 5, crypto.SchemeEd25519)
	if err != nil {
		t.Fatalf("keyring: %v", err)
	}

	// Bind all listeners on loopback with OS-assigned ports first, then
	// share the address book.
	nets := make([]*tcpnet.Net, n)
	peers := make(map[types.ReplicaID]string, n)
	for i := 0; i < n; i++ {
		nt, err := tcpnet.Listen(tcpnet.Config{
			ID:     types.ReplicaID(i),
			Listen: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		nets[i] = nt
		peers[types.ReplicaID(i)] = nt.Addr().String()
	}
	for i := 0; i < n; i++ {
		nets[i].SetPeers(peers)
	}

	var mu sync.Mutex
	commits := make(map[types.ReplicaID]int)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
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
				SFT:              true,
			},
			RoundTimeout: 400 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		node := runtime.NewNode(rep, nets[i], runtime.Options{
			OnCommit: func(b *types.Block) {
				mu.Lock()
				commits[id]++
				mu.Unlock()
			},
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = node.Run(ctx)
		}()
	}

	deadline := time.After(60 * time.Second)
	for {
		mu.Lock()
		enough := len(commits) == n
		for _, c := range commits {
			if c < 5 {
				enough = false
			}
		}
		snapshot := fmt.Sprintf("%v", commits)
		mu.Unlock()
		if enough {
			break
		}
		select {
		case <-deadline:
			cancel()
			t.Fatalf("TCP cluster too slow: %s", snapshot)
		case <-time.After(100 * time.Millisecond):
		}
	}
	cancel()
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := nets[i].Close(); err != nil {
			t.Errorf("close %d: %v", i, err)
		}
	}
}
