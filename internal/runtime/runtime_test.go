package runtime_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/types"
)

// startLocalCluster runs n SFT-DiemBFT nodes over an in-process network and
// returns a commit observer, the nodes' observability sinks and a cancel
// function.
func startLocalCluster(t *testing.T, n, f int) (commits func() map[types.ReplicaID][]types.BlockID, strengths func() int, sinks []*obs.Obs, stop func()) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 99, crypto.SchemeEd25519)
	if err != nil {
		t.Fatalf("keyring: %v", err)
	}
	net := runtime.NewLocalNetwork(n)

	var mu sync.Mutex
	got := make(map[types.ReplicaID][]types.BlockID)
	strongEvents := 0

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		sinks = append(sinks, obs.New(obs.Options{N: n, F: f}))
		rep, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID:               id,
				N:                n,
				F:                f,
				Signer:           ring.Signer(id),
				Verifier:         ring,
				VerifySignatures: true,
				SFT:              true,
				Obs:              sinks[i],
			},
			RoundTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		node := runtime.NewNode(rep, net.Endpoint(id), runtime.Options{
			OnCommit: func(b *types.Block) {
				mu.Lock()
				got[id] = append(got[id], b.ID())
				mu.Unlock()
			},
			OnStrength: func(b *types.Block, x int) {
				mu.Lock()
				strongEvents++
				mu.Unlock()
			},
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = node.Run(ctx)
		}()
	}
	commits = func() map[types.ReplicaID][]types.BlockID {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[types.ReplicaID][]types.BlockID, len(got))
		for k, v := range got {
			out[k] = append([]types.BlockID(nil), v...)
		}
		return out
	}
	strengths = func() int {
		mu.Lock()
		defer mu.Unlock()
		return strongEvents
	}
	stop = func() {
		cancel()
		wg.Wait()
		net.Close()
	}
	return commits, strengths, sinks, stop
}

func TestLocalClusterCommits(t *testing.T) {
	commits, strengths, sinks, stop := startLocalCluster(t, 4, 1)
	defer stop()

	deadline := time.After(10 * time.Second)
	for {
		got := commits()
		if len(got[0]) >= 10 && len(got[1]) >= 10 && len(got[2]) >= 10 && len(got[3]) >= 10 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("cluster too slow: %d/%d/%d/%d commits",
				len(got[0]), len(got[1]), len(got[2]), len(got[3]))
		case <-time.After(50 * time.Millisecond):
		}
	}
	// Prefix agreement across replicas.
	got := commits()
	ref := got[0]
	for id := types.ReplicaID(1); id < 4; id++ {
		other := got[id]
		for i := 0; i < min(len(ref), len(other)); i++ {
			if ref[i] != other[i] {
				t.Fatalf("divergence at %d between replica 0 and %v", i, id)
			}
		}
	}
	if strengths() == 0 {
		t.Fatal("no strength updates observed")
	}
	// LocalNetwork delivers unverified, so each node's loop prevalidates
	// inline through OnMessage — counted, and for honest real-crypto traffic
	// never dropped.
	for i, sink := range sinks {
		var metrics bytes.Buffer
		if err := sink.Registry().WritePrometheus(&metrics); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(metrics.String(), "\nsft_prevalidate_checked_total 0\n") {
			t.Fatalf("node %d prevalidated nothing", i)
		}
		if d := sink.PrevalidateDrops(); d != 0 {
			t.Fatalf("node %d dropped %d honest messages in prevalidation", i, d)
		}
	}
}
