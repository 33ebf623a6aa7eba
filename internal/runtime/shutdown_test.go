package runtime_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestRunClosesJournalOnCancel: the shutdown path must flush and close the
// WAL instead of dropping buffered appends — after Run returns, the journal
// is closed and a reopened log replays the full pre-shutdown state.
func TestRunClosesJournalOnCancel(t *testing.T) {
	const n = 4
	ring, err := crypto.NewKeyRing(n, 99, crypto.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	net := runtime.NewLocalNetwork(n)
	dir := t.TempDir()

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	journal := core.NewJournal(l)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	committed := make(chan struct{}, 1)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		cfg := diembft.Config{
			Config: replica.Config{
				ID: id, N: n,
				Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
			}, RoundTimeout: 300 * time.Millisecond,
		}
		opts := runtime.Options{}
		if id == 0 {
			cfg.Journal = journal
			opts.Journal = journal
			opts.OnCommit = func(b *types.Block) {
				select {
				case committed <- struct{}{}:
				default:
				}
			}
		}
		rep, err := diembft.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node := runtime.NewNode(rep, net.Endpoint(id), opts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = node.Run(ctx)
		}()
	}

	select {
	case <-committed:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster never committed")
	}
	cancel()
	net.Close()
	wg.Wait()

	// Run's exit closed the journal: further appends must fail...
	if err := journal.AppendLock(1); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("journal still open after Run returned: %v", err)
	}
	// ...and a reopened log replays a consistent, non-empty state.
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec, err := core.NewJournal(l2).Recover()
	if err != nil {
		t.Fatalf("recover after shutdown: %v", err)
	}
	if rec.Empty() || len(rec.Votes) == 0 || rec.CommittedHeight == 0 {
		t.Fatalf("shutdown dropped durable state: %d blocks, %d votes, committed h%d",
			len(rec.Blocks), len(rec.Votes), rec.CommittedHeight)
	}
}
