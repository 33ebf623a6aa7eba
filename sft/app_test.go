package sft_test

import (
	"fmt"
	"testing"
	"time"

	"repro/sft"
)

// bankCluster builds an n=4 simnet cluster where every node executes the
// same bank before voting. Nodes share one workload-free payload function
// supplied by the caller (nil proposes empty blocks).
func bankCluster(t *testing.T, seed int64, cfg sft.BankConfig, extra func(id sft.ReplicaID) []sft.Option) (*sft.Simnet, []*sft.Node) {
	t.Helper()
	const n = 4
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: &sft.UniformLatency{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
		Seed:    seed,
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
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(250 * time.Millisecond),
			sft.WithApp(func() sft.StateMachine { return sft.NewBank(cfg) }),
		}
		if extra != nil {
			opts = append(opts, extra(id)...)
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...)
		if err != nil {
			t.Fatal(err)
		}
	}
	return world, nodes
}

// TestSimnetBankAppHashAgreement runs a signed-transfer workload through the
// facade and asserts the execution-layer headline properties end to end:
// every node certifies the same state root at its committed height, commit
// events carry per-transaction results without any payload re-decoding, and
// the application state is reachable through the handle.
func TestSimnetBankAppHashAgreement(t *testing.T) {
	const seed = 41
	cfg := sft.BankConfig{Seed: seed, Accounts: 64, InitialBalance: 1 << 16, Keys: sft.NewBankKeys(seed)}

	// Deterministic signed transfer stream: account i pays account i+1.
	var nonce [64]uint64
	payload := func(r sft.Round, now time.Duration) sft.Payload {
		var p sft.Payload
		for i := 0; i < 4; i++ {
			from := uint32((int(r)*4 + i) % 64)
			nonce[from]++
			tx := sft.BankTx{Op: sft.OpTransfer, From: from, To: (from + 1) % 64, Amount: 3, Nonce: nonce[from]}
			sft.SignBankTx(seed, &tx)
			p.Txns = append(p.Txns, tx.AsTransaction())
		}
		return p
	}

	world, nodes := bankCluster(t, seed, cfg, func(id sft.ReplicaID) []sft.Option {
		if id != 0 {
			return nil
		}
		// Only node 0 proposes traffic; that keeps the nonce stream coherent
		// (a shared counter across rotating leaders would race rounds that
		// never commit).
		return []sft.Option{sft.WithPayloadNow(payload)}
	})
	subs := make([]<-chan sft.CommitEvent, len(nodes))
	for i, node := range nodes {
		subs[i] = node.Commits()
	}

	world.Run(5 * time.Second)

	// All nodes must have executed to a non-genesis root, and nodes that
	// committed to the same height must certify the identical root.
	type tip struct {
		root [32]byte
		h    sft.Height
	}
	tips := make([]tip, len(nodes))
	genesis := sft.NewBank(cfg).GenesisRoot()
	for i, node := range nodes {
		if node.AppState() == nil {
			t.Fatalf("node %d: AppState is nil despite WithApp", i)
		}
		root, h := node.AppHash()
		if h == 0 || root == genesis || root == ([32]byte{}) {
			t.Fatalf("node %d: state never advanced (height %d, root %x)", i, h, root[:8])
		}
		tips[i] = tip{root, h}
	}
	agreeing := 0
	for i := 1; i < len(tips); i++ {
		if tips[i].h == tips[0].h {
			agreeing++
			if tips[i].root != tips[0].root {
				t.Fatalf("node %d and node 0 both committed height %d with different roots: %x vs %x",
					i, tips[0].h, tips[i].root[:8], tips[0].root[:8])
			}
		}
	}
	if agreeing == 0 {
		t.Fatal("no two nodes quiesced at a common height; run too short to compare roots")
	}

	// Commit events expose execution results aligned with the payload, with
	// all-OK verdicts for the well-formed stream — and every node reports the
	// identical verdict sequence per height (deterministic execution).
	for _, node := range nodes {
		node.Close()
	}
	verdicts := make([]map[sft.Height][]sft.TxResult, len(nodes))
	for i, sub := range subs {
		verdicts[i] = make(map[sft.Height][]sft.TxResult)
		for ev := range sub {
			if !ev.Regular {
				if ev.Results != nil {
					t.Fatalf("node %d: strength-rise event at height %d carries Results", i, ev.Height)
				}
				continue
			}
			if len(ev.Results) != len(ev.Block.Payload.Txns) {
				t.Fatalf("node %d height %d: %d results for %d txns", i, ev.Height, len(ev.Results), len(ev.Block.Payload.Txns))
			}
			for j, res := range ev.Results {
				txn := ev.Block.Payload.Txns[j]
				if res.Sender != txn.Sender || res.Seq != txn.Seq {
					t.Fatalf("node %d height %d: result %d is (%d,%d), txn is (%d,%d)",
						i, ev.Height, j, res.Sender, res.Seq, txn.Sender, txn.Seq)
				}
				if res.Code != sft.CodeOK {
					t.Fatalf("node %d height %d: txn %d rejected: %v", i, ev.Height, j, res.Code)
				}
			}
			verdicts[i][ev.Height] = ev.Results
		}
	}
	sawTxns := false
	for h, ref := range verdicts[0] {
		if len(ref) > 0 {
			sawTxns = true
		}
		for i := 1; i < len(verdicts); i++ {
			got, ok := verdicts[i][h]
			if !ok {
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("height %d: node %d saw %d results, node 0 saw %d", h, i, len(got), len(ref))
			}
			for j := range ref {
				if got[j] != ref[j] {
					t.Fatalf("height %d txn %d: node %d verdict %+v, node 0 verdict %+v", h, j, i, got[j], ref[j])
				}
			}
		}
	}
	if !sawTxns {
		t.Fatal("no committed block carried transactions; workload never flowed")
	}
}

// TestMempoolGateReleasesAtStrength drives the Section 5 conflict gate
// through the facade: a withdrawal requiring 2f-strong commitment holds the
// sender's follow-up transfer until the block carrying it strengthens to 2f,
// at which point the hold releases and the follow-up commits too.
func TestMempoolGateReleasesAtStrength(t *testing.T) {
	const seed = 53
	cfg := sft.BankConfig{Seed: seed, Accounts: 16, InitialBalance: 1 << 16, Keys: sft.NewBankKeys(seed)}
	mp := sft.NewMempool(0)

	world, nodes := bankCluster(t, seed, cfg, func(id sft.ReplicaID) []sft.Option {
		if id != 0 {
			return nil
		}
		return []sft.Option{
			sft.WithMempool(mp),
			sft.WithPayloadNow(func(r sft.Round, now time.Duration) sft.Payload {
				return sft.Payload{Txns: mp.Batch(16)}
			}),
		}
	})

	// A high-value withdrawal from account 7 that must be 2f-strong before
	// anything later from the same sender moves, then a follow-up transfer.
	withdraw := sft.BankTx{Op: sft.OpWithdraw, From: 7, Amount: 1000, Nonce: 1}
	sft.SignBankTx(seed, &withdraw)
	followUp := sft.BankTx{Op: sft.OpTransfer, From: 7, To: 8, Amount: 5, Nonce: 2}
	sft.SignBankTx(seed, &followUp)

	mp.Submit(withdraw.AsTransaction(), 2) // 2f for f=1
	mp.Submit(followUp.AsTransaction(), 0)

	if held := mp.Held(); held != 1 {
		t.Fatalf("follow-up not held behind the withdrawal: held=%d", held)
	}
	if !mp.Gated(7) {
		t.Fatal("sender 7 not gated while the withdrawal is in flight")
	}

	world.Run(5 * time.Second)

	if mp.Gated(7) {
		t.Fatal("sender 7 still gated after the run; withdrawal never reached 2f-strong")
	}
	if held := mp.Held(); held != 0 {
		t.Fatalf("%d transactions still held after the run", held)
	}
	// Both transactions must have executed: the withdrawal burned 1000 and
	// the released follow-up moved 5 more, so account 7's committed state
	// shows both nonces consumed.
	bank, ok := nodes[0].AppState().(*sft.Bank)
	if !ok {
		t.Fatal("AppState is not the bank")
	}
	if n := bank.Nonce(7); n != 2 {
		t.Fatalf("account 7 nonce %d after the run; want 2 (withdrawal + released follow-up)", n)
	}
	wantBal := uint64(1<<16) - 1000 - 5
	if b := bank.Balance(7); b != wantBal {
		t.Fatalf("account 7 balance %d; want %d", b, wantBal)
	}
}

// TestSimnetBankRestartReconverges crashes a node mid-run and restarts it
// over its WAL: WithApp's factory builds a FRESH bank for the new
// incarnation, the recovered chain re-executes, and the node lands back on
// the cluster's certified state roots.
func TestSimnetBankRestartReconverges(t *testing.T) {
	const seed = 67
	cfg := sft.BankConfig{Seed: seed, Accounts: 32, InitialBalance: 1 << 16, DisableSigVerify: true}

	var nonce [32]uint64
	payload := func(r sft.Round, now time.Duration) sft.Payload {
		from := uint32(int(r) % 32)
		nonce[from]++
		tx := sft.BankTx{Op: sft.OpTransfer, From: from, To: (from + 3) % 32, Amount: 2, Nonce: nonce[from]}
		return sft.Payload{Txns: []sft.Transaction{tx.AsTransaction()}}
	}

	dir := t.TempDir()
	world, nodes := bankCluster(t, seed, cfg, func(id sft.ReplicaID) []sft.Option {
		opts := []sft.Option{sft.WithWAL(fmt.Sprintf("%s/wal-%d", dir, id))}
		if id == 0 {
			opts = append(opts, sft.WithPayloadNow(payload))
		}
		return opts
	})

	victim := sft.ReplicaID(2)
	world.CrashAt(victim, 2*time.Second)
	var restored bool
	if err := world.RestartAt(victim, 3*time.Second, func(info sft.RecoveryInfo) {
		restored = info.Blocks > 0
	}); err != nil {
		t.Fatal(err)
	}

	world.Run(6 * time.Second)

	if !restored {
		t.Fatal("restart recovered nothing from the WAL")
	}
	vroot, vh := nodes[victim].AppHash()
	if vh == 0 {
		t.Fatal("victim committed nothing after restart")
	}
	// The victim must agree with any node that quiesced at the same height.
	compared := false
	for i, node := range nodes {
		if sft.ReplicaID(i) == victim {
			continue
		}
		root, h := node.AppHash()
		if h == vh {
			compared = true
			if root != vroot {
				t.Fatalf("victim root %x at height %d, node %d root %x", vroot[:8], vh, i, root[:8])
			}
		}
	}
	if !compared {
		t.Skip("no peer quiesced at the victim's height; nothing to compare (rare scheduling)")
	}
}
