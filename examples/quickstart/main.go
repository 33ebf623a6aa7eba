// Quickstart: run a 4-replica SFT-DiemBFT cluster in-process through the
// public sft facade with the deterministic execution layer attached — every
// replica runs a signed-transfer bank, executes each block BEFORE voting,
// and certifies the resulting 32-byte state root (AppHash) inside the QC.
//
// The payoff is the paper's per-transaction resilience knob applied to a
// real side effect: a withdrawal is submitted requiring 2f-strong
// commitment, the conflict gate holds the account's later traffic while the
// withdrawal is in flight, and the cash is only "handed over" once
// WaitStrength reports the block tolerates 2f Byzantine replicas — twice
// the classical guarantee.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/sft"
)

func main() {
	const (
		n    = 4
		f    = 1
		seed = 7
	)
	// The execution layer: every replica builds an identical bank (1024
	// accounts, ed25519-signed transactions) and executes blocks against it
	// before voting. Sharing one BankKeys cache means each account key is
	// derived once and each signature verified once across the process.
	bankCfg := sft.BankConfig{
		Seed:           seed,
		Accounts:       1024,
		InitialBalance: 1_000_000,
		Keys:           sft.NewBankKeys(seed),
	}

	// The submit path: a mempool whose conflict gate (Section 5) holds a
	// sender's later transactions while a high-value one awaits its required
	// strength.
	mp := sft.NewMempool(0)

	// The key ring is the committee: its size and its signature scheme.
	// Every node built with WithKeyRing reads both from it.
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		log.Fatal(err)
	}
	lan := sft.NewLocalNet(n)
	defer lan.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()

	nodes := make([]*sft.Node, n)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(sft.DiemBFT),
			sft.WithKeyRing(ring),
			sft.WithTransport(lan.Transport(id)),
			sft.WithRoundTimeout(500 * time.Millisecond),
			sft.WithApp(func() sft.StateMachine { return sft.NewBank(bankCfg) }),
		}
		if id == 0 {
			// Node 0 drains the mempool when it leads and feeds its commit
			// stream back into the conflict gate.
			opts = append(opts,
				sft.WithMempool(mp),
				sft.WithPayloadNow(func(sft.Round, time.Duration) sft.Payload {
					return sft.Payload{Txns: mp.Batch(64)}
				}),
			)
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...)
		if err != nil {
			log.Fatal(err)
		}
	}

	events := nodes[0].Commits()

	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = node.Run(ctx)
		}()
	}

	// Account 7 withdraws 50,000 — an irreversible side effect, so it must
	// be 2f-strong before the cash leaves the building — and immediately
	// queues a follow-up transfer. The gate holds the transfer until the
	// withdrawal's block reaches strength 2f.
	withdraw := sft.BankTx{Op: sft.OpWithdraw, From: 7, Amount: 50_000, Nonce: 1}
	sft.SignBankTx(seed, &withdraw)
	followUp := sft.BankTx{Op: sft.OpTransfer, From: 7, To: 8, Amount: 100, Nonce: 2}
	sft.SignBankTx(seed, &followUp)
	mp.Submit(withdraw.AsTransaction(), 2*f)
	mp.Submit(followUp.AsTransaction(), 0)
	fmt.Printf("submitted: withdraw 50000 from account 7 (requires %d-strong); follow-up transfer held=%d gated=%v\n",
		2*f, mp.Held(), mp.Gated(7))

	// Watch node 0's commit stream. CommitEvent.Results are the certified
	// execution verdicts — no payload re-decoding, no re-execution. Once the
	// withdrawal's block is found, WaitStrength gates the side effect; once
	// the released follow-up commits too, the demo is done.
	var withdrawBlock sft.BlockID
	released := make(chan struct{})
	for ev := range events {
		if !ev.Regular {
			continue
		}
		for _, res := range ev.Results {
			if res.Sender != 7 {
				continue
			}
			switch res.Seq {
			case withdraw.Nonce:
				fmt.Printf("withdrawal executed at height %d, verdict %v — f-strong only, cash stays put\n",
					ev.Height, res.Code)
				withdrawBlock = ev.Block.ID()
				// The resilience knob: block until the commit tolerates 2f
				// Byzantine replicas, then release the side effect.
				go func(id sft.BlockID) {
					if err := nodes[0].WaitStrength(ctx, id, 2*f); err == nil {
						fmt.Printf("WaitStrength: withdrawal block is %d-strong — releasing the cash\n", 2*f)
					}
					close(released)
				}(withdrawBlock)
			case followUp.Nonce:
				// The gate only lets this through after the withdrawal
				// strengthened to its requirement.
				<-released
				fmt.Printf("released follow-up transfer committed at height %d, verdict %v\n", ev.Height, res.Code)
				cancel()
			}
		}
	}
	wg.Wait()

	// With the cluster stopped, the application state is safe to read.
	bank := nodes[0].AppState().(*sft.Bank)
	fmt.Printf("\nfinal state of account 7: balance=%d nonce=%d (held=%d gated=%v)\n",
		bank.Balance(7), bank.Nonce(7), mp.Held(), mp.Gated(7))
	root, h := nodes[0].AppHash()
	fmt.Printf("final certified AppHash %x at height %d\n", root[:8], h)
}
