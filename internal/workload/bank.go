package workload

import (
	"math/rand"
	"time"

	"repro/internal/app"
	"repro/internal/types"
)

// Bank generates bank-transfer traffic for the execution layer: each payload
// carries a batch of unsigned app.BankTx operations (mostly transfers, some
// withdrawals) drawn from a deterministic account population, for a bank
// running DisableSigVerify. The generator tracks the nonce it last issued per
// account, so in a benign run — where every proposed block commits —
// transactions apply cleanly; under forks or timeouts the nonces of
// never-committed proposals are burned and the bank rejects the successors
// with CodeBadNonce, which is deliberate: result codes are part of the
// deterministic state the AppHash certifies, not something the workload may
// paper over.
//
// The generator is stateful and not safe for concurrent use; the
// discrete-event simulator calls it from one goroutine (whichever replica
// leads the round), which both keeps it deterministic and models a shared
// client population submitting to the current leader.
type Bank struct {
	cfg   app.BankConfig
	rng   *rand.Rand
	txns  int
	nonce map[uint32]uint64
}

// NewBank creates a generator over the account population cfg describes;
// txnsPerBlock is the batch size per payload.
func NewBank(seed int64, cfg app.BankConfig, txnsPerBlock int) *Bank {
	if cfg.Accounts == 0 {
		cfg.Accounts = 1
	}
	if txnsPerBlock <= 0 {
		txnsPerBlock = 1
	}
	return &Bank{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		txns:  txnsPerBlock,
		nonce: make(map[uint32]uint64),
	}
}

// Payload implements the engines' PayloadNow hook: it is invoked by the
// proposing leader with the virtual submission time, which doubles as each
// batched transaction's submit timestamp (the block's creation time), so
// creation→x-strong latency IS submit→x-strong latency for this workload.
func (w *Bank) Payload(r types.Round, now time.Duration) types.Payload {
	out := make([]types.Transaction, 0, w.txns)
	for i := 0; i < w.txns; i++ {
		from := uint32(w.rng.Intn(int(w.cfg.Accounts)))
		tx := app.BankTx{
			Op:     app.OpTransfer,
			From:   from,
			To:     uint32(w.rng.Intn(int(w.cfg.Accounts))),
			Amount: 1 + uint64(w.rng.Intn(50)),
			Nonce:  w.nonce[from] + 1,
		}
		// One in eight operations is a withdrawal — the irreversible,
		// strength-gated operation class.
		if w.rng.Intn(8) == 0 {
			tx.Op = app.OpWithdraw
			tx.To = 0
		}
		w.nonce[from]++
		out = append(out, tx.AsTransaction())
	}
	return types.Payload{Txns: out}
}
