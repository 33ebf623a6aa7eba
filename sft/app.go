package sft

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/mempool"
)

// This file is the facade's execution-layer surface: deterministic
// execute-before-vote state machines (WithApp), the flagship signed-transfer
// bank, and the strength-gated mempool that holds a sender's later
// transactions while a high-value one waits for its required commit
// strength.

// Execution-layer re-exports (see internal/app for the full contract).
type (
	// StateMachine is the deterministic execution interface replicas run
	// before voting: Apply must be a pure function of (parent root, block) —
	// identical across replicas, no clocks, no map-iteration dependence —
	// because its 32-byte result rides in the vote's signed payload and in
	// QCs. Honest replicas refuse to vote for a proposal whose certified
	// parent state root disagrees with their own execution: state forks stop
	// at the vote, not at the application.
	StateMachine = app.StateMachine
	// TxResult is one transaction's deterministic execution outcome.
	TxResult = app.TxResult
	// TxCode classifies a transaction outcome (TxResult.Code).
	TxCode = app.Code
	// Bank is the flagship StateMachine: ed25519-signed transfers and
	// withdrawals over a derived account population, with nonces, balance
	// invariants, and an order-independent state commitment.
	Bank = app.Bank
	// BankConfig parameterizes a Bank.
	BankConfig = app.BankConfig
	// BankTx is one signed bank operation, carried as Transaction.Data.
	BankTx = app.BankTx
	// BankKeys is a shareable account-pubkey and signature-verdict cache.
	BankKeys = app.BankKeys
)

// Bank operation codes and helpers, re-exported.
const (
	// OpTransfer moves funds between accounts.
	OpTransfer = app.OpTransfer
	// OpWithdraw removes funds from the system — the irreversible operation
	// class applications gate on strength.
	OpWithdraw = app.OpWithdraw
)

// Transaction result codes (TxResult.Code), re-exported.
const (
	// CodeOK means the transaction applied.
	CodeOK = app.CodeOK
	// CodeMalformed means the transaction did not decode.
	CodeMalformed = app.CodeMalformed
	// CodeBadSignature means the signature check failed.
	CodeBadSignature = app.CodeBadSignature
	// CodeBadNonce means the nonce was not the account's next.
	CodeBadNonce = app.CodeBadNonce
	// CodeInsufficient means the balance was too low.
	CodeInsufficient = app.CodeInsufficient
)

// NewBank creates the flagship bank state machine. Use it as
// WithApp(func() sft.StateMachine { return sft.NewBank(cfg) }).
func NewBank(cfg BankConfig) *Bank { return app.NewBank(cfg) }

// NewBankKeys creates a shareable pubkey/verdict cache for BankConfig.Keys;
// share one across in-process replicas so each account key derives once and
// each signature verifies once globally.
func NewBankKeys(seed int64) *BankKeys { return app.NewBankKeys(seed) }

// SignBankTx signs t with the account key derived from (seed, t.From).
func SignBankTx(seed int64, t *BankTx) { app.SignBankTx(seed, t) }

// WithApp attaches a deterministic execution layer: every block is executed
// BEFORE the replica votes on it, the resulting state root (AppHash) is part
// of the vote's signed payload and of every QC, and honest replicas refuse
// to vote for proposals certifying a state root that disagrees with their
// own execution.
//
// The factory is invoked once per engine incarnation — including rebuilds
// after a crash (Simnet.RestartAt / a node recreated over its WAL) — so
// recovery always starts from a FRESH instance and deterministically
// re-executes the restored chain; reusing an instance across a restart would
// double-apply. All replicas must run the same factory; determinism of
// Apply is the whole contract (see StateMachine).
func WithApp(factory func() StateMachine) Option {
	return func(s *settings) { s.app = factory }
}

// WithPayloadNow supplies block transactions: fn is called once per led
// round with the node's virtual/monotonic time alongside the round, which
// latency-accounting workload generators stamp their transactions with. nil
// (the default) proposes empty blocks.
func WithPayloadNow(fn func(r Round, now time.Duration) Payload) Option {
	return func(s *settings) { s.payloadNow = fn }
}

// executor returns the node's execution-layer executor (nil without
// WithApp), tracking engine swaps across Simnet restarts.
func (n *Node) executor() *app.Executor {
	if ax, ok := n.honestEngine().(interface{ AppExecutor() *app.Executor }); ok {
		return ax.AppExecutor()
	}
	return nil
}

// AppState returns the node's live state machine instance (the one WithApp's
// factory built for the current incarnation), or nil without WithApp. Read
// it only between Simnet.Run calls or after Run returns — the engine's event
// loop owns it while events are flowing.
func (n *Node) AppState() StateMachine {
	if exec := n.executor(); exec != nil {
		return exec.StateMachine()
	}
	return nil
}

// AppHash returns the execution-layer state root of the latest committed
// block and its height (zero values without WithApp or before the first
// commit).
func (n *Node) AppHash() ([32]byte, Height) {
	if exec := n.executor(); exec != nil {
		return exec.CommittedRoot(), exec.CommittedHeight()
	}
	return [32]byte{}, 0
}

// AppHashAt returns the execution-layer state root after block id, false
// without WithApp or once the executor has pruned it (far below the committed
// height, so a commit observer always finds the block it is handed). Like
// AppState, read it from the event path or between Simnet.Run calls.
func (n *Node) AppHashAt(id BlockID) ([32]byte, bool) {
	if exec := n.executor(); exec != nil {
		return exec.Root(id)
	}
	return [32]byte{}, false
}

// AppExecuted returns how many blocks the current incarnation's state
// machine ran (0 without WithApp), read like AppState.
func (n *Node) AppExecuted() int64 {
	if exec := n.executor(); exec != nil {
		return exec.Executed()
	}
	return 0
}

// Mempool is the facade's submit path: a bounded FIFO transaction pool
// behind the Section 5 conflict gate. Submit a transaction with a required
// strength > 0 and later transactions from the same sender are held back
// until the block carrying it reaches that strength — so a weaker,
// earlier-committed conflicting transaction can never overtake a stronger
// one still in flight. Attach it to a node with WithMempool; the node then
// reports inclusions and strength rises into the gate synchronously on its
// commit path (deterministic under Simnet), and drain batches from a
// WithPayloadNow function.
type Mempool struct {
	mu   sync.Mutex
	pool *mempool.Pool
	gate *mempool.ConflictGate
}

// NewMempool creates a mempool bounded to capacity transactions (0 =
// unbounded).
func NewMempool(capacity int) *Mempool {
	p := mempool.New(capacity)
	return &Mempool{pool: p, gate: mempool.NewConflictGate(p)}
}

// Submit enqueues a transaction. requiredStrength > 0 marks it high-valued:
// until the block containing it is requiredStrength-strong committed, later
// transactions from the same sender are held back.
func (m *Mempool) Submit(txn Transaction, requiredStrength int) {
	m.mu.Lock()
	m.gate.Submit(txn, requiredStrength)
	m.mu.Unlock()
}

// Batch removes and returns up to max released transactions, oldest first —
// call it from a WithPayloadNow function.
func (m *Mempool) Batch(max int) []Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pool.Batch(max)
}

// Pending returns the number of transactions ready for inclusion.
func (m *Mempool) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pool.Len()
}

// Held returns the number of transactions currently held behind an
// in-flight high-value transaction.
func (m *Mempool) Held() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gate.Held()
}

// Gated reports whether sender currently has an unreleased high-value
// transaction in flight.
func (m *Mempool) Gated(sender uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gate.Gated(sender)
}

// observe feeds one commit event into the conflict gate: the regular commit
// registers the block's transactions as included, and every event's strength
// releases senders whose requirement it satisfies.
func (m *Mempool) observe(ev CommitEvent) {
	id := ev.Block.ID()
	m.mu.Lock()
	if ev.Regular {
		m.gate.OnIncluded(id, ev.Block.Payload.Txns)
	}
	m.gate.OnStrengthened(id, ev.Strength)
	m.mu.Unlock()
}

// WithMempool wires the mempool's conflict gate into the node's commit path:
// every commit reports its transactions as included and every strength rise
// releases satisfied senders, synchronously on the event path (so Simnet
// runs stay deterministic). One mempool may back several nodes' payload
// functions, but attach the gate to exactly one node per mempool — the one
// whose strength observations should release holds.
func WithMempool(m *Mempool) Option {
	return func(s *settings) {
		if m == nil {
			s.fail(fmt.Errorf("sft: nil mempool"))
			return
		}
		s.mempool = m
	}
}
