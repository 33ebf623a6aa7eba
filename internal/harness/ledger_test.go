package harness_test

// The committed transaction log the full-stack test keeps per replica: the
// linearizable log BFT SMR exposes to applications, per-block strong-commit
// strength levels, and the cross-replica consistency checker. It is a test
// helper (its only user is fullstack_test.go); the production execution layer
// is internal/app.

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// Errors returned by Ledger operations.
var (
	ErrGap      = errors.New("ledger: commit height gap")
	ErrConflict = errors.New("ledger: conflicting commit at height")
)

// ledgerEntry is one committed block in the log.
type ledgerEntry struct {
	Block    *types.Block
	Strength int // highest known x such that the block is x-strong committed
	// AppHash is the execution-layer state root the replica computed for the
	// block (zero when no execution layer ran). Recorded via SetAppHash; the
	// consistency checker compares it across replicas per height.
	AppHash [32]byte
}

// ledgerApplier consumes committed transactions in order; the application's state
// machine. Implementations must be deterministic.
type ledgerApplier interface {
	// Apply executes one transaction. It is called exactly once per
	// committed transaction, in log order.
	Apply(txn types.Transaction)
}

// Ledger is one replica's committed chain prefix. Not safe for concurrent
// use; the engine's event loop owns it.
type Ledger struct {
	entries []ledgerEntry
	index   map[types.BlockID]int
	applier ledgerApplier
	applied int64
}

// newLedger creates an empty ledger; applier may be nil.
func newLedger(applier ledgerApplier) *Ledger {
	return &Ledger{index: make(map[types.BlockID]int), applier: applier}
}

// Commit appends a block at the next height. Blocks must arrive in height
// order with no gaps (engines emit commits that way), starting at height 1.
func (l *Ledger) Commit(b *types.Block) error {
	want := types.Height(len(l.entries) + 1)
	if b.Height != want {
		if b.Height <= types.Height(len(l.entries)) {
			// Duplicate commit of an existing height must match exactly.
			if l.entries[b.Height-1].Block.ID() != b.ID() {
				return fmt.Errorf("%w %d: %v vs %v", ErrConflict, b.Height,
					l.entries[b.Height-1].Block.ID(), b.ID())
			}
			return nil
		}
		return fmt.Errorf("%w: got h%d, want h%d", ErrGap, b.Height, want)
	}
	l.entries = append(l.entries, ledgerEntry{Block: b, Strength: -1})
	l.index[b.ID()] = len(l.entries) - 1
	if l.applier != nil {
		for _, txn := range b.Payload.Txns {
			l.applier.Apply(txn)
			l.applied++
		}
	}
	return nil
}

// Strengthen records that a block reached strength x. Unknown blocks are
// ignored (strength events can race ahead of commits for uncommitted
// descendants).
func (l *Ledger) Strengthen(id types.BlockID, x int) {
	if i, ok := l.index[id]; ok && x > l.entries[i].Strength {
		l.entries[i].Strength = x
	}
}

// SetAppHash records the execution-layer state root the replica computed for
// a committed block. Unknown blocks are ignored.
func (l *Ledger) SetAppHash(id types.BlockID, root [32]byte) {
	if i, ok := l.index[id]; ok {
		l.entries[i].AppHash = root
	}
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() types.Height { return types.Height(len(l.entries)) }

// Applied returns the number of transactions applied to the state machine.
func (l *Ledger) Applied() int64 { return l.applied }

// At returns the entry at height h (1-based), or nil.
func (l *Ledger) At(h types.Height) *ledgerEntry {
	if h < 1 || h > types.Height(len(l.entries)) {
		return nil
	}
	return &l.entries[h-1]
}

// StrengthAt returns the strength of the block at height h, or -1.
func (l *Ledger) StrengthAt(h types.Height) int {
	if e := l.At(h); e != nil {
		return e.Strength
	}
	return -1
}

// MinStrengthOver returns the minimum strength over heights [from, to], the
// assurance of the whole prefix a client relies on when acting on height
// `to` given everything since `from`.
func (l *Ledger) MinStrengthOver(from, to types.Height) int {
	minX := -1
	for h := from; h <= to; h++ {
		e := l.At(h)
		if e == nil {
			return -1
		}
		if minX == -1 || e.Strength < minX {
			minX = e.Strength
		}
	}
	return minX
}

// CheckPrefixConsistency verifies the BFT SMR safety property across
// replicas: no two ledgers commit different blocks at the same height.
// It returns the first divergence found.
func CheckPrefixConsistency(ledgers []*Ledger) error {
	if len(ledgers) == 0 {
		return nil
	}
	for h := types.Height(1); ; h++ {
		var ref *ledgerEntry
		var refIdx int
		any := false
		for i, l := range ledgers {
			e := l.At(h)
			if e == nil {
				continue
			}
			any = true
			if ref == nil {
				ref, refIdx = e, i
				continue
			}
			if e.Block.ID() != ref.Block.ID() {
				return fmt.Errorf("%w %d: replica %d has %v, replica %d has %v",
					ErrConflict, h, refIdx, ref.Block.ID(), i, e.Block.ID())
			}
			// Same block, different executed state: a state fork the ordering
			// check alone cannot see. Roots are compared only where both
			// replicas recorded one (zero = no execution layer on that side).
			if e.AppHash != ref.AppHash && e.AppHash != ([32]byte{}) && ref.AppHash != ([32]byte{}) {
				return fmt.Errorf("%w %d: replica %d state root %x, replica %d state root %x",
					ErrConflict, h, refIdx, ref.AppHash[:8], i, e.AppHash[:8])
			}
		}
		if !any {
			return nil
		}
	}
}

// KVStore is a deterministic ledgerApplier for tests and examples: transactions
// whose Data is "key=value" update a map; everything else is a no-op write
// counted but not stored.
type KVStore struct {
	state map[string]string
	ops   int64
}

// NewKVStore creates an empty store.
func NewKVStore() *KVStore {
	return &KVStore{state: make(map[string]string)}
}

// Apply implements ledgerApplier.
func (kv *KVStore) Apply(txn types.Transaction) {
	kv.ops++
	for i, c := range txn.Data {
		if c == '=' {
			kv.state[string(txn.Data[:i])] = string(txn.Data[i+1:])
			return
		}
	}
}

// Get returns the value for key and whether it exists.
func (kv *KVStore) Get(key string) (string, bool) {
	v, ok := kv.state[key]
	return v, ok
}

// Ops returns the number of applied transactions.
func (kv *KVStore) Ops() int64 { return kv.ops }

// Len returns the number of live keys.
func (kv *KVStore) Len() int { return len(kv.state) }
