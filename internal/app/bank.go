package app

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"

	"repro/internal/types"
)

// Bank is the flagship execution-layer application: a signed-transfer ledger
// over a large account space (the workloads drive ~1M accounts). Every
// account starts at InitialBalance; transactions are ed25519-signed by
// per-account keys derived from the bank seed, ordered by strict per-account
// nonces, and balance-checked — a failed check burns the transaction
// deterministically (same result code everywhere) without touching state.
//
// State root. The root is an incremental commitment: an XOR fold of
// per-account leaf hashes H("bankleaf/" || id || balance || nonce) over the
// accounts that diverge from their initial state, finalized under a domain
// separator with the bank parameters. Updates are O(1) per touched account
// regardless of the account space, which is what makes execute-before-vote
// affordable at ~1M accounts. It is Merkle-ish, not a Merkle tree: it
// detects divergence among honest replicas (the consensus use) but offers
// no compact membership proofs and the XOR fold is not collision-resistant
// against adversarially chosen state multisets — a production deployment
// would swap in a real accumulator behind the same StateMachine interface.
//
// Forks. Apply never mutates the state at the parent root; it records a
// copy-on-write overlay keyed by the resulting root, so competing blocks
// extending the same parent execute independently. Commit folds the winning
// overlay chain into the base state and sweeps overlays that can no longer
// reach it.
type Bank struct {
	cfg  BankConfig
	keys *BankKeys

	base     map[uint32]accountState // accounts diverging from initial state
	baseAcc  [32]byte                // XOR fold over base's leaf hashes
	baseRoot [32]byte

	overlays map[[32]byte]*overlay // speculative states keyed by root

	sigScratch []byte
}

// BankConfig parameterizes a Bank. All replicas of a cluster must use the
// identical config — it is folded into the state root.
type BankConfig struct {
	// Seed derives the per-account ed25519 keys.
	Seed int64
	// Accounts is the number of pre-funded accounts (IDs [0, Accounts)).
	Accounts uint32
	// InitialBalance funds every account at genesis.
	InitialBalance uint64
	// DisableSigVerify skips ed25519 signature checks during Apply —
	// deterministic as long as every replica agrees, useful when the
	// workload is trusted and only the state-machine mechanics are under
	// test. Leave false for the real execution contract.
	DisableSigVerify bool
	// Keys optionally shares a key/verification cache across in-process
	// replicas (pure memoization: signature verdicts are deterministic, so
	// sharing never changes results). Nil gives the bank a private cache.
	Keys *BankKeys
}

type accountState struct {
	Balance uint64
	Nonce   uint64
}

type overlay struct {
	parent [32]byte
	root   [32]byte
	acc    [32]byte
	delta  map[uint32]accountState // absolute post-states of touched accounts
}

// NewBank creates a bank with every account funded at InitialBalance.
func NewBank(cfg BankConfig) *Bank {
	if cfg.Accounts == 0 {
		cfg.Accounts = 1
	}
	keys := cfg.Keys
	if keys == nil {
		keys = NewBankKeys(cfg.Seed)
	}
	b := &Bank{
		cfg:      cfg,
		keys:     keys,
		base:     make(map[uint32]accountState),
		overlays: make(map[[32]byte]*overlay),
	}
	b.baseRoot = b.finalizeRoot(b.baseAcc)
	return b
}

// initial returns the genesis state of account id.
func (b *Bank) initial(id uint32) accountState {
	if id < b.cfg.Accounts {
		return accountState{Balance: b.cfg.InitialBalance}
	}
	return accountState{}
}

// leaf hashes one account's divergent state into its root contribution.
func leaf(id uint32, st accountState) [32]byte {
	var buf [8 + 4 + 8 + 8]byte
	copy(buf[:], "bankleaf")
	buf[8] = byte(id >> 24)
	buf[9] = byte(id >> 16)
	buf[10] = byte(id >> 8)
	buf[11] = byte(id)
	for i := 0; i < 8; i++ {
		buf[12+i] = byte(st.Balance >> (56 - 8*i))
		buf[20+i] = byte(st.Nonce >> (56 - 8*i))
	}
	return sha256.Sum256(buf[:])
}

// finalizeRoot derives the state root from the accumulator, folding in the
// bank parameters so differently-configured banks can never alias.
func (b *Bank) finalizeRoot(acc [32]byte) [32]byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, "bankroot/"...)
	buf = types.AppendUint32(buf, b.cfg.Accounts)
	buf = types.AppendUint64(buf, b.cfg.InitialBalance)
	buf = append(buf, acc[:]...)
	return sha256.Sum256(buf)
}

// GenesisRoot implements StateMachine.
func (b *Bank) GenesisRoot() [32]byte {
	var zero [32]byte
	return b.finalizeRoot(zero)
}

// stateAt resolves account id's state as of the given root, walking the
// overlay chain down to the base. ok is false when root is unknown.
func (b *Bank) stateAt(root [32]byte, id uint32) (accountState, bool) {
	cur := root
	for cur != b.baseRoot {
		o := b.overlays[cur]
		if o == nil {
			return accountState{}, false
		}
		if st, hit := o.delta[id]; hit {
			return st, true
		}
		cur = o.parent
	}
	if st, hit := b.base[id]; hit {
		return st, true
	}
	return b.initial(id), true
}

// knownRoot reports whether root resolves to the base or a live overlay.
func (b *Bank) knownRoot(root [32]byte) bool {
	cur := root
	for cur != b.baseRoot {
		o := b.overlays[cur]
		if o == nil {
			return false
		}
		cur = o.parent
	}
	return true
}

// Apply implements StateMachine: execute the block's transactions against
// the state at parent, returning the new root and per-transaction results.
func (b *Bank) Apply(parent [32]byte, blk *types.Block) ([32]byte, []TxResult, error) {
	if !b.knownRoot(parent) {
		return [32]byte{}, nil, fmt.Errorf("app: bank has no state at root %x", parent[:8])
	}
	acc := b.accAt(parent)
	delta := make(map[uint32]accountState)
	results := make([]TxResult, 0, len(blk.Payload.Txns))

	// get/set resolve against the in-progress delta first so transactions
	// within one block see each other's effects.
	get := func(id uint32) accountState {
		if st, ok := delta[id]; ok {
			return st
		}
		st, _ := b.stateAt(parent, id)
		return st
	}
	set := func(id uint32, st accountState) {
		old := get(id)
		if old != b.initial(id) {
			l := leaf(id, old)
			for i := range acc {
				acc[i] ^= l[i]
			}
		}
		if st != b.initial(id) {
			l := leaf(id, st)
			for i := range acc {
				acc[i] ^= l[i]
			}
		}
		delta[id] = st
	}

	for _, txn := range blk.Payload.Txns {
		results = append(results, TxResult{Sender: txn.Sender, Seq: txn.Seq, Code: b.applyOne(txn, get, set)})
	}

	root := b.finalizeRoot(acc)
	if len(delta) == 0 {
		// State unchanged (empty or all-rejected block): the root IS the
		// parent root; recording an identity overlay would self-link.
		return parent, results, nil
	}
	if _, dup := b.overlays[root]; !dup && root != b.baseRoot {
		b.overlays[root] = &overlay{parent: parent, root: root, acc: acc, delta: delta}
	}
	return root, results, nil
}

// accAt returns the accumulator at a known root.
func (b *Bank) accAt(root [32]byte) [32]byte {
	if root == b.baseRoot {
		return b.baseAcc
	}
	return b.overlays[root].acc
}

// applyOne executes a single transaction, mutating state through set only
// when every check passes.
func (b *Bank) applyOne(txn types.Transaction, get func(uint32) accountState, set func(uint32, accountState)) Code {
	t, rest, err := DecodeBankTx(txn.Data)
	if err != nil || len(rest) != 0 || t.Amount == 0 {
		return CodeMalformed
	}
	if !b.cfg.DisableSigVerify {
		b.sigScratch = t.AppendSigningPayload(b.sigScratch[:0])
		if !b.keys.Verify(t.From, b.sigScratch, t.Sig[:]) {
			return CodeBadSignature
		}
	}
	from := get(t.From)
	if t.Nonce != from.Nonce+1 {
		return CodeBadNonce
	}
	if from.Balance < t.Amount {
		// The nonce does NOT advance on a failed balance check: the holder
		// can re-sign the same nonce with a smaller amount.
		return CodeInsufficient
	}
	from.Balance -= t.Amount
	from.Nonce = t.Nonce
	if t.Op == OpTransfer && t.To == t.From {
		from.Balance += t.Amount // self-transfer: nonce advances, funds stay
	}
	set(t.From, from)
	if t.Op == OpTransfer && t.To != t.From {
		to := get(t.To)
		to.Balance += t.Amount
		set(t.To, to)
	}
	return CodeOK
}

// Commit implements StateMachine: fold the overlay chain ending at root into
// the base state and sweep overlays that no longer reach the new base.
func (b *Bank) Commit(root [32]byte) error {
	if root == b.baseRoot {
		return nil
	}
	// Collect the chain base -> root (walked tip-down, applied bottom-up).
	var chain []*overlay
	cur := root
	for cur != b.baseRoot {
		o := b.overlays[cur]
		if o == nil {
			return fmt.Errorf("app: bank cannot commit unknown root %x", root[:8])
		}
		chain = append(chain, o)
		cur = o.parent
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for id, st := range chain[i].delta {
			if st == b.initial(id) {
				delete(b.base, id)
			} else {
				b.base[id] = st
			}
		}
		delete(b.overlays, chain[i].root)
	}
	b.baseAcc = chain[0].acc
	b.baseRoot = root
	// Sweep overlays that no longer chain down to the base: committed
	// siblings and their descendants are dead forks (their chains terminate
	// at an overlay deleted by the fold above, so knownRoot sees them).
	for root, o := range b.overlays {
		if !b.knownRoot(o.root) {
			delete(b.overlays, root)
		}
	}
	return nil
}

// Committed returns the root of the committed base state.
func (b *Bank) Committed() [32]byte { return b.baseRoot }

// Balance returns account id's committed balance.
func (b *Bank) Balance(id uint32) uint64 {
	if st, ok := b.base[id]; ok {
		return st.Balance
	}
	return b.initial(id).Balance
}

// Nonce returns account id's committed nonce.
func (b *Bank) Nonce(id uint32) uint64 {
	if st, ok := b.base[id]; ok {
		return st.Nonce
	}
	return 0
}

// Divergent returns the number of accounts whose committed state differs
// from genesis.
func (b *Bank) Divergent() int { return len(b.base) }

// TotalSupply returns the committed sum of all balances — the conservation
// invariant tests assert: initial supply minus withdrawals, regardless of
// transfer volume.
func (b *Bank) TotalSupply() uint64 {
	total := uint64(b.cfg.Accounts) * b.cfg.InitialBalance
	for id, st := range b.base {
		total -= b.initial(id).Balance
		total += st.Balance
	}
	return total
}

// snapMagic versions the snapshot wire form.
var snapMagic = []byte("banksnap/1/")

// Snapshot implements StateMachine: the committed base state, accounts
// sorted by ID for determinism.
func (b *Bank) Snapshot() []byte {
	ids := make([]uint32, 0, len(b.base))
	for id := range b.base {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]byte, 0, len(snapMagic)+16+20*len(ids))
	out = append(out, snapMagic...)
	out = types.AppendUint32(out, b.cfg.Accounts)
	out = types.AppendUint64(out, b.cfg.InitialBalance)
	out = types.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		st := b.base[id]
		out = types.AppendUint32(out, id)
		out = types.AppendUint64(out, st.Balance)
		out = types.AppendUint64(out, st.Nonce)
	}
	return out
}

// Restore implements StateMachine: replace the committed base state with the
// snapshot's. Speculative overlays are discarded.
func (b *Bank) Restore(snap []byte) error {
	rest, err := consume(snap, snapMagic)
	if err != nil {
		return err
	}
	accounts, rest, err := types.ConsumeUint32(rest)
	if err != nil {
		return err
	}
	initialBalance, rest, err := types.ConsumeUint64(rest)
	if err != nil {
		return err
	}
	if accounts != b.cfg.Accounts || initialBalance != b.cfg.InitialBalance {
		return fmt.Errorf("app: snapshot for a different bank (accounts %d/%d, balance %d/%d)",
			accounts, b.cfg.Accounts, initialBalance, b.cfg.InitialBalance)
	}
	n, rest, err := types.ConsumeUint32(rest)
	if err != nil {
		return err
	}
	base := make(map[uint32]accountState, n)
	var acc [32]byte
	prev := -1
	for i := uint32(0); i < n; i++ {
		var id uint32
		var st accountState
		if id, rest, err = types.ConsumeUint32(rest); err != nil {
			return err
		}
		if int(id) <= prev {
			return fmt.Errorf("app: snapshot accounts out of order at %d", id)
		}
		prev = int(id)
		if st.Balance, rest, err = types.ConsumeUint64(rest); err != nil {
			return err
		}
		if st.Nonce, rest, err = types.ConsumeUint64(rest); err != nil {
			return err
		}
		if st == b.initial(id) {
			return fmt.Errorf("app: snapshot carries non-divergent account %d", id)
		}
		base[id] = st
		l := leaf(id, st)
		for j := range acc {
			acc[j] ^= l[j]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("app: %d trailing snapshot bytes", len(rest))
	}
	b.base = base
	b.baseAcc = acc
	b.baseRoot = b.finalizeRoot(acc)
	b.overlays = make(map[[32]byte]*overlay)
	return nil
}

func consume(b, magic []byte) ([]byte, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("app: bad snapshot magic")
	}
	return b[len(magic):], nil
}

// BankKeys caches account public keys and signature verdicts. Safe for
// concurrent use, shareable across in-process replicas: key derivation and
// ed25519 verification are deterministic, so the cache is pure memoization
// and forgetting a verdict only costs verifying again.
type BankKeys struct {
	seed int64

	mu   sync.RWMutex
	pubs map[uint32]ed25519.PublicKey
	// Verdicts live in two generations: new ones go to young, and when young
	// holds verdictGen of them it becomes old and what old held is dropped.
	// A lookup reads both and moves nothing, so it stays under the read lock.
	young, old map[[32]byte]bool
}

// verdictGen is one generation of remembered verdicts. A verdict is asked for
// again within moments — by the other replicas sharing the cache, or when a
// block is re-executed on another fork — so two generations of 32Ki cover
// seconds of traffic at any rate this stack reaches, in about 3 MB.
const verdictGen = 1 << 15

// NewBankKeys creates a cache for the account keyspace derived from seed.
func NewBankKeys(seed int64) *BankKeys {
	return &BankKeys{
		seed:  seed,
		pubs:  make(map[uint32]ed25519.PublicKey),
		young: make(map[[32]byte]bool),
		old:   make(map[[32]byte]bool),
	}
}

// Pub returns account id's public key, deriving and caching it on first use.
func (k *BankKeys) Pub(id uint32) ed25519.PublicKey {
	k.mu.RLock()
	pub, ok := k.pubs[id]
	k.mu.RUnlock()
	if ok {
		return pub
	}
	pub = AccountKey(k.seed, id).Public().(ed25519.PublicKey)
	k.mu.Lock()
	k.pubs[id] = pub
	k.mu.Unlock()
	return pub
}

// Verify checks sig over payload against account from's key, memoizing the
// verdict so replicas sharing the cache pay each verification once.
func (k *BankKeys) Verify(from uint32, payload, sig []byte) bool {
	h := sha256.New()
	var idb [4]byte
	idb[0], idb[1], idb[2], idb[3] = byte(from>>24), byte(from>>16), byte(from>>8), byte(from)
	h.Write(idb[:])
	h.Write(payload)
	h.Write(sig)
	var key [32]byte
	h.Sum(key[:0])

	k.mu.RLock()
	verdict, ok := k.young[key]
	if !ok {
		verdict, ok = k.old[key]
	}
	k.mu.RUnlock()
	if ok {
		return verdict
	}
	verdict = ed25519.Verify(k.Pub(from), payload, sig)
	k.mu.Lock()
	if len(k.young) >= verdictGen {
		k.young, k.old = k.old, k.young
		clear(k.young)
	}
	k.young[key] = verdict
	k.mu.Unlock()
	return verdict
}
