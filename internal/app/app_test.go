package app

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/types"
)

// testBank returns a small bank plus a signing helper bound to its seed.
func testBank(t *testing.T, accounts uint32) *Bank {
	t.Helper()
	return NewBank(BankConfig{Seed: 7, Accounts: accounts, InitialBalance: 1000})
}

// signedTx builds a signed bank transaction for the test seed.
func signedTx(op byte, from, to uint32, amount, nonce uint64) types.Transaction {
	tx := BankTx{Op: op, From: from, To: to, Amount: amount, Nonce: nonce}
	SignBankTx(7, &tx)
	return tx.AsTransaction()
}

// blockWith wraps transactions into a block at the given height/parent.
func blockWith(parent types.BlockID, h types.Height, txns ...types.Transaction) *types.Block {
	return &types.Block{
		Parent:  parent,
		Round:   types.Round(h),
		Height:  h,
		Payload: types.Payload{Txns: txns},
	}
}

func TestBankApplyTransfers(t *testing.T) {
	b := testBank(t, 16)
	root, results, err := b.Apply(b.GenesisRoot(), blockWith(types.Genesis().ID(), 1,
		signedTx(OpTransfer, 0, 1, 300, 1),
		signedTx(OpTransfer, 0, 1, 800, 2), // only 700 left
		signedTx(OpWithdraw, 1, 0, 100, 1),
		signedTx(OpTransfer, 2, 2, 50, 1), // self-transfer: burns nothing, advances nonce
	))
	if err != nil {
		t.Fatal(err)
	}
	want := []Code{CodeOK, CodeInsufficient, CodeOK, CodeOK}
	for i, r := range results {
		if r.Code != want[i] {
			t.Fatalf("txn %d: code %v, want %v", i, r.Code, want[i])
		}
	}
	if err := b.Commit(root); err != nil {
		t.Fatal(err)
	}
	if got := b.Balance(0); got != 700 {
		t.Fatalf("account 0 balance %d, want 700", got)
	}
	if got := b.Balance(1); got != 1200 {
		t.Fatalf("account 1 balance %d, want 1200", got)
	}
	if got := b.Balance(2); got != 1000 {
		t.Fatalf("account 2 balance %d, want 1000 (self-transfer)", got)
	}
	if got := b.TotalSupply(); got != 16*1000-100 {
		t.Fatalf("supply %d, want %d (one 100 withdrawal)", got, 16*1000-100)
	}
}

func TestBankRejectsBadSignatureAndNonce(t *testing.T) {
	b := testBank(t, 4)
	bad := BankTx{Op: OpTransfer, From: 0, To: 1, Amount: 10, Nonce: 1}
	SignBankTx(99, &bad) // wrong seed => wrong key
	skipAhead := signedTx(OpTransfer, 1, 2, 10, 5)
	garbage := types.Transaction{Sender: 3, Seq: 1, Data: []byte("not a bank tx")}
	root, results, err := b.Apply(b.GenesisRoot(), blockWith(types.Genesis().ID(), 1,
		bad.AsTransaction(), skipAhead, garbage))
	if err != nil {
		t.Fatal(err)
	}
	want := []Code{CodeBadSignature, CodeBadNonce, CodeMalformed}
	for i, r := range results {
		if r.Code != want[i] {
			t.Fatalf("txn %d: code %v, want %v", i, r.Code, want[i])
		}
	}
	if root != b.GenesisRoot() {
		t.Fatal("all-rejected block must leave the root unchanged")
	}
}

// TestBankDeterminism drives two independent banks through the same chain and
// demands bit-identical roots at every block.
func TestBankDeterminism(t *testing.T) {
	b1, b2 := testBank(t, 64), testBank(t, 64)
	parent1, parent2 := b1.GenesisRoot(), b2.GenesisRoot()
	parentID := types.Genesis().ID()
	nonce := make(map[uint32]uint64)
	for h := types.Height(1); h <= 20; h++ {
		var txns []types.Transaction
		for i := 0; i < 8; i++ {
			from := uint32((int(h)*3 + i) % 64)
			nonce[from]++
			txns = append(txns, signedTx(OpTransfer, from, (from+7)%64, uint64(1+i), nonce[from]))
		}
		blk := blockWith(parentID, h, txns...)
		r1, res1, err1 := b1.Apply(parent1, blk)
		r2, res2, err2 := b2.Apply(parent2, blk)
		if err1 != nil || err2 != nil {
			t.Fatalf("h%d: %v / %v", h, err1, err2)
		}
		if r1 != r2 {
			t.Fatalf("h%d: roots diverge", h)
		}
		for i := range res1 {
			if res1[i] != res2[i] {
				t.Fatalf("h%d txn %d: results diverge", h, i)
			}
		}
		parent1, parent2, parentID = r1, r2, blk.ID()
	}
	if err := b1.Commit(parent1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Commit(parent2); err != nil {
		t.Fatal(err)
	}
	if b1.Committed() != b2.Committed() {
		t.Fatal("committed roots diverge")
	}
}

// TestBankForkOverlays executes two competing blocks off one parent and
// verifies committing one discards the other without contaminating state.
func TestBankForkOverlays(t *testing.T) {
	b := testBank(t, 8)
	g := b.GenesisRoot()
	blkA := blockWith(types.Genesis().ID(), 1, signedTx(OpTransfer, 0, 1, 100, 1))
	blkB := blockWith(types.Genesis().ID(), 1, signedTx(OpTransfer, 0, 2, 250, 1))
	rootA, _, err := b.Apply(g, blkA)
	if err != nil {
		t.Fatal(err)
	}
	rootB, _, err := b.Apply(g, blkB)
	if err != nil {
		t.Fatal(err)
	}
	if rootA == rootB {
		t.Fatal("distinct forks must produce distinct roots")
	}
	// Extend fork B, then commit it.
	blkB2 := blockWith(blkB.ID(), 2, signedTx(OpWithdraw, 2, 0, 50, 1))
	rootB2, _, err := b.Apply(rootB, blkB2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(rootB2); err != nil {
		t.Fatal(err)
	}
	if got := b.Balance(0); got != 750 {
		t.Fatalf("account 0 balance %d, want 750 (fork A must not leak)", got)
	}
	if got := b.Balance(2); got != 1200 {
		t.Fatalf("account 2 balance %d, want 1200", got)
	}
	// Fork A is dead: applying on top of it must now fail.
	if _, _, err := b.Apply(rootA, blockWith(blkA.ID(), 2)); err == nil {
		t.Fatal("apply on a swept fork must fail")
	}
}

func TestBankSnapshotRestore(t *testing.T) {
	b := testBank(t, 32)
	root, _, err := b.Apply(b.GenesisRoot(), blockWith(types.Genesis().ID(), 1,
		signedTx(OpTransfer, 3, 9, 123, 1),
		signedTx(OpWithdraw, 9, 0, 7, 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(root); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	fresh := testBank(t, 32)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Committed() != b.Committed() {
		t.Fatal("restored root differs from snapshotted root")
	}
	if fresh.Balance(3) != b.Balance(3) || fresh.Nonce(9) != b.Nonce(9) {
		t.Fatal("restored account state differs")
	}
	if !bytes.Equal(fresh.Snapshot(), snap) {
		t.Fatal("snapshot of restored bank differs (not canonical)")
	}
	// Restore into a differently-parameterized bank must fail loudly.
	other := NewBank(BankConfig{Seed: 7, Accounts: 32, InitialBalance: 5})
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore across configs must fail")
	}
}

// TestExecutorChain drives the Executor across a three-block chain and checks
// memoization, parent resolution, and commit-driven base advancement.
func TestExecutorChain(t *testing.T) {
	ex := NewExecutor(testBank(t, 8))
	parentID := types.Genesis().ID()
	var blocks []*types.Block
	for h := types.Height(1); h <= 3; h++ {
		blk := blockWith(parentID, h, signedTx(OpTransfer, 0, 1, 1, uint64(h)))
		blocks = append(blocks, blk)
		parentID = blk.ID()
	}
	r1, err := ex.Execute(blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if again, err := ex.Execute(blocks[0]); err != nil || again != r1 {
		t.Fatalf("re-execute not memoized: %v %x!=%x", err, again[:4], r1[:4])
	}
	// Orphan: block 3 before block 2 has no parent root.
	if _, err := ex.Execute(blocks[2]); err == nil {
		t.Fatal("executing an orphan must fail")
	}
	if _, err := ex.Execute(blocks[1]); err != nil {
		t.Fatal(err)
	}
	if err := ex.OnCommit(blocks[2]); err != nil {
		t.Fatal(err)
	}
	if ex.CommittedHeight() != 3 {
		t.Fatalf("committed height %d, want 3", ex.CommittedHeight())
	}
	r3, ok := ex.Root(blocks[2].ID())
	if !ok || ex.CommittedRoot() != r3 {
		t.Fatal("committed root must match block 3's executed root")
	}
	if res := ex.Results(blocks[1].ID()); len(res) != 1 || res[0].Code != CodeOK {
		t.Fatalf("results for block 2: %v", res)
	}
	if ex.Executed() != 3 {
		t.Fatalf("executed %d blocks, want 3", ex.Executed())
	}
}

// TestExecutorCheckpoint: an executor resumed from a Checkpoint holds the
// committed point and the roots at or below it, drops the speculative roots
// above it, and executes the next blocks to the roots the original reaches;
// a damaged checkpoint is refused.
func TestExecutorCheckpoint(t *testing.T) {
	ex := NewExecutor(testBank(t, 8))
	parentID := types.Genesis().ID()
	var blocks []*types.Block
	for h := types.Height(1); h <= 4; h++ {
		blk := blockWith(parentID, h, signedTx(OpTransfer, 0, 1, 1, uint64(h)))
		blocks = append(blocks, blk)
		parentID = blk.ID()
		if _, err := ex.Execute(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.OnCommit(blocks[1]); err != nil {
		t.Fatal(err)
	}
	cp := ex.Checkpoint()
	resumed := NewExecutor(testBank(t, 8))
	if err := resumed.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if resumed.CommittedRoot() != ex.CommittedRoot() || resumed.CommittedHeight() != 2 {
		t.Fatalf("resumed at h%d, want the committed h2 and its root", resumed.CommittedHeight())
	}
	for i, blk := range blocks {
		want, _ := ex.Root(blk.ID())
		got, ok := resumed.Root(blk.ID())
		if i < 2 && (!ok || got != want) {
			t.Fatalf("root of committed block %d not kept", i+1)
		}
		if i >= 2 && ok {
			t.Fatalf("speculative root of block %d kept; its block must re-execute", i+1)
		}
	}
	for _, blk := range blocks[2:] {
		want, _ := ex.Root(blk.ID())
		if got, err := resumed.Execute(blk); err != nil || got != want {
			t.Fatalf("re-executed block h%d to %x (%v), want %x", blk.Height, got[:4], err, want[:4])
		}
	}
	if err := resumed.OnCommit(blocks[3]); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{cp[:len(cp)-1], append(slices.Clone(cp), 0), cp[1:]} {
		if err := NewExecutor(testBank(t, 8)).RestoreCheckpoint(bad); err == nil {
			t.Fatalf("restored a damaged checkpoint of %d bytes", len(bad))
		}
	}
}

// TestBankApplyAllocs guards the execute-before-vote hot path: applying a
// block of valid pre-verified transfers must stay allocation-lean, since it
// sits between proposal reception and voting on every replica.
func TestBankApplyAllocs(t *testing.T) {
	b := NewBank(BankConfig{Seed: 7, Accounts: 1 << 16, InitialBalance: 1 << 20, DisableSigVerify: true})
	var txns []types.Transaction
	for i := uint32(0); i < 64; i++ {
		txns = append(txns, signedTx(OpTransfer, i, i+64, 5, 1))
	}
	blk := blockWith(types.Genesis().ID(), 1, txns...)
	parent := b.GenesisRoot()
	avg := testing.AllocsPerRun(50, func() {
		blk.Payload.Txns[0].Seq++ // perturb so each run produces a distinct block ID
		blk = blockWith(blk.Parent, blk.Height, blk.Payload.Txns...)
		if _, _, err := b.Apply(parent, blk); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the delta map, the results slice, the per-account map inserts,
	// and the overlay record. ~6 allocs per txn would indicate a regression
	// (e.g. payload re-encoding or per-txn hashing buffers escaping).
	if perTxn := avg / float64(len(txns)); perTxn > 6 {
		t.Fatalf("%.1f allocs per applied txn (avg %.0f per block), want <= 6", perTxn, avg)
	}
}

// TestBankKeysVerdictsBounded: the verdict memo holds at most two
// generations however many distinct signatures pass through it, and a verdict
// it has dropped is computed again, the same: a genuine signature still
// verifies and a forged one still does not.
func TestBankKeysVerdictsBounded(t *testing.T) {
	keys := NewBankKeys(7)
	tx := BankTx{Op: OpTransfer, From: 3, To: 4, Amount: 1, Nonce: 1}
	SignBankTx(7, &tx)
	payload := tx.AppendSigningPayload(nil)
	forged := tx.Sig
	forged[0] ^= 1
	check := func(when string) {
		t.Helper()
		if !keys.Verify(tx.From, payload, tx.Sig[:]) {
			t.Fatalf("%s: genuine signature rejected", when)
		}
		if keys.Verify(tx.From, payload, forged[:]) {
			t.Fatalf("%s: forged signature accepted", when)
		}
	}
	check("first sight")
	// Distinct signatures with the top bits of S set: ed25519 refuses them
	// before any curve arithmetic, so the flood costs a hash and a map insert
	// each.
	var junk [64]byte
	junk[63] = 0xff
	for i := 0; i < 3*verdictGen; i++ {
		junk[0], junk[1], junk[2] = byte(i), byte(i>>8), byte(i>>16)
		if keys.Verify(tx.From, payload, junk[:]) {
			t.Fatal("junk signature accepted")
		}
	}
	keys.mu.RLock()
	held := len(keys.young) + len(keys.old)
	keys.mu.RUnlock()
	if held > 2*verdictGen || held < verdictGen {
		t.Fatalf("%d verdicts held after %d distinct signatures, want %d..%d", held, 3*verdictGen+2, verdictGen, 2*verdictGen)
	}
	check("after eviction")
}

// BenchmarkExecutorCheckpoint is one checkpoint of a bank whose 4,096
// accounts all diverge from genesis, with 512 executed roots at or below the
// committed height: 256 committed heights, each with a sibling the chain did
// not take. Checkpoint sorts and serializes every divergent account and every
// kept root.
func BenchmarkExecutorCheckpoint(b *testing.B) {
	const accounts, heights = 4096, 256
	ex := NewExecutor(NewBank(BankConfig{Seed: 7, Accounts: accounts, InitialBalance: 1000, DisableSigVerify: true}))
	parent := types.Genesis().ID()
	var tip *types.Block
	for h := types.Height(1); h <= heights; h++ {
		var txns []types.Transaction
		for i := uint32(0); i < accounts/heights; i++ {
			from := uint32(h-1)*(accounts/heights) + i
			tx := BankTx{Op: OpTransfer, From: from, To: (from + 1) % accounts, Amount: 1, Nonce: 1}
			txns = append(txns, tx.AsTransaction())
		}
		tip = blockWith(parent, h, txns...)
		sibling := blockWith(parent, h)
		sibling.Round++ // another block at the height, executed and not taken
		for _, blk := range []*types.Block{tip, sibling} {
			if _, err := ex.Execute(blk); err != nil {
				b.Fatal(err)
			}
		}
		parent = tip.ID()
	}
	if err := ex.OnCommit(tip); err != nil {
		b.Fatal(err)
	}
	if got := ex.StateMachine().(*Bank).Divergent(); got != accounts {
		b.Fatalf("%d accounts diverge, want %d", got, accounts)
	}
	if got := len(ex.roots); got != 2*heights+1 { // and genesis
		b.Fatalf("%d roots kept, want %d", got, 2*heights+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Checkpoint()
	}
}
