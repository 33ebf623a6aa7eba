package harness_test

import (
	"errors"
	"testing"

	"repro/internal/types"
)

func mkBlock(parent types.BlockID, h types.Height, txns ...types.Transaction) *types.Block {
	return types.NewBlock(parent, types.NewGenesisQC(parent), types.Round(h), h, 0, int64(h),
		types.Payload{Txns: txns}, nil)
}

func TestLedgerCommitOrderAndApply(t *testing.T) {
	kv := NewKVStore()
	l := newLedger(kv)
	g := types.Genesis()

	b1 := mkBlock(g.ID(), 1, types.Transaction{Sender: 1, Seq: 1, Data: []byte("a=1")})
	b2 := mkBlock(b1.ID(), 2, types.Transaction{Sender: 1, Seq: 2, Data: []byte("a=2")},
		types.Transaction{Sender: 2, Seq: 1, Data: []byte("b=9")})

	if err := l.Commit(b1); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(b2); err != nil {
		t.Fatal(err)
	}
	if l.Height() != 2 || l.Applied() != 3 {
		t.Fatalf("height=%d applied=%d", l.Height(), l.Applied())
	}
	if v, _ := kv.Get("a"); v != "2" {
		t.Fatalf("a=%q, want 2 (later write wins)", v)
	}
	if v, _ := kv.Get("b"); v != "9" {
		t.Fatalf("b=%q", v)
	}
	if kv.Len() != 2 || kv.Ops() != 3 {
		t.Fatalf("kv len=%d ops=%d", kv.Len(), kv.Ops())
	}
}

func TestLedgerCommitGapRejected(t *testing.T) {
	l := newLedger(nil)
	g := types.Genesis()
	b1 := mkBlock(g.ID(), 1)
	b3 := mkBlock(b1.ID(), 3)
	if err := l.Commit(b3); !errors.Is(err, ErrGap) {
		t.Fatalf("want ErrGap, got %v", err)
	}
}

func TestLedgerDuplicateCommit(t *testing.T) {
	l := newLedger(nil)
	g := types.Genesis()
	b1 := mkBlock(g.ID(), 1)
	if err := l.Commit(b1); err != nil {
		t.Fatal(err)
	}
	// Same block again: no-op.
	if err := l.Commit(b1); err != nil {
		t.Fatal(err)
	}
	// A DIFFERENT block at the same height: safety violation surfaced.
	other := mkBlock(g.ID(), 1, types.Transaction{Sender: 9})
	if err := l.Commit(other); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
}

func TestLedgerStrengthTracking(t *testing.T) {
	l := newLedger(nil)
	g := types.Genesis()
	b1 := mkBlock(g.ID(), 1)
	b2 := mkBlock(b1.ID(), 2)
	_ = l.Commit(b1)
	_ = l.Commit(b2)

	l.Strengthen(b1.ID(), 3)
	l.Strengthen(b1.ID(), 2) // regression ignored
	l.Strengthen(b2.ID(), 1)
	if l.StrengthAt(1) != 3 || l.StrengthAt(2) != 1 {
		t.Fatalf("strengths: %d, %d", l.StrengthAt(1), l.StrengthAt(2))
	}
	if got := l.MinStrengthOver(1, 2); got != 1 {
		t.Fatalf("min over prefix = %d", got)
	}
	if l.StrengthAt(9) != -1 {
		t.Fatal("unknown height has strength")
	}
	// Strengthen for a block not in the ledger: ignored, no panic.
	l.Strengthen(types.BlockID{9}, 5)
}

func TestLedgerCheckPrefixConsistency(t *testing.T) {
	g := types.Genesis()
	b1 := mkBlock(g.ID(), 1)
	b2 := mkBlock(b1.ID(), 2)
	forged := mkBlock(b1.ID(), 2, types.Transaction{Sender: 66})

	mk := func(blocks ...*types.Block) *Ledger {
		l := newLedger(nil)
		for _, b := range blocks {
			if err := l.Commit(b); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	// Agreeing prefixes of different lengths: fine.
	if err := CheckPrefixConsistency([]*Ledger{mk(b1, b2), mk(b1)}); err != nil {
		t.Fatalf("consistent ledgers flagged: %v", err)
	}
	// Divergence at height 2: flagged.
	if err := CheckPrefixConsistency([]*Ledger{mk(b1, b2), mk(b1, forged)}); err == nil {
		t.Fatal("divergence not detected")
	}
	if err := CheckPrefixConsistency(nil); err != nil {
		t.Fatal("empty set must pass")
	}
}

func TestLedgerCheckPrefixConsistencyAppHash(t *testing.T) {
	g := types.Genesis()
	b1 := mkBlock(g.ID(), 1)

	mk := func(root [32]byte) *Ledger {
		l := newLedger(nil)
		if err := l.Commit(b1); err != nil {
			t.Fatal(err)
		}
		l.SetAppHash(b1.ID(), root)
		return l
	}
	rootA := [32]byte{1}
	rootB := [32]byte{2}

	// Same block, same executed root: fine.
	if err := CheckPrefixConsistency([]*Ledger{mk(rootA), mk(rootA)}); err != nil {
		t.Fatalf("agreeing roots flagged: %v", err)
	}
	// Same block, divergent roots: a state fork the block-ID check cannot see.
	err := CheckPrefixConsistency([]*Ledger{mk(rootA), mk(rootB)})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict for divergent roots, got %v", err)
	}
	// One side without an execution layer (zero root): tolerated.
	if err := CheckPrefixConsistency([]*Ledger{mk(rootA), mk([32]byte{})}); err != nil {
		t.Fatalf("zero-root side flagged: %v", err)
	}
	// SetAppHash for an unknown block: ignored, no panic.
	mk(rootA).SetAppHash(types.BlockID{9}, rootB)
}
