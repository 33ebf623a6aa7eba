package workload_test

import (
	"testing"

	"repro/internal/workload"
)

func TestGeneratorSequencesPerClient(t *testing.T) {
	g := workload.NewGenerator(1, 4, 16)
	seen := make(map[uint32]uint64)
	for i := 0; i < 200; i++ {
		txn := g.Next()
		if txn.Sender >= 4 {
			t.Fatalf("sender %d out of range", txn.Sender)
		}
		if txn.Seq != seen[txn.Sender]+1 {
			t.Fatalf("client %d: seq %d after %d", txn.Sender, txn.Seq, seen[txn.Sender])
		}
		seen[txn.Sender] = txn.Seq
		if len(txn.Data) != 16 {
			t.Fatalf("txn size %d", len(txn.Data))
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := workload.NewGenerator(9, 4, 8).Batch(10)
	b := workload.NewGenerator(9, 4, 8).Batch(10)
	for i := range a {
		if a[i].Sender != b[i].Sender || a[i].Seq != b[i].Seq || string(a[i].Data) != string(b[i].Data) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestPaperPayloadShape(t *testing.T) {
	src := workload.PaperPayload(1, workload.PaperTxnsPerBlock, workload.PaperBlockBytes)
	p1 := src(1, 0)
	p2 := src(2, 0)
	// Modeled size must match the paper's ~450KB block.
	if p1.Size() < workload.PaperBlockBytes || p1.Size() > workload.PaperBlockBytes+64 {
		t.Fatalf("payload size %d, want ~%d", p1.Size(), workload.PaperBlockBytes)
	}
	// Sampled transactions make consecutive payloads distinct (unique
	// block IDs per round).
	if p1.Txns[0].Data == nil || string(p1.Txns[0].Data) == string(p2.Txns[0].Data) {
		t.Fatal("payloads not distinct across rounds")
	}
}

func TestFullPayload(t *testing.T) {
	g := workload.NewGenerator(1, 2, 8)
	src := workload.FullPayload(g, 25)
	p := src(1, 0)
	if len(p.Txns) != 25 || p.Padding != 0 {
		t.Fatalf("full payload: %d txns, padding %d", len(p.Txns), p.Padding)
	}
}
