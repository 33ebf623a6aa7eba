package tcpnet

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/types"
)

// TestBroadcastAllocsEncodeOnce pins the point of Broadcast: at n=7 one
// 1,012-transaction proposal is encoded once, and the six peer queues and an
// attached observer all hold the same frame — not seven encodings of it.
// (Run by `make bench-guard`.)
func TestBroadcastAllocsEncodeOnce(t *testing.T) {
	// No addresses: the writers idle, so frames stay queued for inspection.
	nt, err := Listen(Config{ID: 0, N: 7, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	nt.mu.Lock()
	nt.observers[9] = &observerSink{q: newOutQueue(9, nil)}
	nt.mu.Unlock()

	var payload types.Payload
	for i := 0; i < 1012; i++ {
		payload.Txns = append(payload.Txns, types.Transaction{Sender: uint32(i), Seq: uint64(i), Data: make([]byte, 64)})
	}
	g := types.Genesis()
	prop := &types.Proposal{Block: types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 0, payload, nil), Round: 1, Signature: make([]byte, 64)}

	if err := nt.Broadcast(prop); err != nil {
		t.Fatal(err)
	}
	queues := []*outQueue{nt.observers[9].q}
	for _, q := range nt.peers {
		queues = append(queues, q)
	}
	if len(queues) != 7 {
		t.Fatalf("%d recipients, want 6 peers and an observer", len(queues))
	}
	first, _ := queues[0].peek(make([][]byte, 0, 1))
	for _, q := range queues[1:] {
		got, _ := q.peek(make([][]byte, 0, 1))
		if len(got) != 1 || &got[0][0] != &first[0][0] {
			t.Fatal("recipients hold different encodings of one broadcast")
		}
	}
	if msg, err := frameMessage(first[0]); err != nil || msg.(*types.Proposal).Block.ID() != prop.Block.ID() {
		t.Fatalf("queued frame does not decode to the proposal: %v", err)
	}

	if raceEnabled {
		return
	}
	// One allocation is the frame itself; per-recipient encoding would be
	// seven frames and the growth of each. (Full queues drop their oldest
	// frame in place, which allocates nothing.)
	allocs := testing.AllocsPerRun(200, func() {
		if err := nt.Broadcast(prop); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Broadcast to 7 recipients costs %.1f allocations, want the one frame", allocs)
	}
}

// TestReadFrameAllocatesAsBytesArrive: a header may claim up to MaxFrame, but
// memory is committed only as the body actually arrives.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	claim := types.AppendUint32(nil, MaxFrame)
	stream := append(claim, make([]byte, 10)...)
	allocated := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readFrame(bufio.NewReaderSize(bytes.NewReader(stream), 16)); err != io.ErrUnexpectedEOF {
				b.Fatalf("err = %v, want a truncation", err)
			}
		}
	}).AllocedBytesPerOp()
	if allocated > 2*readChunk {
		t.Fatalf("a %d-byte claim backed by 10 bytes allocated %d", MaxFrame, allocated)
	}
	for _, n := range []uint32{MaxFrame + 1, 0xFFFFFFFF, 3, 0} {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(types.AppendUint32(nil, n)))); err == nil || err == io.EOF {
			t.Fatalf("length %d: err = %v, want a framing error", n, err)
		}
	}
}
