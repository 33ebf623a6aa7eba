package gateway_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/gateway"
	"repro/internal/types"
)

// pipeListener turns net.Pipe into a net.Listener so tests get fully
// synchronous conns: a write blocks until the peer reads, which makes
// back-pressure (and therefore eviction) deterministic instead of hiding
// behind kernel socket buffers.
type pipeListener struct {
	ch     chan net.Conn
	closed chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial hands the server end to the gateway and returns the client end.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.ch <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("gateway did not accept")
	}
	return client
}

type gwFixture struct {
	t    *testing.T
	ring *crypto.KeyRing
	gw   *gateway.Gateway
	ln   *pipeListener
	seq  int
}

func newGwFixture(t *testing.T, queueBound int) *gwFixture {
	t.Helper()
	ring, err := crypto.NewKeyRing(4, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(gateway.Config{Verifier: ring, QueueBound: queueBound})
	ln := newPipeListener()
	go gw.Serve(ln)
	t.Cleanup(func() { gw.Close() })
	return &gwFixture{t: t, ring: ring, gw: gw, ln: ln}
}

// certifiedPair builds a carrier block whose CommitLog claims the given
// rises, plus a genuine 2f+1 certificate over it.
func (f *gwFixture) certifiedPair(log []types.StrengthRecord) (*types.Block, *types.QC) {
	f.t.Helper()
	f.seq++
	genesis := types.Genesis()
	b := types.NewBlock(genesis.ID(), types.NewGenesisQC(genesis.ID()),
		types.Round(f.seq), types.Height(f.seq), 0, 0, types.Payload{}, log)
	votes := make([]types.Vote, 3)
	for i := range votes {
		v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: types.ReplicaID(i)}
		v.Signature = f.ring.Signer(v.Voter).Sign(v.SigningPayload())
		votes[i] = v
	}
	return b, &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
}

// rise names a distinct subject block per index so each ingest is a fresh
// monotone rise.
func rise(i, x int) types.StrengthRecord {
	var id types.BlockID
	id[0], id[1] = byte(i), byte(i>>8)
	id[31] = 0xAB
	return types.StrengthRecord{Block: id, Height: types.Height(i), Round: types.Round(i), X: x}
}

// subscribe dials, sends the handshake, and waits until the gateway has
// registered the subscription.
func (f *gwFixture) subscribe(minLevel, want int) net.Conn {
	f.t.Helper()
	conn := f.ln.dial(f.t)
	go func() {
		_ = gateway.WriteFrame(conn, gateway.AppendSubscribeFrame(nil, minLevel))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.gw.Subscribers() < want {
		if time.Now().After(deadline) {
			f.t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return conn
}

// collect reads frames off conn until it has n events or the conn dies.
func collect(t *testing.T, conn net.Conn, n int, out chan<- []gateway.Event) {
	t.Helper()
	var evs []gateway.Event
	for len(evs) < n {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := gateway.ReadFrame(conn)
		if err != nil {
			break
		}
		ev, err := gateway.DecodeEventFrame(payload)
		if err != nil {
			t.Errorf("bad event frame: %v", err)
			break
		}
		evs = append(evs, ev)
	}
	out <- evs
}

// TestIngestRejectsForgedProof: pairs whose certificate does not genuinely
// certify the carrier are rejected and fan nothing out.
func TestIngestRejectsForgedProof(t *testing.T) {
	f := newGwFixture(t, 0)
	b, qc := f.certifiedPair([]types.StrengthRecord{rise(1, 1)})

	// QC for a different block.
	other, otherQC := f.certifiedPair([]types.StrengthRecord{rise(2, 1)})
	if err := f.gw.Ingest(b, otherQC); err == nil {
		t.Fatal("mismatched certificate accepted")
	}
	// Sub-quorum certificate.
	sub := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: qc.Votes[:2]}
	if err := f.gw.Ingest(b, sub); err == nil {
		t.Fatal("sub-quorum certificate accepted")
	}
	// Tampered vote signature.
	bad := &types.QC{Block: qc.Block, Round: qc.Round, Height: qc.Height, Votes: append([]types.Vote(nil), qc.Votes...)}
	bad.Votes[1].Signature = []byte("forged")
	if err := f.gw.Ingest(b, bad); err == nil {
		t.Fatal("forged vote signature accepted")
	}
	if f.gw.Proven() != 0 {
		t.Fatalf("forged pairs proved %d levels", f.gw.Proven())
	}
	_ = other
	if err := f.gw.Ingest(b, qc); err != nil {
		t.Fatalf("genuine pair rejected: %v", err)
	}
	if err := f.gw.Ingest(other, otherQC); err != nil {
		t.Fatalf("genuine pair rejected: %v", err)
	}
	if f.gw.Proven() != 2 {
		t.Fatalf("proved %d levels, want 2", f.gw.Proven())
	}
}

// TestFanOutOrderAndMinLevel: a subscriber receives every rise at or above
// its minimum level, in ingest order, each carrying a verifiable proof.
func TestFanOutOrderAndMinLevel(t *testing.T) {
	f := newGwFixture(t, 0)
	all := f.subscribe(0, 1)
	strongOnly := f.subscribe(2, 2)

	const events = 6
	allCh := make(chan []gateway.Event, 1)
	strongCh := make(chan []gateway.Event, 1)
	go collect(t, all, events, allCh)
	go collect(t, strongOnly, events/2, strongCh)

	for i := 0; i < events; i++ {
		x := 1
		if i%2 == 1 {
			x = 2
		}
		b, qc := f.certifiedPair([]types.StrengthRecord{rise(i, x)})
		if err := f.gw.Ingest(b, qc); err != nil {
			t.Fatal(err)
		}
	}

	got := <-allCh
	if len(got) != events {
		t.Fatalf("full subscriber got %d events, want %d", len(got), events)
	}
	for i, ev := range got {
		if ev.Record.Height != types.Height(i) {
			t.Fatalf("event %d out of order: height %d", i, ev.Record.Height)
		}
		// The attached proof must hold up under independent verification.
		if ev.QC.Block != ev.Carrier.ID() {
			t.Fatalf("event %d proof does not certify its carrier", i)
		}
		if err := crypto.VerifyQC(f.ring, ev.QC, 3); err != nil {
			t.Fatalf("event %d carried unverifiable proof: %v", i, err)
		}
	}
	strong := <-strongCh
	if len(strong) != events/2 {
		t.Fatalf("min-level subscriber got %d events, want %d", len(strong), events/2)
	}
	for _, ev := range strong {
		if ev.Record.X < 2 {
			t.Fatalf("min-level subscriber received level-%d rise", ev.Record.X)
		}
	}
}

// TestSlowSubscriberEvicted: a subscriber that stops reading is evicted once
// its bounded queue overflows, while a fast subscriber still receives every
// rise in order. The feed never blocks on the straggler.
func TestSlowSubscriberEvicted(t *testing.T) {
	const bound = 4
	f := newGwFixture(t, bound)

	fast := f.subscribe(0, 1)
	slow := f.subscribe(0, 2) // subscribes, then never reads
	_ = slow

	// Stream the fast subscriber's events as they arrive so ingest can be
	// paced on its receipt: its queue is provably empty before each new
	// rise, while the stalled one accumulates one frame parked in its
	// blocked writer plus `bound` queued — everything past that must evict.
	const events = bound + 4
	fastCh := make(chan gateway.Event, events)
	go func() {
		for {
			_ = fast.SetReadDeadline(time.Now().Add(5 * time.Second))
			payload, err := gateway.ReadFrame(fast)
			if err != nil {
				close(fastCh)
				return
			}
			ev, err := gateway.DecodeEventFrame(payload)
			if err != nil {
				t.Errorf("bad event frame: %v", err)
				close(fastCh)
				return
			}
			fastCh <- ev
		}
	}()

	for i := 0; i < events; i++ {
		b, qc := f.certifiedPair([]types.StrengthRecord{rise(i, 1)})
		if err := f.gw.Ingest(b, qc); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		select {
		case ev, ok := <-fastCh:
			if !ok {
				t.Fatal("fast subscriber dropped")
			}
			if ev.Record.Height != types.Height(i) {
				t.Fatalf("fast subscriber event %d out of order: height %d", i, ev.Record.Height)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("fast subscriber starved at event %d by a stalled peer", i)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for f.gw.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber not evicted: %d live", f.gw.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedConnUnsubscribes: a client hanging up is deregistered.
func TestClosedConnUnsubscribes(t *testing.T) {
	f := newGwFixture(t, 0)
	conn := f.subscribe(0, 1)
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for f.gw.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("closed subscriber still registered")
		}
		time.Sleep(time.Millisecond)
	}
}
