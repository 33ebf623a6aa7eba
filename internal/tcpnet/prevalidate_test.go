package tcpnet_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/tcpnet"
	"repro/internal/types"
)

// rawPeer dials the transport and speaks the wire protocol directly — raw
// bytes laid out by hand, so the tests pin the frame format as well as the
// filtering — and can inject spoofed and malformed frames.
type rawPeer struct {
	conn net.Conn
}

// rawFrame lays out one frame: uint32-BE length | uint32-BE sender | rest,
// where rest is the type tag and body.
func rawFrame(sender types.ReplicaID, rest []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(4+len(rest)))
	b = binary.BigEndian.AppendUint32(b, uint32(sender))
	return append(b, rest...)
}

// rawHello is the handshake: tag 0, then a flags byte whose bit 0 marks an
// observer.
func rawHello(sender types.ReplicaID, observer bool) []byte {
	if observer {
		return rawFrame(sender, []byte{0, 1})
	}
	return rawFrame(sender, []byte{0, 0})
}

func rawMessage(t testing.TB, sender types.ReplicaID, msg types.Message) []byte {
	t.Helper()
	body, err := types.AppendMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(sender, body)
}

func dialRaw(t *testing.T, addr string, from types.ReplicaID) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{conn: conn}
	p.write(t, rawHello(from, false))
	return p
}

func (p *rawPeer) write(t *testing.T, frame []byte) {
	t.Helper()
	if _, err := p.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// send writes msg in a frame claiming sender.
func (p *rawPeer) send(t *testing.T, sender types.ReplicaID, msg types.Message) {
	t.Helper()
	p.write(t, rawMessage(t, sender, msg))
}

// waitStats polls until the predicate holds or the deadline passes —
// reader-loop counters update asynchronously.
func waitStats(t *testing.T, n *tcpnet.Net, ok func(tcpnet.FrameStats) bool) tcpnet.FrameStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := n.FrameStats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrameStatsCounters pins the dropped-frame accounting: spoofed frames
// (sender differs from the handshake identity) and malformed frames (a body
// that is no message) are counted instead of vanishing silently, and genuine
// frames still flow.
func TestFrameStatsCounters(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	p := dialRaw(t, nt.Addr().String(), 2)
	defer p.conn.Close()
	p.send(t, 3, &types.VoteMsg{Vote: types.Vote{Round: 1}}) // spoofed
	p.write(t, rawFrame(2, []byte{0xEE, 1, 2}))              // malformed: no such tag
	p.send(t, 3, &types.VoteMsg{Vote: types.Vote{Round: 2}}) // spoofed again
	p.send(t, 2, &types.VoteMsg{Vote: types.Vote{Round: 3}}) // genuine

	select {
	case in := <-nt.Recv():
		if in.From != 2 || in.Verified {
			t.Fatalf("unexpected inbound %+v (no Prevalidate hook, Verified must be false)", in)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("genuine frame never arrived")
	}
	st := waitStats(t, nt, func(st tcpnet.FrameStats) bool {
		return st.Spoofed == 2 && st.Malformed == 1
	})
	if st.Prevalidated != 0 {
		t.Fatalf("prevalidated drops %d without a hook", st.Prevalidated)
	}
}

// TestRetiredTagCountedMalformed: tags 6 and 7 left the wire, so a peer that
// still sends them (a node at an older commit) is sending undecodable frames:
// each is counted malformed and the connection keeps serving what follows.
func TestRetiredTagCountedMalformed(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	p := dialRaw(t, nt.Addr().String(), 2)
	defer p.conn.Close()
	// The retired request body: block ID, have, sender. The retired response
	// body: sender, block count.
	oldRequest := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(append([]byte{6}, make([]byte, 32)...), 1), 2)
	oldResponse := []byte{7, 0, 0, 0, 2, 0, 0, 0, 0}
	p.write(t, rawFrame(2, oldRequest))
	p.write(t, rawFrame(2, oldResponse))
	p.send(t, 2, &types.StateSyncRequest{Have: 1, Sender: 2})

	select {
	case in := <-nt.Recv():
		if _, ok := in.Msg.(*types.StateSyncRequest); !ok || in.From != 2 {
			t.Fatalf("unexpected inbound %+v", in)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the frame after the retired tags never arrived: the connection was dropped")
	}
	if st := nt.FrameStats(); st.Malformed != 2 {
		t.Fatalf("retired-tag frames counted malformed %d times, want 2 (%+v)", st.Malformed, st)
	}
}

// TestSelfHandshakeRejected pins the transport-level identity rule: a peer
// handshaking as the node's own ID is spoofing by definition (engines treat
// from == self as trusted loopback) and must produce no inbound messages.
func TestSelfHandshakeRejected(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	p := dialRaw(t, nt.Addr().String(), 0) // claims to be the node itself
	defer p.conn.Close()
	p.send(t, 0, &types.VoteMsg{Vote: types.Vote{Round: 1}})

	waitStats(t, nt, func(st tcpnet.FrameStats) bool { return st.Spoofed == 1 })
	select {
	case in := <-nt.Recv():
		t.Fatalf("self-handshake connection delivered %+v", in)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestPrevalidateHookOnReadLoop pins the reader-goroutine prevalidation:
// frames failing the hook are dropped and counted, frames passing it surface
// with Verified set.
func TestPrevalidateHookOnReadLoop(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{
		ID:     0,
		Listen: "127.0.0.1:0",
		Prevalidate: func(from types.ReplicaID, msg types.Message) error {
			if vm, ok := msg.(*types.VoteMsg); ok && vm.Vote.Round%2 == 1 {
				return fmt.Errorf("odd round %d", vm.Vote.Round)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	p := dialRaw(t, nt.Addr().String(), 1)
	defer p.conn.Close()
	for round := types.Round(1); round <= 6; round++ {
		p.send(t, 1, &types.VoteMsg{Vote: types.Vote{Round: round}})
	}

	var got []types.Round
	for len(got) < 3 {
		select {
		case in := <-nt.Recv():
			if !in.Verified {
				t.Fatalf("hook-passed frame not marked verified: %+v", in)
			}
			got = append(got, in.Msg.(*types.VoteMsg).Vote.Round)
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d frames arrived", len(got))
		}
	}
	for i, r := range got {
		if r != types.Round(2*(i+1)) {
			t.Fatalf("frame %d has round %d, want %d (per-sender FIFO through the hook)", i, r, 2*(i+1))
		}
	}
	st := waitStats(t, nt, func(st tcpnet.FrameStats) bool { return st.Prevalidated == 3 })
	if st.Spoofed != 0 || st.Malformed != 0 {
		t.Fatalf("unexpected spoof/malform counts: %+v", st)
	}
}
