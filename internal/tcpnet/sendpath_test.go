package tcpnet_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/replica"
	rt "repro/internal/runtime"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// rawServer is a hand-rolled peer: it accepts one connection at a time,
// skips the handshake and reports the round of every vote it reads, so a
// test can sever the connection at will and see exactly what crossed it.
type rawServer struct {
	rounds chan types.Round

	mu   sync.Mutex
	conn net.Conn
}

func newRawServer(t *testing.T, addr string) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Buffered for every vote the test sends, so the reader never blocks.
	s := &rawServer{rounds: make(chan types.Round, 4096)}
	t.Cleanup(func() { ln.Close(); s.sever() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conn = conn
			s.mu.Unlock()
			br := bufio.NewReader(conn)
			for hello := true; ; hello = false {
				var hdr [4]byte
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					break
				}
				rest := make([]byte, binary.BigEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(br, rest); err != nil {
					break
				}
				if hello {
					continue
				}
				if msg, err := types.DecodeMessage(rest[4:]); err == nil {
					s.rounds <- msg.(*types.VoteMsg).Vote.Round
				}
			}
		}
	}()
	return s
}

// sever closes the current connection from the receiving side.
func (s *rawServer) sever() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		s.conn.Close()
	}
}

func (s *rawServer) recv(t *testing.T) types.Round {
	t.Helper()
	select {
	case r := <-s.rounds:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("frame never arrived")
		return 0
	}
}

// refusedAddr returns a loopback address nothing listens on: a port that was
// bound a moment ago and released.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// blackholeAddr returns the address of a listener that never accepts: the
// kernel completes handshakes and buffers some bytes, then writes stall.
func blackholeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestQueuedFramesSurviveBootAndReconnect pins the send path's delivery
// contract. Frames addressed to a peer whose address is not installed yet,
// or whose dial is refused, wait in its queue and go out — all of them, in
// order — once it is reachable; and across a broken connection per-peer
// FIFO order still holds (a write the kernel accepted just before the break
// may be lost, nothing is reordered or duplicated).
func TestQueuedFramesSurviveBootAndReconnect(t *testing.T) {
	addr := refusedAddr(t)
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, N: 2, Listen: "127.0.0.1:0", DialRetry: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	send := func(from, to types.Round) {
		for r := from; r <= to; r++ {
			if err := nt.Send(1, &types.VoteMsg{Vote: types.Vote{Round: r}}); err != nil {
				t.Fatalf("send %d: %v", r, err)
			}
		}
	}

	send(1, 20) // no address book yet
	nt.SetPeers(map[types.ReplicaID]string{1: addr})
	send(21, 40) // address known, dials refused
	srv := newRawServer(t, addr)
	for want := types.Round(1); want <= 40; want++ {
		if got := srv.recv(t); got != want {
			t.Fatalf("after boot: got round %d, want %d (every queued frame, in order)", got, want)
		}
	}
	if st := nt.FrameStats(); st.SendDropped != 0 {
		t.Fatalf("%d frames dropped from a queue that never filled", st.SendDropped)
	}

	// Break the connection under a steady stream of sends.
	for r := types.Round(41); r <= 240; r++ {
		if r == 100 {
			srv.sever()
		}
		send(r, r)
		time.Sleep(200 * time.Microsecond)
	}
	for last := types.Round(40); last != 240; {
		got := srv.recv(t)
		if got <= last {
			t.Fatalf("round %d arrived after round %d: reordered or duplicated across the reconnect", got, last)
		}
		last = got
	}
}

// timedTransport records how long every Send and Broadcast call takes.
type timedTransport struct {
	rt.Transport
	mu    sync.Mutex
	calls []time.Duration
}

func (t *timedTransport) timed(call func() error) error {
	start := time.Now()
	err := call()
	d := time.Since(start)
	t.mu.Lock()
	t.calls = append(t.calls, d)
	t.mu.Unlock()
	return err
}

func (t *timedTransport) Send(to types.ReplicaID, msg types.Message) error {
	return t.timed(func() error { return t.Transport.Send(to, msg) })
}

func (t *timedTransport) Broadcast(msg types.Message) error {
	return t.timed(func() error { return t.Transport.Broadcast(msg) })
}

// TestDeadPeersDoNotStallTheLoop: n=7 with two replicas dead from boot —
// replica 5 is a listener that never accepts, replica 6 a refused port (one
// dead peer of each kind needs f=2). The five live replicas keep committing,
// and because Send and Broadcast only enqueue, no call from the event loop
// waits on a dead peer's dials, timeouts or full socket buffers.
func TestDeadPeersDoNotStallTheLoop(t *testing.T) {
	const n, f, live = 7, 2, 5
	ring, err := crypto.NewKeyRing(n, 5, crypto.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*tcpnet.Net, live)
	peers := make(map[types.ReplicaID]string, n)
	for i := range nets {
		nets[i], err = tcpnet.Listen(tcpnet.Config{ID: types.ReplicaID(i), N: n, Listen: "127.0.0.1:0", DialRetry: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer nets[i].Close()
		peers[types.ReplicaID(i)] = nets[i].Addr().String()
	}
	peers[5], peers[6] = blackholeAddr(t), refusedAddr(t)
	for _, nt := range nets {
		nt.SetPeers(peers)
	}

	var mu sync.Mutex
	commits := make([]int, live)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	timed := make([]*timedTransport, live)
	for i := range nets {
		id := types.ReplicaID(i)
		rep, err := diembft.New(diembft.Config{
			Config: replica.Config{
				ID: id, N: n, F: f,
				Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
			}, RoundTimeout: 150 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		timed[i] = &timedTransport{Transport: nets[i]}
		node := rt.NewNode(rep, timed[i], rt.Options{OnCommit: func(*types.Block) {
			mu.Lock()
			commits[id]++
			mu.Unlock()
		}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = node.Run(ctx)
		}()
	}
	waitCond(t, "the live replicas to commit past two dead peers", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range commits {
			if c < 15 {
				return false
			}
		}
		return true
	})
	cancel()
	wg.Wait()

	// Enqueueing takes microseconds, so the typical call must be far under
	// 1 ms. The bound on the slowest call only has to be clearly below
	// anything a call that touched the network could wait for (a refused
	// dial's retry pause, the 2 s dial timeout, a socket that never drains):
	// on a shared CI core the scheduler alone can hold a goroutine for
	// milliseconds. That a full socket cannot block Broadcast at all is
	// pinned without a clock by TestCloseWithQueuedFramesLeaksNoGoroutine.
	var all []time.Duration
	for _, tt := range timed {
		all = append(all, tt.calls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) < 100 {
		t.Fatalf("only %d Send/Broadcast calls recorded", len(all))
	}
	if p50, max := all[len(all)/2], all[len(all)-1]; p50 >= time.Millisecond || max >= 250*time.Millisecond {
		t.Fatalf("Send/Broadcast blocked: median %v, max %v over %d calls", p50, max, len(all))
	}
}

// TestCloseWithQueuedFramesLeaksNoGoroutine: Close returns promptly with
// every kind of stuck writer in play — one blocked in Write on a socket
// nobody reads, one pausing between refused dials, one waiting for an address
// — and every queue non-empty; afterwards no goroutine is left and Send
// reports the transport closed.
func TestCloseWithQueuedFramesLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, N: 4, Listen: "127.0.0.1:0", DialRetry: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	nt.SetPeers(map[types.ReplicaID]string{1: blackholeAddr(t), 2: refusedAddr(t)})

	// ~1 MiB frames: 48 of them overflow the queues' byte bound, which also
	// fills the blackhole socket's buffers many times over.
	g := types.Genesis()
	big := &types.StateSyncResponse{Blocks: []*types.Block{types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 0,
		types.Payload{Txns: []types.Transaction{{Data: make([]byte, 1<<20)}}}, nil)}}
	for i := 0; i < 48; i++ {
		if err := nt.Broadcast(big); err != nil {
			t.Fatal(err)
		}
	}
	if st := nt.FrameStats(); st.SendDropped == 0 {
		t.Fatal("48 MiB through 32 MiB queues dropped nothing: the queues are not the bound")
	}

	closed := make(chan error, 1)
	go func() { closed <- nt.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with frames queued")
	}
	if err := nt.Send(1, big); err == nil {
		t.Fatal("Send on a closed transport succeeded")
	}
	if err := nt.Broadcast(big); err == nil {
		t.Fatal("Broadcast on a closed transport succeeded")
	}
	// Close waits for its goroutines, so the count is already back; the
	// poll only absorbs runtime-internal goroutines winding down.
	waitCond(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestOversizedFrameHeaderRejected: a header claiming 4 GiB is counted as
// malformed and the connection dropped, without the transport allocating
// anything like what was claimed.
func TestOversizedFrameHeaderRejected(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	p := dialRaw(t, nt.Addr().String(), 2)
	defer p.conn.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.write(t, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 2})
	waitStats(t, nt, func(st tcpnet.FrameStats) bool { return st.Malformed == 1 })
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := p.conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not dropped after a 4 GiB header: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("a forged 4 GiB header cost %d bytes of allocation", grew)
	}
}
