// Package tcpnet is the TCP transport for real (non-simulated) clusters.
// Messages travel as length-delimited frames of the pinned encodings in
// internal/types (frame.go; the layout table is in the repository's doc.go)
// over persistent connections opened by a handshake naming the sender.
//
// The engine emits, the network owns delivery: Send and Broadcast encode the
// message once and enqueue the immutable frame on each recipient's bounded
// queue (queue.go). One writer goroutine per recipient dials lazily,
// reconnects with backoff and coalesces queued frames into one write; one
// reader goroutine per accepted connection decodes, filters and — with a
// Prevalidate hook — verifies before the event loop sees the message. Net
// implements runtime.Transport.
package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/types"
)

const (
	dialTimeout  = 2 * time.Second
	maxDialRetry = 2 * time.Second // cap on the doubling reconnect pause
	readBuffer   = 32 << 10        // many small frames per read syscall
)

// Config describes one replica's view of the cluster.
type Config struct {
	// ID is this replica.
	ID types.ReplicaID
	// N, when set, is the committee size: replicas 0..N-1 are peers even
	// before their address is known, so frames sent ahead of SetPeers wait
	// in their queues. With N zero the peers are the address book's keys.
	N int
	// Listen is the local address to accept peers on, e.g. "127.0.0.1:7001".
	Listen string
	// Peers maps every replica ID (including self, which is ignored) to its
	// dialable address.
	Peers map[types.ReplicaID]string
	// DialRetry is the pause after a failed dial (default 250ms); it doubles
	// per consecutive failure up to 2s.
	DialRetry time.Duration
	// Prevalidate, if non-nil, runs on every decoded frame while still on
	// its connection's reader goroutine — one goroutine per peer, so
	// signature checking parallelizes across senders with per-sender FIFO
	// order intact. Frames that fail are dropped (and counted); frames that
	// pass surface with Inbound.Verified set, telling the node's loop to
	// apply them through OnVerifiedMessage; with a nil hook they surface
	// unverified and OnMessage prevalidates them on the loop. Wire it to
	// engine.Engine.Prevalidate.
	Prevalidate func(from types.ReplicaID, msg types.Message) error
	// Obs, if non-nil, receives per-peer frame/byte counts and
	// prevalidation outcomes (see internal/obs).
	Obs *obs.Obs
}

// FrameStats counts frames the transport dropped, split by cause. Silent
// drops are invisible in production — a peer spraying garbage looks identical
// to a quiet network — so every discard is counted.
type FrameStats struct {
	// Spoofed frames claimed a sender other than the connection's
	// handshake identity.
	Spoofed int64
	// Malformed frames did not decode to a message, or broke the framing
	// itself (which terminates that connection).
	Malformed int64
	// Prevalidated frames failed the Prevalidate hook (bad signature or
	// certificate).
	Prevalidated int64
	// Restricted frames arrived on an observer connection with a message
	// type observers may not send (anything beyond sync requests). Observers
	// are read-only peers; their frames must never reach the engine loop.
	Restricted int64
	// SendDropped frames overflowed out of a recipient's bounded outbound
	// queue (oldest first) before they could be written — the recipient was
	// unreachable or slower than the traffic addressed to it.
	SendDropped int64
}

// inbox is the receive half shared by Net and ObserverNet: the prevalidation
// hook and the channel the event loop drains.
type inbox struct {
	recv         chan runtime.Inbound
	ctx          context.Context // cancelled by Close
	prevalidate  func(from types.ReplicaID, msg types.Message) error
	obs          *obs.Obs
	prevalidated atomic.Int64
}

// verify runs the Prevalidate hook on the calling reader goroutine, so the
// engine loop receives the message pre-verified: one reader per peer keeps
// per-sender FIFO order while spreading crypto across cores. ok is false for
// a message that failed and was counted.
func (in *inbox) verify(from types.ReplicaID, msg types.Message) (verified, ok bool) {
	if in.prevalidate == nil {
		return false, true
	}
	err := in.prevalidate(from, msg)
	in.obs.OnPrevalidate(err != nil)
	if err != nil {
		in.prevalidated.Add(1)
	}
	return err == nil, err == nil
}

// deliver hands msg to the event loop; false means the transport is closing.
func (in *inbox) deliver(from types.ReplicaID, msg types.Message, verified bool) bool {
	select {
	case in.recv <- runtime.Inbound{From: from, Msg: msg, Verified: verified}:
		return true
	case <-in.ctx.Done():
		return false
	}
}

// Net is a TCP-backed runtime.Transport.
type Net struct {
	inbox
	cfg    Config
	ln     net.Listener
	cancel context.CancelFunc

	spoofed     atomic.Int64
	malformed   atomic.Int64
	restricted  atomic.Int64
	sendDropped atomic.Int64

	mu        sync.Mutex
	peers     map[types.ReplicaID]*outQueue // voting peers, each with a writer goroutine
	observers map[types.ReplicaID]*observerSink
	book      chan struct{} // closed and replaced whenever the address book changes
	closed    bool
	wg        sync.WaitGroup
}

// observerSink is the replica-side write end of one attached observer: its
// mirror queue, drained onto the socket the observer dialed in on.
type observerSink struct {
	q    *outQueue
	conn net.Conn
	done chan struct{} // closed when the connection's reader exits
}

// FrameStats returns a snapshot of the dropped-frame counters.
func (n *Net) FrameStats() FrameStats {
	return FrameStats{
		Spoofed:      n.spoofed.Load(),
		Malformed:    n.malformed.Load(),
		Prevalidated: n.prevalidated.Load(),
		Restricted:   n.restricted.Load(),
		SendDropped:  n.sendDropped.Load(),
	}
}

// Listen starts accepting peer connections and returns the transport.
func Listen(cfg Config) (*Net, error) {
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 250 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Net{
		inbox: inbox{
			// Sized so a burst from every peer fits while the event loop is
			// busy applying one large block.
			recv:        make(chan runtime.Inbound, 4096),
			ctx:         ctx,
			prevalidate: cfg.Prevalidate,
			obs:         cfg.Obs,
		},
		cfg:       cfg,
		ln:        ln,
		cancel:    cancel,
		peers:     make(map[types.ReplicaID]*outQueue),
		observers: make(map[types.ReplicaID]*observerSink),
		book:      make(chan struct{}),
	}
	n.SetPeers(cfg.Peers)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address.
func (n *Net) Addr() net.Addr { return n.ln.Addr() }

// SetPeers installs or replaces the peer address book. Useful when ports
// are OS-assigned and only known after all listeners are up. Frames already
// queued for a peer whose address arrives here are dialed out at once.
func (n *Net) SetPeers(peers map[types.ReplicaID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	cp := make(map[types.ReplicaID]string, len(peers))
	for id, addr := range peers {
		cp[id] = addr
		n.addPeerLocked(id)
	}
	for id := 0; id < n.cfg.N; id++ {
		n.addPeerLocked(types.ReplicaID(id))
	}
	n.cfg.Peers = cp
	close(n.book)
	n.book = make(chan struct{})
}

func (n *Net) addPeerLocked(id types.ReplicaID) {
	if id == n.cfg.ID || n.peers[id] != nil {
		return
	}
	q := newOutQueue(id, n.cfg.Obs)
	n.peers[id] = q
	n.wg.Add(1)
	go n.peerWriter(q)
}

// Recv implements runtime.Transport.
func (n *Net) Recv() <-chan runtime.Inbound { return n.recv }

// Send implements runtime.Transport: it encodes msg and queues the frame for
// a voting peer or an attached observer (that is how state-sync responses
// reach observers, which are not dialable). It never touches the network.
// The only errors are a closed transport, a recipient that is neither, and a
// message that cannot be framed; a full queue drops its oldest frame and
// counts it in FrameStats.SendDropped instead.
func (n *Net) Send(to types.ReplicaID, msg types.Message) error {
	n.mu.Lock()
	q, closed := n.peers[to], n.closed
	if sink := n.observers[to]; sink != nil {
		q = sink.q
	}
	n.mu.Unlock()
	if closed {
		return errClosed
	}
	if q == nil {
		return fmt.Errorf("tcpnet: unknown peer %v", to)
	}
	frame, err := encodeFrame(n.cfg.ID, msg)
	if err != nil {
		return err
	}
	n.enqueue(q, frame)
	return nil
}

// Broadcast implements runtime.Transport: msg is encoded once and the same
// frame is queued for every voting peer and — for the certified-chain traffic
// observers follow — every attached observer.
func (n *Net) Broadcast(msg types.Message) error {
	frame, err := encodeFrame(n.cfg.ID, msg)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errClosed
	}
	for _, q := range n.peers {
		n.enqueue(q, frame)
	}
	if mirrorable(msg) {
		for _, sink := range n.observers {
			n.enqueue(sink.q, frame)
		}
	}
	return nil
}

var errClosed = errors.New("tcpnet: closed")

// enqueue pushes frame and adds what overflowed to FrameStats.
func (n *Net) enqueue(q *outQueue, frame []byte) {
	if dropped := q.push(frame); dropped > 0 {
		n.sendDropped.Add(int64(dropped))
	}
}

// Close shuts the transport down: it returns once every goroutine has
// exited, whatever is still queued.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.cancel()

	err := n.ln.Close()
	n.wg.Wait()
	close(n.recv)
	return err
}

// closeOnShutdown arranges for conn to be closed when the transport closes
// or the returned function is called, whichever is first. Closing the socket
// is what unblocks a reader in Read and a writer in Write.
func closeOnShutdown(ctx context.Context, conn net.Conn) (closeNow func()) {
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	return func() {
		stop()
		_ = conn.Close()
	}
}

// peerWriter owns the connection to one voting peer for the transport's
// lifetime. It dials only once something is queued, waits for SetPeers when
// the peer has no address yet, pauses with doubling backoff after a failed
// dial, and after a broken connection resumes from the first frame the
// kernel had not accepted.
func (n *Net) peerWriter(q *outQueue) {
	defer n.wg.Done()
	dialer := net.Dialer{Timeout: dialTimeout}
	retry := n.cfg.DialRetry
	for q.wait(n.ctx.Done()) {
		n.mu.Lock()
		addr, book := n.cfg.Peers[q.peer], n.book
		n.mu.Unlock()
		if addr != "" {
			if conn, err := dialer.DialContext(n.ctx, "tcp", addr); err == nil {
				retry = n.cfg.DialRetry
				closeConn := closeOnShutdown(n.ctx, conn)
				if _, err := conn.Write(helloFrame(n.cfg.ID, false)); err == nil {
					writeLoop(q, conn, n.ctx.Done())
				}
				closeConn()
			} else {
				retry = min(2*retry, maxDialRetry)
			}
		}
		// No address yet, a failed dial, or a connection that broke: pause
		// before trying again, unless a new address book arrives first.
		select {
		case <-time.After(retry):
		case <-book:
		case <-n.ctx.Done():
		}
	}
}

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer closeOnShutdown(n.ctx, conn)()
			n.serveFrames(conn, conn)
		}()
	}
}

// serveFrames drains one accepted connection's frame stream: the identifying
// handshake first, then messages, with spoofed/malformed/restricted/
// prevalidation filtering. It takes the byte stream apart from the socket so
// the parser can be fuzzed against raw attacker-controlled bytes; conn, when
// non-nil, is where an observer handshake attaches its mirror writer.
func (n *Net) serveFrames(r io.Reader, conn net.Conn) {
	br := bufio.NewReaderSize(r, readBuffer)
	from, observer, err := readHello(br)
	if err != nil {
		n.countBadFrame(err)
		return
	}
	n.mu.Lock()
	_, isPeer := n.peers[from]
	n.mu.Unlock()
	if from == n.cfg.ID || (observer && isPeer) {
		// A peer claiming to be this node is spoofing by definition —
		// engines treat from == self as trusted local loopback. A voting
		// peer masquerading as an observer would get consensus traffic
		// mirrored back at it while dodging the peer path. Neither
		// connection may produce inbound messages.
		n.spoofed.Add(1)
		return
	}
	if observer && conn != nil {
		sink := n.attachObserver(from, conn)
		if sink == nil {
			return
		}
		defer n.detachObserver(sink)
	}
	for {
		frame, err := readFrame(br)
		if err != nil {
			n.countBadFrame(err)
			return
		}
		// Accepted or dropped, the frame is real traffic from the peer.
		n.cfg.Obs.OnFrameIn(from, int64(len(frame)))
		if frameSender(frame) != from {
			n.spoofed.Add(1)
			continue
		}
		msg, err := frameMessage(frame)
		if err != nil {
			n.malformed.Add(1)
			continue
		}
		if observer && !observerMay(msg) {
			// Observers are read-only: only catch-up requests may reach the
			// engine loop; a vote or proposal from one is an attack, not load.
			n.restricted.Add(1)
			continue
		}
		verified, ok := n.verify(from, msg)
		if !ok {
			continue
		}
		if !observer && mirrorable(msg) {
			n.mirror(frame)
		}
		if !n.deliver(from, msg, verified) {
			return
		}
	}
}

// countBadFrame counts a read failure as malformed only when the bytes broke
// the framing. Transport failures — peer crash, reset, truncation — are
// ordinary disconnects: counting them would make a healthy cluster under
// routine restarts indistinguishable from one being sprayed with junk.
func (n *Net) countBadFrame(err error) {
	if errors.Is(err, errBadFrame) {
		n.malformed.Add(1)
	}
}

// Observers reports how many observer connections are currently attached.
func (n *Net) Observers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.observers)
}

// attachObserver registers an observer handshake's mirror queue and starts
// its writer. A reconnect under the same ID replaces the previous sink and
// disconnects it; the observer heals whatever it missed via state sync.
func (n *Net) attachObserver(id types.ReplicaID, conn net.Conn) *observerSink {
	sink := &observerSink{q: newOutQueue(id, n.cfg.Obs), conn: conn, done: make(chan struct{})}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	old := n.observers[id]
	n.observers[id] = sink
	n.wg.Add(1)
	n.mu.Unlock()
	if old != nil {
		_ = old.conn.Close()
	}
	go func() {
		defer n.wg.Done()
		writeLoop(sink.q, conn, sink.done)
		_ = conn.Close() // after a failed write, end the reader too
	}()
	return sink
}

// detachObserver runs when the observer connection's reader exits: it stops
// the writer and forgets the sink unless a reconnect already replaced it.
func (n *Net) detachObserver(sink *observerSink) {
	close(sink.done)
	n.mu.Lock()
	if n.observers[sink.q.peer] == sink {
		delete(n.observers, sink.q.peer)
	}
	n.mu.Unlock()
}

// mirror relays one accepted peer frame, as the bytes that arrived, to every
// attached observer.
func (n *Net) mirror(frame []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, sink := range n.observers {
		n.enqueue(sink.q, frame)
	}
}

// mirrorable limits mirroring to the certified-chain traffic an observer
// follows: proposals (blocks + embedded justify QCs) and echoes of
// proposals. Votes, timeouts and sync chatter stay between voting peers.
func mirrorable(msg types.Message) bool {
	switch msg.(type) {
	case *types.Proposal, *types.Echo:
		return true
	}
	return false
}

// observerMay whitelists what an observer connection can feed the engine:
// catch-up requests only.
func observerMay(msg types.Message) bool {
	_, ok := msg.(*types.StateSyncRequest)
	return ok
}
