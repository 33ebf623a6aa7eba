package tcpnet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/types"
)

// ObserverConfig describes a non-voting follower's view of the cluster: the
// identity it presents in handshakes (an ID outside the voting committee)
// and the replicas it attaches to.
type ObserverConfig struct {
	// ID is the observer's wire identity; it must not collide with a voting
	// replica ID (convention: committee N and up).
	ID types.ReplicaID
	// Upstreams maps replica IDs to dialable addresses. The observer keeps a
	// mirror connection to every upstream, reconnecting with backoff, so one
	// upstream crashing does not blind it.
	Upstreams map[types.ReplicaID]string
	// DialRetry is the pause between failed dials/reconnects (default 250ms).
	DialRetry time.Duration
	// Prevalidate, if non-nil, runs on every decoded frame on the upstream's
	// reader goroutine (wire it to engine.Engine.Prevalidate).
	Prevalidate func(from types.ReplicaID, msg types.Message) error
	// Obs, if non-nil, receives frame/byte counts per upstream.
	Obs *obs.Obs
}

// ObserverNet is the observer-side runtime.Transport: it dials the
// configured upstream replicas with an observer handshake, receives mirrored
// consensus traffic from each, and can send catch-up requests back. Unlike
// Net it never listens — observers are pure clients of the consensus tier.
type ObserverNet struct {
	inbox
	cfg       ObserverConfig
	cancel    context.CancelFunc
	upstreams map[types.ReplicaID]*outQueue // immutable after DialObservers
	connected atomic.Int32
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// DialObservers connects an observer to its upstreams. Connections are
// established (and re-established) in the background; the transport is
// usable immediately.
func DialObservers(cfg ObserverConfig) (*ObserverNet, error) {
	if len(cfg.Upstreams) == 0 {
		return nil, fmt.Errorf("tcpnet: observer needs at least one upstream")
	}
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	o := &ObserverNet{
		inbox: inbox{
			recv:        make(chan runtime.Inbound, 4096), // as Net's
			ctx:         ctx,
			prevalidate: cfg.Prevalidate,
			obs:         cfg.Obs,
		},
		cfg:       cfg,
		cancel:    cancel,
		upstreams: make(map[types.ReplicaID]*outQueue, len(cfg.Upstreams)),
	}
	for id, addr := range cfg.Upstreams {
		q := newOutQueue(id, cfg.Obs)
		o.upstreams[id] = q
		o.wg.Add(1)
		go o.upstreamLoop(q, addr)
	}
	return o, nil
}

// Recv implements runtime.Transport.
func (o *ObserverNet) Recv() <-chan runtime.Inbound { return o.recv }

// Send implements runtime.Transport: a catch-up request is queued for the
// upstream the engine addressed and goes out on its current or next
// connection.
func (o *ObserverNet) Send(to types.ReplicaID, msg types.Message) error {
	q := o.upstreams[to]
	if o.closed.Load() {
		return errClosed
	}
	if q == nil {
		return fmt.Errorf("tcpnet: %v is not an upstream", to)
	}
	frame, err := encodeFrame(o.cfg.ID, msg)
	if err != nil {
		return err
	}
	q.push(frame)
	return nil
}

// Broadcast implements runtime.Transport. An observer's engine only ever
// addresses one upstream, so this is just Send to each.
func (o *ObserverNet) Broadcast(msg types.Message) error {
	for id := range o.upstreams {
		if err := o.Send(id, msg); err != nil {
			return err
		}
	}
	return nil
}

// Connected reports how many upstream connections are currently live.
func (o *ObserverNet) Connected() int { return int(o.connected.Load()) }

// Close implements runtime.Transport.
func (o *ObserverNet) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	o.cancel()
	o.wg.Wait()
	close(o.recv)
	return nil
}

// upstreamLoop maintains one upstream connection for the observer's
// lifetime: dial, observer handshake, then drain mirrored frames here while a
// writer drains q; on any failure tear both down and retry after DialRetry.
// This is what makes observer restarts and upstream restarts self-healing.
func (o *ObserverNet) upstreamLoop(q *outQueue, addr string) {
	defer o.wg.Done()
	dialer := net.Dialer{Timeout: dialTimeout}
	for o.ctx.Err() == nil {
		conn, err := dialer.DialContext(o.ctx, "tcp", addr)
		if err == nil {
			o.serve(q, conn)
		}
		select {
		case <-time.After(o.cfg.DialRetry):
		case <-o.ctx.Done():
		}
	}
}

// serve runs one established upstream connection to its end.
func (o *ObserverNet) serve(q *outQueue, conn net.Conn) {
	closeConn := closeOnShutdown(o.ctx, conn)
	done := make(chan struct{})
	var writer sync.WaitGroup
	defer func() {
		close(done)
		closeConn()
		writer.Wait()
	}()
	if _, err := conn.Write(helloFrame(o.cfg.ID, true)); err != nil {
		return
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		writeLoop(q, conn, done)
		_ = conn.Close()
	}()
	o.connected.Add(1)
	defer o.connected.Add(-1)

	// Mirrored frames keep their original sender (an upstream relays other
	// replicas' traffic), so there is no spoof check here — the observer's
	// engine verifies every signature and certificate itself and trusts no
	// sender identity.
	br := bufio.NewReaderSize(conn, readBuffer)
	for {
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		o.cfg.Obs.OnFrameIn(q.peer, int64(len(frame)))
		msg, err := frameMessage(frame)
		if err != nil {
			continue
		}
		from := frameSender(frame)
		if verified, ok := o.verify(from, msg); ok && !o.deliver(from, msg, verified) {
			return
		}
	}
}
