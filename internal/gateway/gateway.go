// Package gateway is the fan-out half of the access tier: it takes the
// certified-pair feed from one or more observers (internal/observer),
// derives proof-carrying strength-rise events per Section 5 — a certified
// block's CommitLog entries are proven levels — and streams them to many
// subscribers over a length-delimited binary protocol.
//
// Trust model: subscribers do NOT trust the gateway. Every event carries
// its proof (the carrier block plus the QC certifying it); sft.Subscriber
// re-verifies through its own lightclient.Client, so a gateway that forges
// or inflates levels is caught client-side. The gateway still verifies its
// own feed (via an internal light client) so a compromised observer cannot
// use it as an amplifier for garbage.
//
// Back-pressure model: per-subscriber queues are bounded. When a
// subscriber's queue overflows the subscriber is evicted — the opposite of
// the in-process Commits() subscription, whose unbounded backlog is
// acceptable only because it lives in the replica's own address space. One
// stalled client must not grow gateway memory or delay the feed.
package gateway

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/lightclient"
	"repro/internal/obs"
	"repro/internal/types"
)

// DefaultQueueBound is the per-subscriber event queue depth.
const DefaultQueueBound = 256

// subscribeTimeout bounds how long a fresh connection may take to present
// its subscribe frame before the gateway drops it.
const subscribeTimeout = 10 * time.Second

// Config parameterizes a gateway.
type Config struct {
	// Verifier checks certificate signatures (the cluster KeyRing). It
	// names the committee, whose size 3f+1 sets the proof checks' quorum
	// 2f+1.
	Verifier crypto.Committee
	// QueueBound is the per-subscriber queue depth; a subscriber whose
	// queue overflows is evicted (default DefaultQueueBound).
	QueueBound int
	// Obs, if non-nil, receives gateway metric updates.
	Obs *obs.Obs
}

// Gateway fans proof-carrying strength events out to subscribers.
type Gateway struct {
	cfg Config

	mu     sync.Mutex
	lc     *lightclient.Client
	levels map[types.BlockID]int
	subs   map[*subscriber]struct{}
	lns    []net.Listener
	closed bool
	wg     sync.WaitGroup
}

type subscriber struct {
	conn     net.Conn
	minLevel int
	ch       chan []byte
	stop     chan struct{}
	once     sync.Once
}

func (s *subscriber) halt() { s.once.Do(func() { close(s.stop); s.conn.Close() }) }

// New creates a gateway.
func New(cfg Config) *Gateway {
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = DefaultQueueBound
	}
	return &Gateway{
		cfg:    cfg,
		lc:     lightclient.New(cfg.Verifier, (cfg.Verifier.N()-1)/3),
		levels: make(map[types.BlockID]int),
		subs:   make(map[*subscriber]struct{}),
	}
}

// Ingest feeds one certified pair from an observer: qc must certify b.
// New strength levels proven by b's CommitLog fan out to subscribers with
// the pair attached as proof. Safe for concurrent use.
func (g *Gateway) Ingest(b *types.Block, qc *types.QC) error {
	g.mu.Lock()
	if err := g.lc.ProcessCertified(b, qc); err != nil {
		g.mu.Unlock()
		g.cfg.Obs.OnGatewayIngest(true)
		return err
	}
	// Collect the rises this carrier proves, monotone per subject block.
	var fresh []types.StrengthRecord
	for _, rec := range b.CommitLog {
		if old, ok := g.levels[rec.Block]; ok && rec.X <= old {
			continue
		}
		g.levels[rec.Block] = rec.X
		fresh = append(fresh, rec)
	}
	subs := make([]*subscriber, 0, len(g.subs))
	for s := range g.subs {
		subs = append(subs, s)
	}
	g.mu.Unlock()
	g.cfg.Obs.OnGatewayIngest(false)

	for _, rec := range fresh {
		frame := AppendEventFrame(nil, Event{Record: rec, Carrier: b, QC: qc})
		for _, s := range subs {
			if rec.X < s.minLevel {
				continue
			}
			select {
			case s.ch <- frame:
				g.cfg.Obs.OnGatewayEvent()
			case <-s.stop:
			default:
				// Queue full: the slowest subscriber loses its slot rather
				// than the feed growing without bound.
				g.evict(s)
			}
		}
	}
	return nil
}

// Serve accepts subscriber connections on ln until ln or the gateway is
// closed. Call in a goroutine; multiple listeners may be served at once.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return fmt.Errorf("gateway: closed")
	}
	g.lns = append(g.lns, ln)
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil
		}
		g.wg.Add(1)
		go g.handle(conn)
	}
}

// Subscribers returns the number of live subscriptions.
func (g *Gateway) Subscribers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.subs)
}

// Proven returns how many distinct blocks have gateway-verified levels.
func (g *Gateway) Proven() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lc.Proven()
}

// Close disconnects all subscribers and stops serving.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	lns := g.lns
	g.lns = nil
	subs := make([]*subscriber, 0, len(g.subs))
	for s := range g.subs {
		subs = append(subs, s)
	}
	g.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, s := range subs {
		s.halt()
	}
	g.wg.Wait()
	return nil
}

func (g *Gateway) handle(conn net.Conn) {
	defer g.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(subscribeTimeout))
	payload, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	minLevel, err := DecodeSubscribeFrame(payload)
	if err != nil {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	s := &subscriber{
		conn:     conn,
		minLevel: minLevel,
		ch:       make(chan []byte, g.cfg.QueueBound),
		stop:     make(chan struct{}),
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		conn.Close()
		return
	}
	g.subs[s] = struct{}{}
	g.mu.Unlock()
	g.cfg.Obs.OnGatewaySubscribed(1)

	defer func() {
		g.mu.Lock()
		_, present := g.subs[s]
		delete(g.subs, s)
		g.mu.Unlock()
		s.halt()
		if present {
			g.cfg.Obs.OnGatewaySubscribed(-1)
		}
	}()

	// Drain the subscriber's direction too: a client closing its end is the
	// unsubscribe signal, and discarding anything else it sends keeps the
	// protocol one-directional after the handshake.
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				s.halt()
				return
			}
		}
	}()

	for {
		select {
		case frame := <-s.ch:
			if err := WriteFrame(conn, frame); err != nil {
				return
			}
			g.cfg.Obs.OnGatewayFrameOut(int64(len(frame) + 4))
		case <-s.stop:
			return
		}
	}
}

// evict removes one over-slow subscriber.
func (g *Gateway) evict(s *subscriber) {
	g.mu.Lock()
	_, present := g.subs[s]
	delete(g.subs, s)
	g.mu.Unlock()
	s.halt()
	if present {
		g.cfg.Obs.OnGatewayEvicted()
		g.cfg.Obs.OnGatewaySubscribed(-1)
	}
}
