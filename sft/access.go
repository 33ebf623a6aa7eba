package sft

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/lightclient"
	"repro/internal/observer"
	"repro/internal/runtime"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// This file is the access tier's public face: read-path scale-out without
// adding voting weight. Three pieces compose:
//
//   - ObserverNode: a non-voting follower of the consensus tier. It consumes
//     the committee's own traffic (proposals with their QCs, state-sync
//     segments), verifies every signature and certificate itself, and derives
//     the same commit/strength event stream a voting replica reports —
//     without ever voting. Run any number of them; replicas treat them as
//     read-only peers whose back-pressure can never stall consensus.
//   - GatewayService: fans the observers' proof-carrying strength feed out to
//     many subscribers over one streaming socket protocol.
//   - Subscriber: the client end. It re-verifies every event's Section 5
//     proof (the carrier block plus the certificate over it) through its own
//     light client, so a lying gateway is caught, not believed.

// StrengthRecord re-exports the Section 5 commit-log entry type.
type StrengthRecord = types.StrengthRecord

// ObserverConfig parameterizes a non-voting observer node.
type ObserverConfig struct {
	// ID is the observer's wire identity; it must lie outside the voting
	// committee [0, N). Zero means N (the first observer slot).
	ID ReplicaID
	// Ring is the committee's PKI (required): its size is the committee's
	// N = 3f+1 and its scheme says whether signatures are checked. The
	// observer only ever verifies, never signs.
	Ring *KeyRing
	// Engine names the protocol the committee runs; it selects the marker
	// mode the observer tracks strength with (default DiemBFT).
	Engine Engine
	// Gateway, if non-nil, receives every certified (block, QC) pair the
	// observer verifies — the feed a GatewayService serves from.
	Gateway *GatewayService
}

// ObserverTransport attaches an observer to its substrate: ObserverTCP for
// real sockets, or Simnet.ObserverTransport for the deterministic simulator.
// The interface is sealed, like Transport.
type ObserverTransport interface {
	attachObserver(o *ObserverNode) error
}

// ObserverTCP returns the real-socket observer transport: it dials the
// upstream replicas (replica ID → dialable address) with an observer
// handshake, so they mirror their certified-chain traffic without ever
// counting the connection toward consensus. The observer keeps one
// read-mostly connection per upstream; any non-empty subset of the committee
// works, and more upstreams tolerate more faulty feeds.
func ObserverTCP(upstreams map[ReplicaID]string) ObserverTransport {
	return observerTCPTransport(upstreams)
}

type observerTCPTransport map[ReplicaID]string

func (t observerTCPTransport) attachObserver(o *ObserverNode) error {
	if len(t) == 0 {
		return fmt.Errorf("sft: observer needs at least one upstream")
	}
	onet, err := tcpnet.DialObservers(tcpnet.ObserverConfig{
		ID:          o.id,
		Upstreams:   t,
		Prevalidate: o.eng.Prevalidate,
	})
	if err != nil {
		return err
	}
	o.net = onet
	o.rt = runtime.NewNode(o.eng, onet, runtime.Options{
		OnCommit:   func(b *types.Block) { o.onCommit(o.now(), b) },
		OnStrength: func(b *types.Block, x int) { o.onStrength(o.now(), b, x) },
	})
	return nil
}

// ObserverNode is one running (or simulated) non-voting follower. Its read
// API mirrors Node's subscription surface: Commits, Strength,
// CommittedHeight and WaitStrength behave identically, fed by the observer's
// independently verified view of the chain instead of a voting engine.
type ObserverNode struct {
	id  ReplicaID
	n   int
	eng *observer.Observer

	rt  *runtime.Node
	net *tcpnet.ObserverNet

	// feed is the commit-strength stream, unfiltered: an observer has no
	// commit rule, mempool or prune cut of its own.
	feed

	closeOnce sync.Once
	closeErr  error
}

// NewObserver composes a non-voting observer node and attaches it to its
// transport.
func NewObserver(cfg ObserverConfig, tr ObserverTransport) (*ObserverNode, error) {
	n, err := committee(cfg.Ring)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("sft: an observer transport is required")
	}
	if cfg.ID == 0 {
		cfg.ID = ReplicaID(n)
	}
	if int(cfg.ID) < n {
		return nil, fmt.Errorf("sft: observer ID %d inside the voting committee [0, %d)", cfg.ID, n)
	}
	mode := core.ModeRound
	if cfg.Engine == Streamlet {
		mode = core.ModeHeight
	}
	o := &ObserverNode{
		id:   cfg.ID,
		n:    n,
		feed: feed{name: "observer"},
	}
	eng, err := observer.New(observer.Config{
		ID:               cfg.ID,
		N:                n,
		Mode:             mode,
		Verifier:         cfg.Ring,
		VerifySignatures: checksSignatures(cfg.Ring),
		OnCertified: func(b *types.Block, qc *types.QC) {
			if cfg.Gateway != nil {
				// A pair the observer itself verified; the gateway re-checks
				// anyway, so an error here is a bug, not a protocol event.
				_ = cfg.Gateway.Ingest(b, qc)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	o.eng = eng
	if err := tr.attachObserver(o); err != nil {
		return nil, err
	}
	return o, nil
}

// ID returns the observer's wire identity (outside the committee).
func (o *ObserverNode) ID() ReplicaID { return o.id }

// Run executes the observer's event loop until ctx is cancelled (TCP
// transport only; Simnet-attached observers are driven by Simnet.Run).
func (o *ObserverNode) Run(ctx context.Context) error {
	if o.rt == nil {
		return fmt.Errorf("sft: observer is attached to a Simnet; drive it with Simnet.Run")
	}
	o.started = time.Now()
	err := o.rt.Run(ctx)
	cerr := o.Close()
	if err != nil && err != ctx.Err() {
		return err
	}
	return cerr
}

// Close stops the observer and closes every subscription channel.
func (o *ObserverNode) Close() error {
	o.closeOnce.Do(func() {
		if o.net != nil {
			o.closeErr = o.net.Close()
		}
		o.shut()
	})
	return o.closeErr
}

// Commits returns a fresh subscription to the observer's commit-strength
// stream, with Node.Commits semantics.
func (o *ObserverNode) Commits() <-chan CommitEvent { return o.subscribe() }

// Strength returns the strongest commit level observed for the block, or -1.
func (o *ObserverNode) Strength(id BlockID) int { return o.strengthOf(id) }

// CommittedHeight returns the highest committed height observed.
func (o *ObserverNode) CommittedHeight() Height { return o.committedHeight() }

// WaitStrength blocks until the observer sees block id at strength >= x, the
// context is done, or the observer closes.
func (o *ObserverNode) WaitStrength(ctx context.Context, id BlockID, x int) error {
	return o.waitStrength(ctx, id, x)
}

func (o *ObserverNode) onCommit(now time.Duration, b *Block) {
	f := (o.n - 1) / 3
	o.publish(CommitEvent{Block: b, Height: b.Height, Round: b.Round, Strength: f, Regular: true, Time: now})
}

func (o *ObserverNode) onStrength(now time.Duration, b *Block, x int) {
	o.publish(CommitEvent{Block: b, Height: b.Height, Round: b.Round, Strength: x, Time: now})
}

// GatewayConfig parameterizes a strength-subscription gateway.
type GatewayConfig struct {
	// Ring is the committee PKI (required, 3f+1 keys) the gateway and its
	// subscribers verify proofs against.
	Ring *KeyRing
	// QueueBound is the per-subscriber queue depth; a subscriber that falls
	// further behind is evicted (default gateway.DefaultQueueBound).
	QueueBound int
	// Obs, if non-nil, receives sft_gateway_* metrics.
	Obs *Observability
}

// GatewayService streams proof-carrying strength-rise events to many
// subscribers. Feed it from one or more observers (ObserverConfig.Gateway or
// explicit Ingest calls), serve it on any listener, and dial it with
// Subscribe.
type GatewayService struct {
	gw *gateway.Gateway
}

// NewGateway composes a gateway over the committee's PKI.
func NewGateway(cfg GatewayConfig) (*GatewayService, error) {
	n, err := committee(cfg.Ring)
	if err != nil {
		return nil, err
	}
	return &GatewayService{gw: gateway.New(gateway.Config{
		F:          (n - 1) / 3,
		Verifier:   cfg.Ring,
		QueueBound: cfg.QueueBound,
		Obs:        cfg.Obs,
	})}, nil
}

// Ingest feeds one certified pair (qc certifies b); its CommitLog's fresh
// strength rises fan out to subscribers with the pair attached as proof.
func (g *GatewayService) Ingest(b *Block, qc *QC) error { return g.gw.Ingest(b, qc) }

// Serve accepts subscribers on ln until it closes. Blocking; run it in a
// goroutine. Multiple listeners may be served concurrently.
func (g *GatewayService) Serve(ln net.Listener) error { return g.gw.Serve(ln) }

// Listen binds addr and serves it in the background, returning the bound
// address (use ":0" for ephemeral).
func (g *GatewayService) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go g.gw.Serve(ln)
	return ln.Addr(), nil
}

// Subscribers returns the number of live subscriptions.
func (g *GatewayService) Subscribers() int { return g.gw.Subscribers() }

// Proven returns how many distinct blocks carry gateway-verified strength.
func (g *GatewayService) Proven() int { return g.gw.Proven() }

// Close disconnects every subscriber and stops serving.
func (g *GatewayService) Close() error { return g.gw.Close() }

// StrengthEvent is one proof-verified strength observation delivered to a
// Subscriber: the named block now tolerates Strength Byzantine faults.
type StrengthEvent struct {
	Block    BlockID
	Height   Height
	Round    Round
	Strength int
	// Time is when the subscriber verified the event.
	Time time.Time
}

// SubscriberConfig parameterizes a gateway subscription.
type SubscriberConfig struct {
	// Ring is the committee PKI (required, 3f+1 keys) events are verified
	// against — the client's trust root. The gateway is NOT part of it.
	Ring *KeyRing
	// MinStrength filters the subscription server-side: only rises at or
	// above it are streamed.
	MinStrength int
	// DialTimeout bounds the connection attempt (default 10s).
	DialTimeout time.Duration
}

// ErrProofInvalid wraps every verification failure a Subscriber hits: the
// gateway delivered an event whose Section 5 proof does not hold up. An
// honest gateway never triggers it; treat it as the gateway lying (or
// serving a committee with a different PKI) and stop trusting the feed.
type ErrProofInvalid struct {
	Reason string
	Err    error
}

func (e *ErrProofInvalid) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("sft: gateway proof invalid: %s: %v", e.Reason, e.Err)
	}
	return "sft: gateway proof invalid: " + e.Reason
}

func (e *ErrProofInvalid) Unwrap() error { return e.Err }

// Subscriber is one verified gateway subscription. Events delivers rises in
// stream order; each was re-verified against the committee's PKI before
// delivery, so consuming code can act on Strength without trusting the
// gateway. The channel closes on any error — including a failed proof — and
// Err reports why.
type Subscriber struct {
	conn net.Conn
	lc   *lightclient.Client
	ch   chan StrengthEvent
	done chan struct{}

	mu     sync.Mutex
	err    error
	closed bool

	closeOnce sync.Once
}

// Subscribe dials a gateway, registers the subscription, and starts the
// verified event stream.
func Subscribe(addr string, cfg SubscriberConfig) (*Subscriber, error) {
	n, err := committee(cfg.Ring)
	if err != nil {
		return nil, err
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := gateway.WriteFrame(conn, gateway.AppendSubscribeFrame(nil, cfg.MinStrength)); err != nil {
		conn.Close()
		return nil, err
	}
	s := &Subscriber{
		conn: conn,
		lc:   lightclient.New(cfg.Ring, (n-1)/3),
		ch:   make(chan StrengthEvent, 64),
		done: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// Events returns the verified event stream. It closes when the subscription
// ends; check Err afterwards.
func (s *Subscriber) Events() <-chan StrengthEvent { return s.ch }

// Err reports why the stream ended: nil while it is live or after Close, an
// *ErrProofInvalid if the gateway lied, or the transport error otherwise.
func (s *Subscriber) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Strength returns the proven level of a block per the events verified so
// far, or -1.
func (s *Subscriber) Strength(id BlockID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lc.StrengthOf(id)
}

// Close terminates the subscription. Err remains nil for a local close.
func (s *Subscriber) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
		s.conn.Close()
	})
	return nil
}

func (s *Subscriber) loop() {
	defer close(s.ch)
	for {
		payload, err := gateway.ReadFrame(s.conn)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("sft: gateway closed the subscription")
			}
			s.fail(err)
			return
		}
		ev, err := gateway.DecodeEventFrame(payload)
		if err != nil {
			s.fail(&ErrProofInvalid{Reason: "malformed event frame", Err: err})
			return
		}
		out, err := s.verify(ev)
		if err != nil {
			s.fail(err)
			return
		}
		select {
		case s.ch <- out:
		case <-s.done:
			return
		}
	}
}

// verify re-checks one event's Section 5 proof: the certificate must
// genuinely certify the carrier block under the committee's PKI, and the
// claimed record must be among the carrier's CommitLog entries. Anything
// less and the gateway could attribute arbitrary strength to arbitrary
// blocks.
func (s *Subscriber) verify(ev gateway.Event) (StrengthEvent, error) {
	s.mu.Lock()
	err := s.lc.ProcessCertified(ev.Carrier, ev.QC)
	s.mu.Unlock()
	if err != nil {
		return StrengthEvent{}, &ErrProofInvalid{Reason: "carrier not certified", Err: err}
	}
	proven := false
	for _, rec := range ev.Carrier.CommitLog {
		if rec == ev.Record {
			proven = true
			break
		}
	}
	if !proven {
		return StrengthEvent{}, &ErrProofInvalid{Reason: "claimed record not in certified commit log"}
	}
	return StrengthEvent{
		Block:    ev.Record.Block,
		Height:   ev.Record.Height,
		Round:    ev.Record.Round,
		Strength: ev.Record.X,
		Time:     time.Now(),
	}, nil
}

// fail records the terminal error (unless the subscriber closed itself — a
// local Close races with its own read error, which is not a failure).
func (s *Subscriber) fail(err error) {
	s.mu.Lock()
	if s.err == nil && !s.closed {
		s.err = err
	}
	s.mu.Unlock()
	s.conn.Close()
}
