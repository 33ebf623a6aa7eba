// Package runtime hosts a consensus engine (internal/engine) on real
// infrastructure: goroutines, wall-clock timers, and a pluggable Transport
// (in-process channels via LocalNetwork, or TCP via internal/tcpnet). The
// engine code is identical to what runs under the simulator; only the event
// loop differs.
package runtime

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// Inbound is one received message. Verified is the transport telling the
// loop what it already did: the message passed the engine's Prevalidate on a
// reader goroutine, or is the node's own loopback. The loop applies such a
// message through OnVerifiedMessage; anything else goes through OnMessage,
// which prevalidates inline.
type Inbound struct {
	From     types.ReplicaID
	Msg      types.Message
	Verified bool
}

// Transport moves messages between replicas. The node calls Send and
// Broadcast from its event loop, so neither may block on the network: the
// engine emits, the transport owns delivery. An error means the message was
// not accepted for delivery at all; the node counts it (Node.SendFailures).
type Transport interface {
	// Send hands msg to the transport for delivery to one replica.
	Send(to types.ReplicaID, msg types.Message) error
	// Broadcast hands msg to the transport for delivery to every other
	// replica (and whatever read-only followers the transport serves).
	Broadcast(msg types.Message) error
	// Recv returns the channel of inbound messages.
	Recv() <-chan Inbound
	// Close releases resources; Recv's channel may close afterwards.
	Close() error
}

// Durable is the durability resource a node owns while running —
// typically a *core.Journal wrapping the engine's write-ahead log. Close
// must flush (with fsync) and release it.
type Durable interface {
	Close() error
}

// Options configures a Node.
type Options struct {
	// OnCommit, if non-nil, observes regular commits.
	OnCommit func(b *types.Block)
	// OnStrength, if non-nil, observes strong-commit level updates.
	OnStrength func(b *types.Block, x int)
	// Journal, if non-nil, is flushed and closed when Run returns — the
	// engine appends to it synchronously from the event loop, so closing
	// after the loop exits guarantees no buffered appends are dropped on a
	// graceful shutdown (context cancellation included).
	Journal Durable
}

// Node runs one engine on a transport until its context is cancelled.
type Node struct {
	eng   engine.Engine
	tr    Transport
	opts  Options
	start time.Time

	// recv is the transport's inbound channel, captured once in NewNode (the
	// Transport contract doesn't promise Recv returns a stable channel).
	recv <-chan Inbound

	timerCh  chan int
	loopback chan Inbound
	stopping chan struct{}

	sendFailures atomic.Int64
}

// NewNode wires an engine to a transport. The transport is only drained once
// Run is called.
func NewNode(eng engine.Engine, tr Transport, opts Options) *Node {
	return &Node{
		eng:      eng,
		tr:       tr,
		opts:     opts,
		recv:     tr.Recv(),
		timerCh:  make(chan int, 64),
		loopback: make(chan Inbound, 64),
		stopping: make(chan struct{}),
	}
}

// SendFailures returns how many Send/Broadcast outputs the transport refused
// outright (closed, unknown recipient, full in-process inbox). The protocol
// tolerates the loss through timeouts; the count keeps it visible.
func (n *Node) SendFailures() int64 { return n.sendFailures.Load() }

// Run executes the node's event loop until ctx is cancelled. It owns the
// engine: no other goroutine may touch it while Run is active. If a journal
// is configured it is flushed and closed on the way out, so a graceful stop
// (signal, -run timeout) never drops buffered WAL appends.
func (n *Node) Run(ctx context.Context) (err error) {
	n.start = time.Now()
	defer close(n.stopping)
	if n.opts.Journal != nil {
		defer func() {
			// The loop has exited; the engine is quiescent, so this flush
			// observes every append. Surface a close failure unless the run
			// is already reporting an error.
			if cerr := n.opts.Journal.Close(); cerr != nil && (err == nil || err == ctx.Err()) {
				err = cerr
			}
		}()
	}
	n.apply(n.eng.Init(n.now()))
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case in, ok := <-n.recv:
			if !ok {
				return nil
			}
			n.apply(n.dispatch(in))
		case in := <-n.loopback:
			n.apply(n.dispatch(in))
		case id := <-n.timerCh:
			n.apply(n.eng.OnTimer(n.now(), id))
		}
	}
}

// dispatch applies one inbound message: one that already passed
// prevalidation (transport reader hook, or local loopback) goes straight to
// the state stage; any other through OnMessage.
func (n *Node) dispatch(in Inbound) []engine.Output {
	if in.Verified {
		return n.eng.OnVerifiedMessage(n.now(), in.From, in.Msg)
	}
	return n.eng.OnMessage(n.now(), in.From, in.Msg)
}

func (n *Node) now() time.Duration { return time.Since(n.start) }

func (n *Node) apply(outs []engine.Output) {
	self := n.eng.ID()
	for _, out := range outs {
		switch out.Kind {
		case engine.Send:
			if out.To == self {
				// Locally generated: trusted, no prevalidation needed.
				n.enqueueLoopback(Inbound{From: self, Msg: out.Msg, Verified: true})
				continue
			}
			if err := n.tr.Send(out.To, out.Msg); err != nil {
				n.sendFailures.Add(1)
			}
		case engine.Broadcast:
			if err := n.tr.Broadcast(out.Msg); err != nil {
				n.sendFailures.Add(1)
			}
			if out.SelfDeliver {
				n.enqueueLoopback(Inbound{From: self, Msg: out.Msg, Verified: true})
			}
		case engine.SetTimer:
			id := out.Timer
			time.AfterFunc(out.Delay, func() {
				select {
				case n.timerCh <- id:
				case <-n.stopping:
				}
			})
		case engine.Commit:
			if n.opts.OnCommit != nil {
				n.opts.OnCommit(out.Block)
			}
		case engine.Strength:
			if n.opts.OnStrength != nil {
				n.opts.OnStrength(out.Block, out.X)
			}
		}
	}
}

func (n *Node) enqueueLoopback(in Inbound) {
	// The loopback buffer is drained by the same goroutine that fills it,
	// so a full buffer must not deadlock: fall back to a goroutine handoff.
	select {
	case n.loopback <- in:
	default:
		go func() {
			select {
			case n.loopback <- in:
			case <-n.stopping:
			}
		}()
	}
}
