package sft

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// Transport selects a node's execution substrate. The three
// implementations — TCP, LocalNet endpoints, and Simnet slots — are
// constructed through this package; the interface is sealed.
type Transport interface {
	// attach wires the built engine into the substrate.
	attach(n *Node) error
	// simulated reports whether crashes are simulated in-process, in which
	// case page-cache WAL durability models them faithfully and fsync is
	// skipped.
	simulated() bool
}

// TCPConfig configures the TCP transport.
type TCPConfig struct {
	// Listen is the local address to accept peers on, e.g. ":7000" or
	// "127.0.0.1:0" (ephemeral; read the bound address from Node.Addr).
	Listen string
	// Peers maps every replica (self included; ignored) to its dialable
	// address. May be nil at construction and installed later with
	// Node.SetPeers.
	Peers map[ReplicaID]string
}

// TCP returns the real-socket transport: length-delimited frames of the
// pinned message encodings over persistent connections opened by a sender
// handshake. Sends only enqueue; a writer goroutine per peer dials lazily,
// reconnects with backoff, and holds frames for a peer that is not reachable
// yet in a bounded queue (overflow is counted in Metrics().SendDropped).
// Inbound frames are prevalidated (signatures, certificates) on their
// per-peer reader goroutines before they reach the event loop.
func TCP(cfg TCPConfig) Transport { return &tcpTransport{cfg: cfg} }

type tcpTransport struct{ cfg TCPConfig }

func (t *tcpTransport) simulated() bool { return false }

func (t *tcpTransport) attach(n *Node) error {
	netCfg := tcpnet.Config{
		ID:          n.cfg.ID,
		N:           n.cfg.N,
		Listen:      t.cfg.Listen,
		Peers:       t.cfg.Peers,
		Obs:         n.obs,
		Prevalidate: n.eng.Prevalidate,
	}
	nt, err := tcpnet.Listen(netCfg)
	if err != nil {
		return err
	}
	n.tcp = nt
	attachRuntime(n, nt)
	return nil
}

// LocalNet connects up to n in-process nodes through buffered channels —
// the quickest way to run a real (goroutine-per-replica, wall-clock) cluster
// inside one process without sockets. Each node's event loop prevalidates
// its own inbound messages.
type LocalNet struct {
	net *runtime.LocalNetwork
	n   int
}

// NewLocalNet creates an in-process network with n endpoints.
func NewLocalNet(n int) *LocalNet {
	return &LocalNet{net: runtime.NewLocalNetwork(n), n: n}
}

// Transport returns the endpoint for replica id, for WithTransport.
func (l *LocalNet) Transport(id ReplicaID) Transport {
	return &localTransport{net: l, id: id}
}

// Close shuts down every endpoint; nodes' Run loops drain and return.
func (l *LocalNet) Close() { l.net.Close() }

type localTransport struct {
	net *LocalNet
	id  ReplicaID
}

func (t *localTransport) simulated() bool { return false }

func (t *localTransport) attach(n *Node) error {
	if n.cfg.ID != t.id {
		return fmt.Errorf("sft: transport endpoint %d attached to node %d", t.id, n.cfg.ID)
	}
	if int(t.id) >= t.net.n {
		return fmt.Errorf("sft: endpoint %d outside LocalNet of %d", t.id, t.net.n)
	}
	attachRuntime(n, t.net.net.Endpoint(t.id))
	return nil
}

// attachRuntime builds the runtime.Node around an already-built engine.
func attachRuntime(n *Node, tr runtime.Transport) {
	opts := runtime.Options{
		OnCommit: func(b *types.Block) {
			n.onCommit(n.now(), b)
		},
		OnStrength: func(b *types.Block, x int) {
			n.onStrength(n.now(), b, x)
		},
	}
	if n.journal != nil {
		// The runtime flushes and closes the journal when Run exits; the
		// once-guarded handle keeps Node.Close idempotent with that.
		opts.Journal = n.journal
	}
	n.rt = runtime.NewNode(n.eng, tr, opts)
}
