// Package engine defines the event-driven interface every consensus engine
// in this repository implements. Engines are pure state machines: they
// receive Init/OnMessage/OnTimer events carrying the current (virtual or
// wall) time and return a list of Outputs, one value type whose Kind names
// the action (send, broadcast, timer, commit, strength rise). They never
// touch clocks, sockets or goroutines themselves, which lets the same engine
// run deterministically under the discrete-event simulator (internal/simnet)
// and under the real TCP runtime (internal/runtime).
package engine

import (
	"time"

	"repro/internal/types"
)

// Engine is an event-driven replica state machine. Every inbound message is
// checked in one place and applied in another:
//
//   - Prevalidate is every stateless check on one message: well-formedness
//     and certificate structure always, signature and certificate
//     verification when the engine is configured to verify. It is pure with
//     respect to replica state: it reads only immutable configuration (keys,
//     quorum size, cluster shape) and internally synchronized caches, never
//     the protocol state machine, so transports call it from any number of
//     goroutines concurrently with the event loop. An error means the
//     message is discardable.
//   - OnVerifiedMessage is the state stage: stateful rules only (stale
//     rounds, parent presence, vote dedup, the per-peer timeout cap). It
//     checks no signature and no certificate, with two exceptions only the
//     state can call for. A catch-up segment (StateSyncResponse) is
//     prefix-stateful, so Prevalidate never judges it and it is verified
//     link by link as it installs; and Streamlet verifies a proposal's
//     justify when it holds the parent uncertified, having missed its votes.
//   - OnMessage is Prevalidate then OnVerifiedMessage, the door for a caller
//     that has not prevalidated. A message from the replica's own ID is
//     loopback and skips Prevalidate: transports authenticate from (tcpnet
//     refuses a peer that handshakes as the node's own ID), so only the
//     engine's own SelfDeliver output arrives under it.
//
// Whoever calls Prevalidate must not deliver a message it rejected, counts
// the outcome (obs.OnPrevalidate), and preserves per-sender FIFO between
// Prevalidate and OnVerifiedMessage; cross-sender order is unconstrained,
// exactly like the network.
//
// Two ownership rules hold across the interface, one in each direction:
//
//   - A message is immutable once handed over: to Prevalidate, OnMessage or
//     OnVerifiedMessage by a caller, or inside an Output by an engine. Nobody
//     writes to it, or to anything it points to, afterwards. Engines keep
//     what they are given (the block store holds the delivered *QC), a
//     certificate carries the record of the first door it passed for every
//     replica of the process (replica.Certs), and the simulator hands one
//     object to every recipient; whoever needs a variant builds a new one,
//     as the adversary behaviors do (TestBehaviorsNeverEditInPlace).
//   - The []Output returned by Init, OnMessage, OnVerifiedMessage or OnTimer
//     is valid until the next of those four calls on the same engine, which
//     may overwrite it: engines reuse one array. A caller consumes it at once
//     (runtime.Node.apply, simnet's apply, the adversary wrapper's transform)
//     or copies it. Prevalidate is not one of the four and leaves the
//     slice alone, since transports run it beside the consumer.
type Engine interface {
	// ID returns the replica this engine instance embodies.
	ID() types.ReplicaID
	// Init is called once at startup and returns the initial outputs
	// (typically the round-1 proposal if the replica is the first leader,
	// plus the first round timer).
	Init(now time.Duration) []Output
	// OnMessage delivers one message nobody has prevalidated yet.
	OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []Output
	// Prevalidate runs the stateless checks on msg; nil marks it deliverable
	// through OnVerifiedMessage.
	Prevalidate(from types.ReplicaID, msg types.Message) error
	// OnVerifiedMessage applies a message that passed Prevalidate or was
	// generated locally.
	OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []Output
	// OnTimer fires a timer previously requested via SetTimer. Engines must
	// tolerate stale timers (e.g. a round timer firing after the round
	// already advanced).
	OnTimer(now time.Duration, id int) []Output
}

// Recycle empties an engine's output array for its next event and returns it
// for refilling. The outputs are zeroed, not just cut off: the array outlives
// them and must not keep their messages and blocks reachable.
func Recycle(outs []Output) []Output {
	clear(outs)
	return outs[:0]
}

// Output is one action requested by an engine, held by value: Kind says
// which, and only that kind's fields are set. Runtimes switch on Kind.
type Output struct {
	Kind Kind
	// To is a Send's recipient (the replica itself means loopback).
	To types.ReplicaID
	// SelfDeliver on a Broadcast also hands the engine its own copy (DiemBFT
	// leaders process their own proposals through the same code path as
	// everyone else).
	SelfDeliver bool
	// Msg is a Send's or Broadcast's message.
	Msg types.Message
	// Timer is a SetTimer's ID, handed back to OnTimer.
	Timer int
	// Delay is a SetTimer's wait. On a Send or Broadcast it is zero when the
	// output reaches a runtime; only the adversary's behaviors set it there,
	// to postpone a transmission, and its wrapper turns that into a timer.
	Delay time.Duration
	// Block is a Commit's or Strength's block.
	Block *types.Block
	// X is a Strength's new level.
	X int
}

// Kind names what an Output asks for. The zero Kind is no output at all.
type Kind uint8

const (
	// Send transmits Msg to To.
	Send Kind = iota + 1
	// Broadcast transmits Msg to every other replica, and to the engine
	// itself when SelfDeliver is set.
	Broadcast
	// SetTimer requests an OnTimer(Timer) callback after Delay.
	SetTimer
	// Commit reports a regular (f-strong) commit of Block and, implicitly,
	// all its ancestors. Runtimes and the harness use it for
	// latency/throughput accounting; Height ordering is guaranteed per
	// replica.
	Commit
	// Strength reports that Block's strong-commit level rose to X (the
	// commit now tolerates X Byzantine faults, Definition 1).
	Strength
)
