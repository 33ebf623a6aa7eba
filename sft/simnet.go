package sft

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/types"
)

// SimnetConfig parameterizes a deterministic simulation fabric. Deliveries
// go through each engine's OnMessage, which prevalidates synchronously, so a
// simulated node checks exactly what a TCP node's reader goroutines check.
type SimnetConfig struct {
	// N is the number of replica slots.
	N int
	// Latency is the network model; required.
	Latency LatencyModel
	// Seed drives all simulated randomness: same seed, same run,
	// bit-identical results.
	Seed int64
	// Observers adds non-voting observer slots numbered N..N+Observers-1,
	// attached with Simnet.ObserverTransport. Observer slots receive every
	// replica broadcast but never vote; with Observers = 0 the fabric is
	// bit-identical to one built before observer support existed.
	Observers int
}

// Simnet is the deterministic discrete-event fabric the paper's experiments
// run on, exposed through the facade: create it, attach nodes built with
// WithTransport(world.Transport(id)), then drive virtual time with Run.
// Unattached slots model replicas that are down from the start.
type Simnet struct {
	cfg       SimnetConfig
	sim       *simnet.Sim
	nodes     []*Node
	observers []*ObserverNode
}

// NewSimnet creates a simulation fabric with cfg.N empty replica slots.
func NewSimnet(cfg SimnetConfig) (*Simnet, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sft: simnet needs N > 0")
	}
	if cfg.Latency == nil {
		return nil, fmt.Errorf("sft: simnet needs a latency model (e.g. sft.UniformLatency or sft.SymmetricLatency)")
	}
	if cfg.Observers < 0 {
		return nil, fmt.Errorf("sft: simnet observers must be non-negative")
	}
	w := &Simnet{
		cfg:       cfg,
		nodes:     make([]*Node, cfg.N),
		observers: make([]*ObserverNode, cfg.Observers),
	}
	w.sim = simnet.New(simnet.Config{
		N:         cfg.N,
		Observers: cfg.Observers,
		Latency:   cfg.Latency,
		Seed:      cfg.Seed,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			if int(rep) >= cfg.N {
				if o := w.observers[int(rep)-cfg.N]; o != nil {
					o.onCommit(now, b)
				}
				return
			}
			if n := w.nodes[rep]; n != nil {
				n.onCommit(now, b)
			}
		},
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if int(rep) >= cfg.N {
				if o := w.observers[int(rep)-cfg.N]; o != nil {
					o.onStrength(now, b, x)
				}
				return
			}
			if n := w.nodes[rep]; n != nil {
				n.onStrength(now, b, x)
			}
		},
	})
	return w, nil
}

// Transport returns the fabric slot for replica id, for WithTransport.
func (w *Simnet) Transport(id ReplicaID) Transport {
	return &simTransport{world: w, id: id}
}

// ObserverTransport returns observer slot i (of SimnetConfig.Observers), for
// NewObserver. The attached observer's wire identity is N+i.
func (w *Simnet) ObserverTransport(i int) ObserverTransport {
	return &simObserverTransport{world: w, slot: i}
}

type simObserverTransport struct {
	world *Simnet
	slot  int
}

func (t *simObserverTransport) attachObserver(o *ObserverNode) error {
	w := t.world
	if t.slot < 0 || t.slot >= len(w.observers) {
		return fmt.Errorf("sft: observer slot %d outside simnet with %d observer slots", t.slot, len(w.observers))
	}
	want := ReplicaID(w.cfg.N + t.slot)
	if o.id != want {
		return fmt.Errorf("sft: simnet observer slot %d requires ID %d, node has %d", t.slot, want, o.id)
	}
	if w.observers[t.slot] != nil {
		return fmt.Errorf("sft: simnet observer slot %d already attached", t.slot)
	}
	w.observers[t.slot] = o
	w.sim.SetEngine(want, o.eng)
	return nil
}

// Run advances virtual time until `until` (an absolute virtual timestamp),
// dispatching every event in deterministic order. It may be called
// repeatedly with increasing horizons to interleave observations with the
// run, as the operations example does.
func (w *Simnet) Run(until time.Duration) { w.sim.Run(until) }

// Now returns the current virtual time.
func (w *Simnet) Now() time.Duration { return w.sim.Now() }

// Stats returns the message accounting so far.
func (w *Simnet) Stats() MsgStats { return w.sim.Stats() }

// Events returns the number of simulation events processed so far.
func (w *Simnet) Events() int64 { return w.sim.Events() }

// CrashAt schedules replica id to crash (stop processing events) at virtual
// time at. If the node runs with WithWAL, everything it flushed — which is
// everything, since engines flush per event — survives for RestartAt.
func (w *Simnet) CrashAt(id ReplicaID, at time.Duration) { w.sim.CrashAt(id, at) }

// PartitionAt schedules a network partition at virtual time at: replicas
// within one group keep talking, deliveries crossing groups are dropped at
// send time (in-flight messages still land). Replicas not listed in any
// group form one implicit final group together, so PartitionAt(t, g) splits
// g from the rest. A later partition replaces the current one; HealAt
// restores full connectivity.
func (w *Simnet) PartitionAt(at time.Duration, groups ...[]ReplicaID) {
	w.sim.PartitionAt(at, groups...)
}

// HealAt schedules the current partition (if any) to heal at virtual time
// at.
func (w *Simnet) HealAt(at time.Duration) { w.sim.HealAt(at) }

// PartitionDrops reports how many deliveries scheduled partitions have
// discarded so far.
func (w *Simnet) PartitionDrops() int64 { return w.sim.PartitionDrops() }

// RestartAt schedules a crashed replica to come back at virtual time at,
// rebuilt from its write-ahead log through the same composition path that
// built it: the WAL is replayed, a fresh engine is restored from it (its
// next vote cannot contradict its pre-crash markers), and Init re-joins the
// cluster via state sync. The node must have been built with WithWAL.
// onRestore, if non-nil, observes the recovered state at restart time.
func (w *Simnet) RestartAt(id ReplicaID, at time.Duration, onRestore func(RecoveryInfo)) error {
	if int(id) >= len(w.nodes) || w.nodes[id] == nil {
		return fmt.Errorf("sft: no node attached at slot %d", id)
	}
	n := w.nodes[id]
	if n.walDir == "" {
		return fmt.Errorf("sft: RestartAt(%d) requires the node to run with WithWAL", id)
	}
	w.sim.RestartAt(id, at, func() engine.Engine {
		// Dispatch time: the crashed incarnation's WAL holds its final
		// state, and incarnate replays all of it.
		eng, rec, err := n.incarnate(false)
		if err != nil {
			panic(fmt.Sprintf("sft: restart %d: %v", id, err))
		}
		if onRestore != nil {
			onRestore(recoveryInfo(rec))
		}
		return eng
	})
	return nil
}

// Close closes every attached node (flushing WALs) — call it when the
// simulation is done if nodes hold journals or subscriptions.
func (w *Simnet) Close() error {
	var first error
	for _, n := range w.nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, o := range w.observers {
		if o == nil {
			continue
		}
		if err := o.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type simTransport struct {
	world *Simnet
	id    ReplicaID
}

func (t *simTransport) simulated() bool { return true }

func (t *simTransport) attach(n *Node) error {
	if n.cfg.ID != t.id {
		return fmt.Errorf("sft: simnet slot %d attached to node %d", t.id, n.cfg.ID)
	}
	if int(t.id) >= t.world.cfg.N {
		return fmt.Errorf("sft: slot %d outside simnet of %d", t.id, t.world.cfg.N)
	}
	if n.cfg.N != t.world.cfg.N {
		return fmt.Errorf("sft: node cluster size %d != simnet size %d", n.cfg.N, t.world.cfg.N)
	}
	if t.world.nodes[t.id] != nil {
		return fmt.Errorf("sft: simnet slot %d already attached", t.id)
	}
	t.world.nodes[t.id] = n
	n.world = t.world
	t.world.sim.SetEngine(t.id, n.eng)
	return nil
}
