// Package adversary is the Byzantine-behavior subsystem: a composable,
// message-level Behavior interface and an engine wrapper that applies a
// chain of behaviors to a replica's outbound traffic. Because behaviors act
// on engine.Output values rather than on engine internals, the same
// implementations corrupt DiemBFT and Streamlet replicas uniformly — leader
// equivocation, vote withholding, conflicting-vote double-signing, marker
// lying, stale-message replay, signature corruption, garbage injection, and
// timing attacks (drop/delay/duplicate) all work against both engines, under
// the deterministic simulator and the real runtimes alike.
//
// The package replaces the former ad-hoc diembft.Misbehavior struct and the
// streamlet WithholdVotes knob. Behaviors are built from serializable Specs
// (see behaviors.go) so the harness's scenario fuzzer can print, replay and
// minimize adversarial scenarios from a seed.
package adversary

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/types"
)

// Config identifies the corrupted replica and seeds its randomness.
type Config struct {
	// ID is the Byzantine replica; N is the cluster size.
	ID types.ReplicaID
	N  int
	// Signer signs fabricated messages (equivocating proposals, double
	// votes, lied markers) with the replica's real key, so they pass
	// verification everywhere — the Byzantine model the paper assumes.
	Signer crypto.Signer
	// Seed drives every random choice the behaviors make. Runs with the
	// same seed (and the same deterministic substrate underneath) replay
	// bit-identically.
	Seed int64
	// Colluders lists the whole Byzantine coalition (including this
	// replica). The paper's adversary is a coordinating coalition, so
	// knowing one's co-conspirators is part of the model; behaviors use it
	// to aim fork halves at honest voters. Optional — behaviors degrade to
	// coalition-blind heuristics without it.
	Colluders []types.ReplicaID
}

// Context is the per-replica state behaviors act through: identity, signing,
// and deterministic randomness.
type Context struct {
	cfg Config
	rng *rand.Rand
}

// ID returns the Byzantine replica's identity.
func (c *Context) ID() types.ReplicaID { return c.cfg.ID }

// N returns the cluster size.
func (c *Context) N() int { return c.cfg.N }

// F returns the design fault bound, (N-1)/3.
func (c *Context) F() int { return (c.cfg.N - 1) / 3 }

// Rand returns the behavior RNG (deterministic per Config.Seed).
func (c *Context) Rand() *rand.Rand { return c.rng }

// Sign signs a payload with the replica's key.
func (c *Context) Sign(payload []byte) []byte { return c.cfg.Signer.Sign(payload) }

// IsColluder reports whether id belongs to the configured coalition (always
// false when membership was not configured).
func (c *Context) IsColluder(id types.ReplicaID) bool {
	for _, b := range c.cfg.Colluders {
		if b == id {
			return true
		}
	}
	return false
}

// Honest returns the replicas outside the coalition, in ID order — empty
// when the coalition membership was not configured.
func (c *Context) Honest() []types.ReplicaID {
	if len(c.cfg.Colluders) == 0 {
		return nil
	}
	byz := make(map[types.ReplicaID]bool, len(c.cfg.Colluders))
	for _, id := range c.cfg.Colluders {
		byz[id] = true
	}
	out := make([]types.ReplicaID, 0, c.cfg.N-len(c.cfg.Colluders))
	for i := 0; i < c.cfg.N; i++ {
		if id := types.ReplicaID(i); !byz[id] {
			out = append(out, id)
		}
	}
	return out
}

// Behavior is one composable Byzantine deviation. Apply receives each
// outbound transmission the (honest) engine produced, an engine.Output of
// kind Send or Broadcast, and emits zero or more replacements of those two
// kinds; emitting the input unchanged is the identity. Behaviors are chained
// in order: what the first emits, the second sees.
//
// A behavior postpones a transmission by raising its Delay (timing attacks);
// the wrapper realizes that with a private timer, so it works on every
// runtime, and no output it returns carries a Delay unless it is a SetTimer.
// Behaviors must never mutate a message in place — engines retain
// references to what they emitted — and instead emit rewritten copies.
type Behavior interface {
	// Name identifies the behavior in specs and logs.
	Name() string
	// Apply transforms one outbound transmission.
	Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output))
}

// InboundObserver is implemented by behaviors that need to watch the
// replica's inbound traffic (e.g. double-voting needs the round's competing
// proposals). Observation is read-only: the message is delivered to the
// wrapped engine unchanged.
type InboundObserver interface {
	ObserveInbound(ctx *Context, now time.Duration, from types.ReplicaID, msg types.Message)
}

// Emitter is implemented by behaviors that inject transmissions of their
// own after an event, independent of what the engine produced — e.g. a
// double-voter signing a conflicting vote when the competing proposal
// arrives after its honest vote already left. Emissions flow through the
// remainder of the behavior chain.
type Emitter interface {
	Emit(ctx *Context, now time.Duration, emit func(engine.Output))
}

// Replica wraps an honest engine and applies a behavior chain to its
// outputs. It implements engine.Engine by delegation, so corrupted replicas
// run under every substrate an honest one does.
type Replica struct {
	inner     engine.Engine
	ctx       Context
	behaviors []Behavior
	observers []InboundObserver

	// delayed holds transmissions postponed by a Delay, keyed by the private
	// (negative) timer ID that releases them. Engine timer IDs pack rounds
	// and are always >= 0, so the spaces cannot collide.
	delayed   map[int][]engine.Output
	nextTimer int

	// outs is the current event's outputs, one array for every event; the
	// inner engine's slice is consumed inside transform and never kept.
	outs []engine.Output
	now  time.Duration
}

// Wrap builds the behavior chain from specs and wraps inner with it. An
// empty spec list returns inner unchanged — honest replicas never pay for
// the subsystem's existence (the zero-allocation guards pin this).
func Wrap(inner engine.Engine, cfg Config, specs []Spec) (engine.Engine, error) {
	if len(specs) == 0 {
		return inner, nil
	}
	behaviors, err := Build(specs)
	if err != nil {
		return nil, err
	}
	return New(inner, cfg, behaviors...), nil
}

// New wraps inner with the behavior chain. With no behaviors the wrapper is
// pure pass-through (but prefer not wrapping at all: honest replicas built
// through sft.New never are, keeping the honest hot path untouched).
func New(inner engine.Engine, cfg Config, behaviors ...Behavior) *Replica {
	r := &Replica{
		inner:     inner,
		ctx:       Context{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5f3759df))},
		behaviors: behaviors,
		delayed:   make(map[int][]engine.Output),
		nextTimer: -1,
	}
	for _, b := range behaviors {
		if o, ok := b.(InboundObserver); ok {
			r.observers = append(r.observers, o)
		}
	}
	return r
}

// Inner exposes the wrapped engine (tests and diagnostics).
func (r *Replica) Inner() engine.Engine { return r.inner }

// Restore delegates journal recovery to the wrapped engine, so a WAL-backed
// Byzantine replica (WithAdversary + WithWAL, or a fuzz scenario combining
// an adversary with a crash/restart plan) recovers exactly like an honest
// one — the behaviors only corrupt what leaves the replica, not its state.
func (r *Replica) Restore(rec *core.Recovery) error {
	type restorer interface {
		Restore(*core.Recovery) error
	}
	if inner, ok := r.inner.(restorer); ok {
		return inner.Restore(rec)
	}
	if rec == nil || rec.Empty() {
		return nil
	}
	return fmt.Errorf("adversary: wrapped engine %T does not support journal restore", r.inner)
}

// ID implements engine.Engine.
func (r *Replica) ID() types.ReplicaID { return r.inner.ID() }

// Init implements engine.Engine.
func (r *Replica) Init(now time.Duration) []engine.Output {
	return r.transform(now, r.inner.Init(now))
}

// OnMessage implements engine.Engine. Behaviors observe the message before
// the inner engine prevalidates it, so they see all inbound traffic.
func (r *Replica) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	r.observe(now, from, msg)
	return r.transform(now, r.inner.OnMessage(now, from, msg))
}

// OnTimer implements engine.Engine. Negative IDs are the wrapper's own
// delayed-transmission timers; everything else belongs to the inner engine.
func (r *Replica) OnTimer(now time.Duration, id int) []engine.Output {
	if id < 0 {
		pending := r.delayed[id]
		delete(r.delayed, id)
		r.outs, r.now = engine.Recycle(r.outs), now
		r.outs = append(r.outs, pending...)
		return r.outs
	}
	return r.transform(now, r.inner.OnTimer(now, id))
}

// Prevalidate implements engine.Engine.
func (r *Replica) Prevalidate(from types.ReplicaID, msg types.Message) error {
	return r.inner.Prevalidate(from, msg)
}

// OnVerifiedMessage implements engine.Engine.
func (r *Replica) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	r.observe(now, from, msg)
	return r.transform(now, r.inner.OnVerifiedMessage(now, from, msg))
}

func (r *Replica) observe(now time.Duration, from types.ReplicaID, msg types.Message) {
	for _, o := range r.observers {
		o.ObserveInbound(&r.ctx, now, from, msg)
	}
}

// transform routes every Send/Broadcast output through the behavior chain;
// timers, commits and strength reports pass through untouched. After the
// engine's outputs, each Emitter behavior gets a chance to inject its own
// transmissions (fed through the rest of the chain).
func (r *Replica) transform(now time.Duration, outs []engine.Output) []engine.Output {
	r.outs, r.now = engine.Recycle(r.outs), now
	for _, out := range outs {
		switch out.Kind {
		case engine.Send, engine.Broadcast:
			r.chain(0, out)
		default:
			r.outs = append(r.outs, out)
		}
	}
	for i, b := range r.behaviors {
		if e, ok := b.(Emitter); ok {
			next := i + 1
			e.Emit(&r.ctx, now, func(o engine.Output) { r.chain(next, o) })
		}
	}
	return r.outs
}

// chain feeds out through behaviors[i:]; emissions of behavior i continue at
// i+1, and whatever survives the whole chain is materialized as outputs.
func (r *Replica) chain(i int, out engine.Output) {
	if out.Msg == nil {
		return
	}
	if i >= len(r.behaviors) {
		r.materialize(out)
		return
	}
	r.behaviors[i].Apply(&r.ctx, r.now, out, func(next engine.Output) { r.chain(i+1, next) })
}

// materialize appends a transmission that left the chain; a postponed one
// is parked, with its Delay cleared, under a fresh private timer instead.
func (r *Replica) materialize(out engine.Output) {
	delay := out.Delay
	out.Delay = 0
	if delay > 0 {
		id := r.nextTimer
		r.nextTimer--
		r.delayed[id] = append(r.delayed[id], out)
		r.outs = append(r.outs, engine.Output{Kind: engine.SetTimer, Timer: id, Delay: delay})
		return
	}
	r.outs = append(r.outs, out)
}
