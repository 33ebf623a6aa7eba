package sft

import (
	"fmt"
	rt "runtime"
	"time"

	"repro/internal/reference"
)

// Option configures New. Options span every layer; see the package comment
// (and doc.go at the repository root) for the full matrix.
type Option func(*settings)

// settings is the resolved option set. Defaults mirror what the repository's
// commands ran with before the facade existed, so facade-built nodes behave
// identically to the old hand-wired ones.
type settings struct {
	err error

	engine    Engine
	rule      CommitRule
	scheme    Scheme
	ring      *KeyRing
	transport Transport

	walDir string

	// verifyWorkers is WithVerifyPipeline's override of batchWorkers (0 = derive).
	verifyWorkers int

	observer func(CommitEvent)

	adversary      []AdversarySpec
	adversaryPeers []ReplicaID

	obsEnabled bool
	obsCfg     ObsConfig

	payloadNow   func(Round, time.Duration) Payload
	app          func() StateMachine
	mempool      *Mempool
	roundTimeout time.Duration
	extraWait    time.Duration
	extraWaitFor func(Round) time.Duration
	delta        time.Duration
	disableEcho  bool
	maxCommitLog int
	pruneKeep    Height

	ref reference.Arms
}

func defaultSettings() settings {
	return settings{
		engine:       DiemBFT,
		roundTimeout: time.Second,
		delta:        100 * time.Millisecond,
	}
}

func (s *settings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// batchWorkers resolves how many goroutines check one cold certificate's
// signatures. It is derived from where verification runs: TCP prevalidates on
// n-1 concurrent per-peer reader goroutines, so GOMAXPROCS is divided across
// them; a LocalNet node prevalidates on its event loop and a Simnet is
// single-threaded, so both stay on the calling goroutine.
// WithVerifyPipeline overrides the derived value.
func (s *settings) batchWorkers(n int) int {
	if s.verifyWorkers > 0 {
		return s.verifyWorkers
	}
	if _, tcp := s.transport.(*tcpTransport); tcp {
		return max(1, rt.GOMAXPROCS(0)/max(1, n-1))
	}
	return 1
}

// WithEngine selects the consensus protocol: DiemBFT (default) or
// Streamlet.
func WithEngine(e Engine) Option {
	return func(s *settings) {
		if e != DiemBFT && e != Streamlet {
			s.fail(fmt.Errorf("sft: unknown engine %v (want sft.DiemBFT or sft.Streamlet)", e))
			return
		}
		s.engine = e
	}
}

// WithCommitRule sets the strengthened commit rule: strong-vote flavor,
// endorsement horizon, and the x-strong threshold subscriptions act on. The
// zero rule — the default — is marker votes, delivering every strength
// level; the engine keys the markers (by round under DiemBFT, by height
// under Streamlet).
func WithCommitRule(r CommitRule) Option {
	return func(s *settings) { s.rule = r }
}

// WithScheme selects the signature scheme of the ring New derives from
// Config.Seed: SchemeEd25519 (default, real crypto, verification always on),
// SchemeSim (fast deterministic toy scheme, verification off — the setting
// large simulations use), or their aggregating variants Ed25519Aggregate /
// SimAggregate, which additionally compact every formed certificate into the
// constant-size aggregated form (recommended at n ≳ 64, where per-vote
// signature vectors dominate wire bytes and verify CPU). With WithKeyRing
// the ring's own scheme is in effect and WithScheme is not needed; a
// WithScheme that names another scheme than the ring's fails New.
func WithScheme(sc Scheme) Option {
	return func(s *settings) {
		switch sc {
		case SchemeEd25519, SchemeSim, Ed25519Aggregate, SimAggregate:
		default:
			s.fail(fmt.Errorf("sft: unknown scheme %q (want sft.SchemeEd25519, sft.SchemeSim, sft.Ed25519Aggregate or sft.SimAggregate)", sc))
			return
		}
		s.scheme = sc
	}
}

// WithKeyRing shares a pre-derived PKI across in-process nodes so the
// ed25519 key generation for n replicas happens once per cluster instead of
// once per node. The ring names the committee: it must hold Config.N keys,
// and the node signs and verifies under the ring's scheme (KeyRing.Scheme),
// so no WithScheme is needed beside it.
func WithKeyRing(ring *KeyRing) Option {
	return func(s *settings) { s.ring = ring }
}

// WithTransport selects how the node reaches its peers: sft.TCP for real
// sockets, NewLocalNet(...).Transport(id) for in-process channels, or
// NewSimnet(...).Transport(id) for the deterministic simulator. Required.
func WithTransport(t Transport) Option {
	return func(s *settings) { s.transport = t }
}

// WithWAL makes the node durable: every block, own vote, certificate, lock
// and commit its safety depends on is write-ahead-logged to dir (fsynced
// under real transports, page-cache under Simnet) and flushed before the
// event's outputs leave the replica. Creating a node over an existing WAL
// recovers the pre-crash state, re-joins via state sync, and never votes in
// contradiction to its pre-crash markers; Node.Restored reports what was
// recovered. Node.Close (and Run, on the way out) flushes and closes the
// log.
func WithWAL(dir string) Option {
	return func(s *settings) {
		if dir == "" {
			s.fail(fmt.Errorf("sft: WithWAL requires a directory"))
			return
		}
		s.walDir = dir
	}
}

// WithVerifyPipeline overrides how many goroutines batch-check one cold
// certificate's 2f+1 signatures; workers = 0 keeps the derived value
// (GOMAXPROCS divided across the n-1 peer readers under TCP, 1 under LocalNet
// and Simnet). It switches nothing on: every transport prevalidates every
// inbound message exactly once, before the engine's state stage — TCP on its
// per-peer reader goroutines, LocalNet and Simnet inline in OnMessage (see
// doc.go, "Verification"). The verdicts, and so fixed-seed runs, are the same
// at any value.
func WithVerifyPipeline(workers int) Option {
	return func(s *settings) {
		if workers < 0 {
			s.fail(fmt.Errorf("sft: negative pipeline workers"))
			return
		}
		s.verifyWorkers = workers
	}
}

// WithAdversary makes THIS node Byzantine: its honest engine is wrapped
// with the composed behavior chain (equivocation, vote withholding,
// double-signing, marker lying, fork revival, signature corruption, garbage
// injection, replay, drop/delay/duplicate — see the Adversary* kinds).
// Behaviors act at the message level, so they work identically for both
// engines and under every transport. This is an adversarial-TESTING surface:
// use it to subject honest nodes to Byzantine peers in integration tests
// and simulations; see also the harness scenario fuzzer
// (internal/harness.RunFuzz) and `sftbench -experiment adversary`.
func WithAdversary(specs ...AdversarySpec) Option {
	return func(s *settings) {
		if len(specs) == 0 {
			s.fail(fmt.Errorf("sft: WithAdversary requires at least one behavior"))
			return
		}
		for _, spec := range specs {
			if _, err := spec.Build(); err != nil {
				s.fail(fmt.Errorf("sft: %w", err))
				return
			}
		}
		s.adversary = specs
	}
}

// WithAdversaryPeers tells a Byzantine node who its co-conspirators are
// (coalition-aware behaviors like fork revival coordinate through it). The
// paper's adversary is a coordinating coalition, so this knowledge is part
// of the model. Optional; meaningful only together with WithAdversary.
func WithAdversaryPeers(peers ...ReplicaID) Option {
	return func(s *settings) { s.adversaryPeers = peers }
}

// ObsConfig tunes WithObservability. The zero value is a sensible default.
type ObsConfig struct {
	// TraceCapacity bounds the block-lifecycle ring buffer behind /tracez
	// (default 256 blocks; older traces are evicted).
	TraceCapacity int
	// HealthWindow is the sliding window, in rounds, over which QC voter
	// diversity and stragglers are scored (default 2N — two full leader
	// rotations, Theorem 2's argument).
	HealthWindow Round
}

// WithObservability attaches the operator-grade observability sink: a
// metric registry instrumenting every layer (rounds, votes, QCs, commit and
// strength-rise latency histograms per level, WAL flush/fsync, per-peer
// transport frames, prevalidation), a block-lifecycle tracer, and the
// Section 5 health monitor fed from commit-event justify QCs. Read it
// through Node.Obs and Node.Health, or serve it over HTTP with
// obs.NewHandler (cmd/sftnode -obs-addr). Observation is pure — engine
// metrics are timestamped on the engine clock, so a Simnet run produces the
// same consensus trace (bit-identical fingerprint) with or without it.
func WithObservability(cfg ObsConfig) Option {
	return func(s *settings) {
		s.obsEnabled = true
		s.obsCfg = cfg
	}
}

// WithObserver registers a synchronous commit/strength observer. It runs on
// the node's event path — keep it fast, and use Commits() for heavy
// consumers. Events below CommitRule.MinStrength are filtered here too.
func WithObserver(fn func(CommitEvent)) Option {
	return func(s *settings) { s.observer = fn }
}

// WithRoundTimeout sets the pacemaker's base round timeout (DiemBFT;
// default 1s).
func WithRoundTimeout(d time.Duration) Option {
	return func(s *settings) {
		if d <= 0 {
			s.fail(fmt.Errorf("sft: round timeout must be positive"))
			return
		}
		s.roundTimeout = d
	}
}

// WithExtraWait makes leaders sit on a formed quorum for d to fold
// straggler votes into a larger, more diverse strong-QC — the Figure 8
// trade-off knob (regular-commit latency for faster strong commits).
func WithExtraWait(d time.Duration) Option {
	return func(s *settings) { s.extraWait = d }
}

// WithExtraWaitFor is the dynamic per-round variant of WithExtraWait
// (Section 4.2): only rounds the function cares about pay the wait.
func WithExtraWaitFor(fn func(r Round) time.Duration) Option {
	return func(s *settings) { s.extraWaitFor = fn }
}

// WithDelta sets Streamlet's assumed maximum network delay ∆; rounds last
// 2∆ (default 100ms).
func WithDelta(d time.Duration) Option {
	return func(s *settings) {
		if d <= 0 {
			s.fail(fmt.Errorf("sft: delta must be positive"))
			return
		}
		s.delta = d
	}
}

// WithoutEcho disables Streamlet's O(n^3) echo relay (fine on reliable
// links, much cheaper at scale).
func WithoutEcho() Option {
	return func(s *settings) { s.disableEcho = true }
}

// WithCommitLog attaches up to k strong-commit Log entries to each
// proposal, the Section 5 mechanism light clients verify strength from.
func WithCommitLog(k int) Option {
	return func(s *settings) { s.maxCommitLog = k }
}

// WithPruneKeep prunes state more than keep heights below the committed
// height, bounding memory on long runs: the node's own strength window, so
// Strength reads -1 again for a block that far down, and in the DiemBFT
// engine the block tree with the strength state on it, the vote history and
// the per-round maps. Only the DiemBFT engine honours it: the Streamlet
// engine never prunes, and neither does ObserverNode.
func WithPruneKeep(keep Height) Option {
	return func(s *settings) { s.pruneKeep = keep }
}

// WithReference builds the node as one of the reference arms the
// repository's experiments and tests measure the production replica against:
// strengthening off, the FBFT baseline, the Appendix C naive tracker,
// signature checks under a simulated scheme, the certificate cache off, the
// pacemaker's per-peer timeout cap lifted. Its parameter type is declared
// under internal/, so only this module can pass one; the zero value is the
// production node. Calls accumulate: each adds its arms to those of earlier
// calls.
func WithReference(arms reference.Arms) Option {
	return func(s *settings) {
		ref, err := s.ref.With(arms)
		if err != nil {
			s.fail(fmt.Errorf("sft: WithReference: %w", err))
			return
		}
		s.ref = ref
	}
}
