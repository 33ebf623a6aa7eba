// Package sft is the public face of this repository: one builder API that
// composes everything the internal packages provide — consensus engines,
// the paper's strengthened commit rule, signature schemes, transports and
// durability — into a running replica, plus a subscription API for
// consuming commits the way the paper intends.
//
// The paper's core idea (Strengthened Fault Tolerance, ICDCS 2021) is that
// a commit is not binary: each committed block carries a strength x — the
// number of Byzantine faults the commit tolerates — that starts at f and
// rises toward 2f as the chain extends the block. This package makes that
// knob first-class: CommitRule carries the x-strong threshold a client acts
// on, Node.Commits returns a stream of CommitEvents whose Strength field
// rises over time, and Node.WaitStrength blocks until a specific block is
// safe against the number of faults the caller cares about.
//
// Building a replica:
//
//	node, err := sft.New(sft.Config{ID: 0, N: 4, Seed: 42},
//		sft.WithEngine(sft.DiemBFT),
//		sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: ":7000", Peers: peers})),
//		sft.WithWAL("/var/lib/sft/replica-0"),
//		sft.WithCommitRule(sft.CommitRule{MinStrength: 2}),
//	)
//
// Three transports cover the repository's three execution substrates: TCP
// (real sockets, cmd/sftnode), NewLocalNet (in-process channels), and
// NewSimnet (the deterministic discrete-event simulator the experiments run
// on — attach n nodes, then drive virtual time with Simnet.Run).
//
// The access tier scales the read path past the committee: NewObserver
// composes a non-voting follower that derives the same commit-strength
// stream a replica reports, NewGateway fans proof-carrying strength events
// out to many subscribers, and Subscribe is the client end, re-verifying
// every event's Section 5 proof so a lying gateway is caught rather than
// believed (see access.go).
//
// See doc.go at the repository root for the full option matrix and the
// commit-strength subscription semantics.
package sft

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/streamlet"
	"repro/internal/types"
)

// Version identifies the facade API generation (cmd/sftnode -version).
const Version = "0.6.0"

// Re-exported chain types: the facade's vocabulary is the same as the
// engines', so values flow between the public API and the internal packages
// without conversion.
type (
	// Block is one block of the chain.
	Block = types.Block
	// BlockID is a block's content-derived identifier.
	BlockID = types.BlockID
	// ReplicaID numbers the replicas 0..n-1.
	ReplicaID = types.ReplicaID
	// Round is a protocol round (DiemBFT view / Streamlet epoch).
	Round = types.Round
	// Height is a chain height.
	Height = types.Height
	// Payload is a block's transaction batch.
	Payload = types.Payload
	// Transaction is one client transaction.
	Transaction = types.Transaction
	// QC is a quorum certificate.
	QC = types.QC
	// KeyRing is the cluster PKI: every replica's keys, derived from a seed.
	// It names the committee: its size N and its Scheme.
	KeyRing = crypto.KeyRing
	// LatencyModel computes simulated delivery delays (Simnet transport).
	LatencyModel = simnet.LatencyModel
	// UniformLatency delays every delivery by Base plus uniform Jitter.
	UniformLatency = simnet.UniformModel
	// RegionLatency models geo-distributed regions with per-replica penalties.
	RegionLatency = simnet.RegionModel
	// MsgStats aggregates message counts and bytes for a Simnet run.
	MsgStats = simnet.MsgStats
	// AdversarySpec describes one composable Byzantine behavior for
	// WithAdversary (see internal/adversary for the catalog).
	AdversarySpec = adversary.Spec
	// AdversaryKind names a built-in behavior.
	AdversaryKind = adversary.Kind
	// PacemakerStats is the DiemBFT timeout-buffer accounting
	// (Node.PacemakerStats).
	PacemakerStats = pacemaker.Stats
)

// Built-in adversary behavior kinds, re-exported for WithAdversary. Compose
// them freely; AdversaryKinds lists all of them.
const (
	// AdversaryEquivocate proposes two conflicting blocks per led round.
	AdversaryEquivocate = adversary.Equivocate
	// AdversaryWithhold suppresses the replica's own votes.
	AdversaryWithhold = adversary.Withhold
	// AdversaryDoubleVote signs conflicting votes for competing proposals.
	AdversaryDoubleVote = adversary.DoubleVote
	// AdversaryLieMarkers claims an empty conflict history in strong-votes.
	AdversaryLieMarkers = adversary.LieMarkers
	// AdversaryForkRevive revives off-chain branches from observed votes.
	AdversaryForkRevive = adversary.ForkRevive
	// AdversaryWithholdUncontested starves rounds with a single proposal.
	AdversaryWithholdUncontested = adversary.WithholdUncontested
	// AdversaryCorruptSigs flips signature bytes on outbound messages.
	AdversaryCorruptSigs = adversary.CorruptSigs
	// AdversaryGarbage injects structurally broken messages.
	AdversaryGarbage = adversary.Garbage
	// AdversaryReplayStale rebroadcasts previously seen messages.
	AdversaryReplayStale = adversary.ReplayStale
	// AdversaryDrop discards outbound transmissions with probability P.
	AdversaryDrop = adversary.Drop
	// AdversaryDelay postpones outbound transmissions.
	AdversaryDelay = adversary.Delay
	// AdversaryDuplicate re-sends outbound transmissions with probability P.
	AdversaryDuplicate = adversary.Duplicate
	// AdversaryTimeoutSpam floods peers with validly signed far-future
	// timeouts — the buffer-exhaustion attack the pacemaker's per-peer cap
	// (8 timeouts per peer, always on) bounds.
	AdversaryTimeoutSpam = adversary.TimeoutSpam
	// AdversaryWrongAppHash re-signs the replica's votes over a fabricated
	// execution state root — the state-fork attack execute-before-vote
	// certification exists to catch. Honest leaders drop the mismatching
	// votes when forming QCs, so at t <= f it costs the liar its vote and
	// nothing else (requires WithApp on the honest replicas to matter).
	AdversaryWrongAppHash = adversary.WrongAppHash
)

// AdversaryKinds lists every built-in behavior kind.
var AdversaryKinds = adversary.Kinds

// SymmetricLatency builds the paper's symmetric geo-distributed model: n
// replicas spread over `regions` equal regions, intra-region delay intra,
// inter-region delay delta, uniform jitter.
func SymmetricLatency(n, regions int, intra, delta, jitter time.Duration) *RegionLatency {
	return simnet.NewSymmetricModel(n, regions, intra, delta, jitter)
}

// Scheme selects the signature implementation.
type Scheme string

// Supported signature schemes.
const (
	// SchemeEd25519 is real crypto; the default. Signature verification is
	// always on under it.
	SchemeEd25519 Scheme = crypto.SchemeEd25519
	// SchemeSim is the fast deterministic toy scheme the large simulations
	// use; signature verification defaults to off since all traffic is
	// generated by trusted in-process engines.
	SchemeSim Scheme = crypto.SchemeSim
	// Ed25519Aggregate signs and verifies individual messages exactly like
	// SchemeEd25519 and additionally compacts every formed certificate into
	// the constant-size aggregated form (one 32-byte aggregated signature
	// plus a signer bitmap instead of the per-vote signature vector) — the
	// scheme for 100+-replica committees, where vector certificates dominate
	// both wire bytes and verify CPU. Verification is always on under it.
	Ed25519Aggregate Scheme = crypto.SchemeEd25519Agg
	// SimAggregate is SchemeSim plus compact aggregated certificates, for
	// large deterministic simulations that want the compact wire form
	// without real vote-transit crypto.
	SimAggregate Scheme = crypto.SchemeSimAgg
)

// Engine selects the consensus protocol.
type Engine int

// Supported engines.
const (
	// DiemBFT is the production-HotStuff protocol of the paper's Figure 2
	// with the SFT extension of Figure 4 (round-keyed markers).
	DiemBFT Engine = iota + 1
	// Streamlet is the lock-step protocol of Figure 10 with the
	// SFT-Streamlet extension of Appendix D (height-keyed markers).
	Streamlet
)

func (e Engine) String() string {
	switch e {
	case DiemBFT:
		return "diembft"
	case Streamlet:
		return "streamlet"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// VoteFlavor selects the strong-vote encoding (DiemBFT only).
type VoteFlavor int

// Strong-vote flavors.
const (
	// VoteMarkers attaches the single marker of Section 3.2 (default).
	VoteMarkers VoteFlavor = iota + 1
	// VoteIntervals attaches the generalized interval set of Section 3.4,
	// which strengthens liveness from benign-only (Theorem 2) to Byzantine
	// (Theorem 3).
	VoteIntervals
)

// CommitRule is the paper's strengthened commit rule as a first-class
// value: how strong-votes are encoded, how deep endorsements are walked, and
// the strength threshold x the client acts on. How markers are keyed is the
// engine's: by round under DiemBFT (Section 3.2), by height under Streamlet
// (Appendix D). The zero value means "marker votes, deliver every strength
// level".
type CommitRule struct {
	// Votes selects marker (default) or interval strong-votes. Intervals
	// are DiemBFT-only.
	Votes VoteFlavor
	// IntervalWindow clips interval votes to the last window rounds
	// (0 = unbounded) — Section 3.4's size/liveness trade-off.
	IntervalWindow Round
	// Horizon bounds the endorsement walk depth (0 = unbounded).
	Horizon int
	// MinStrength is the x-strong threshold this node's subscribers act on:
	// CommitEvents below it are not delivered (the regular commit is
	// F-strong, so 0 or F delivers everything). It does not change the
	// protocol — only what the subscription surfaces.
	MinStrength int
}

// Config identifies one replica of an n = 3f+1 cluster.
type Config struct {
	// ID is this replica, in [0, N).
	ID ReplicaID
	// N is the cluster size; must be 3f+1, and must be the size of the
	// WithKeyRing ring if one is given.
	N int
	// Seed derives the cluster's PKI when no WithKeyRing ring is given (all
	// replicas must agree on it; a real deployment would exchange public
	// keys instead) and seeds a Byzantine node's behaviour; under the Simnet
	// transport it seeds nothing else — the simulation seed lives in
	// SimnetConfig.
	Seed int64
}

// F returns the fault tolerance f = (N-1)/3.
func (c Config) F() int { return (c.N - 1) / 3 }

// NewKeyRing derives the cluster PKI from a seed — the same derivation New
// performs internally. Share one ring across in-process nodes via
// WithKeyRing to pay the key-generation cost once.
func NewKeyRing(n int, seed int64, scheme Scheme) (*KeyRing, error) {
	return crypto.NewKeyRing(n, seed, string(scheme))
}

// checkCommittee rejects a committee size that is not 3f+1 with f >= 1.
func checkCommittee(n int) error {
	if n < 4 || (n-1)%3 != 0 {
		return fmt.Errorf("sft: N=%d must be 3f+1 with f >= 1", n)
	}
	return nil
}

// committee reads the committee size from the ring an access-tier
// constructor is given: the ring is required, and it must hold 3f+1 keys.
func committee(ring *KeyRing) (int, error) {
	if ring == nil {
		return 0, fmt.Errorf("sft: a committee key ring is required (sft.NewKeyRing)")
	}
	return ring.N(), checkCommittee(ring.N())
}

// checksSignatures reports whether ring's scheme is real crypto, under
// which every signature is checked; the simulated schemes leave the checks
// to WithReference.
func checksSignatures(ring *KeyRing) bool {
	s := Scheme(ring.Scheme())
	return s == SchemeEd25519 || s == Ed25519Aggregate
}

// resolvePKI turns a node's N and seed, its WithScheme and its WithKeyRing
// into the committee's key ring. A supplied ring names the committee: it must
// hold exactly N keys (KeyRing.Verify is false for a signer outside the ring,
// so a short ring would reject every certificate without ever saying why; a
// long one belongs to another cluster), and its scheme is the one in effect,
// so a WithScheme naming another is an error. Without a ring, the ring is
// derived from the seed under the chosen scheme, ed25519 if none.
func resolvePKI(n int, seed int64, scheme Scheme, ring *KeyRing) (*KeyRing, error) {
	if err := checkCommittee(n); err != nil {
		return nil, err
	}
	if ring == nil {
		if scheme == "" {
			scheme = SchemeEd25519
		}
		return crypto.NewKeyRing(n, seed, string(scheme))
	}
	if ring.N() != n {
		return nil, fmt.Errorf("sft: key ring holds %d keys, cluster has %d replicas", ring.N(), n)
	}
	if scheme != "" && Scheme(ring.Scheme()) != scheme {
		return nil, fmt.Errorf("sft: WithScheme(%s) contradicts the key ring's scheme %s", scheme, ring.Scheme())
	}
	return ring, nil
}

// New composes a replica node from the configuration and options: engine,
// commit rule, signature scheme, transport, durability and metrics all flow
// through this one path. The returned Node is not yet processing events —
// call Run (TCP/LocalNet transports) or drive the Simnet it is attached to.
func New(cfg Config, opts ...Option) (*Node, error) {
	s := defaultSettings()
	for _, opt := range opts {
		opt(&s)
	}
	ring, err := resolvePKI(cfg.N, cfg.Seed, s.scheme, s.ring)
	if err != nil {
		return nil, err
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("sft: ID=%d outside [0, %d)", cfg.ID, cfg.N)
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.transport == nil {
		return nil, fmt.Errorf("sft: a transport is required: WithTransport(sft.TCP(...)), sft.NewLocalNet(n).Transport(id), or sft.NewSimnet(...).Transport(id)")
	}
	rule, err := resolveRule(s.engine, s.rule)
	if err != nil {
		return nil, err
	}
	verify := checksSignatures(ring) || s.ref.VerifySignatures

	n := &Node{
		cfg:  cfg,
		rule: rule,
		feed: feed{
			name:        "node",
			minStrength: rule.MinStrength,
			pruneKeep:   s.pruneKeep,
			callback:    s.observer,
		},
	}
	if s.mempool != nil {
		n.gate = s.mempool.observe
	}

	// Observability: built before the WAL opens so flush latencies of the
	// recovery replay's first appends are already counted, and before the
	// transport attaches so the network and prevalidation layers see it.
	if s.obsEnabled {
		n.obs = obs.New(obs.Options{N: cfg.N, TraceCapacity: s.obsCfg.TraceCapacity})
		n.health = &healthState{mon: health.NewMonitor(cfg.N, types.Round(s.obsCfg.HealthWindow))}
	}

	n.build = s.builder(cfg, ring, verify, rule, n.obs)

	// Durability: open (and replay) the WAL and build the engine over its
	// journal, restoring the recovered state into it. Real transports
	// fsync; the simulator models in-process kills, where page-cache
	// durability is faithful.
	if s.walDir != "" {
		n.walDir = s.walDir
		_, rec, err := n.incarnate(!s.transport.simulated())
		if err != nil {
			return nil, err
		}
		if !rec.Empty() {
			info := recoveryInfo(rec)
			n.restored = &info
		}
	} else if n.eng, err = n.build(nil); err != nil {
		return nil, err
	}

	if err := s.transport.attach(n); err != nil {
		if n.journal != nil {
			n.journal.Close()
		}
		return nil, err
	}
	return n, nil
}

// builder returns the node's engine constructor: one replica.Config wrapped
// in the selected engine's config, a fresh state machine from the WithApp
// factory per call (every incarnation, a rebuild after a crash included,
// re-executes the restored chain from scratch; reusing an instance would
// double-apply), and, for a Byzantine node, the adversary.Wrap shell. The
// journal is the only input that differs between incarnations, so identical
// settings always build identical engines.
func (s *settings) builder(cfg Config, ring *KeyRing, verify bool, rule CommitRule, o *obs.Obs) func(*core.Journal) (engine.Engine, error) {
	common := replica.Config{
		ID:               cfg.ID,
		N:                cfg.N,
		Signer:           ring.Signer(cfg.ID),
		Verifier:         ring,
		VerifySignatures: verify,
		BatchWorkers:     s.batchWorkers(cfg.N),
		Rule:             s.ref.Rule,
		Horizon:          rule.Horizon,
		PayloadNow:       s.payloadNow,
		Obs:              o,
	}
	dcfg := diembft.Config{
		DisableQCCache: s.ref.DisableQCCache,
		IntervalWindow: rule.IntervalWindow,
		RoundTimeout:   s.roundTimeout,
		ExtraWait:      s.extraWait,
		ExtraWaitFor:   s.extraWaitFor,
		MaxCommitLog:   s.maxCommitLog,
		PruneKeep:      s.pruneKeep,
	}
	if s.ref.UncappedTimeouts {
		// An effectively infinite cap is the unhardened buffer, with the
		// pacemaker's Stats accounting still live.
		dcfg.PerPeerTimeoutCap = 1 << 20
	}
	if rule.Votes == VoteIntervals {
		dcfg.VoteMode = diembft.VoteIntervals
	}
	byz := adversary.Config{
		ID: cfg.ID, N: cfg.N, F: cfg.F(), Signer: common.Signer,
		Seed: cfg.Seed*1000003 + int64(cfg.ID), Colluders: s.adversaryPeers,
	}
	return func(j *core.Journal) (engine.Engine, error) {
		c := common
		c.Journal = j
		if s.app != nil {
			c.App = app.NewExecutor(s.app())
		}
		var eng engine.Engine
		var err error
		if s.engine == Streamlet {
			eng, err = streamlet.New(streamlet.Config{Config: c, Delta: s.delta, DisableEcho: s.disableEcho})
		} else {
			d := dcfg
			d.Config = c
			eng, err = diembft.New(d)
		}
		if err != nil {
			return nil, err
		}
		return adversary.Wrap(eng, byz, s.adversary)
	}
}

// incarnate opens the node's write-ahead log and replays it from its newest
// checkpoint, builds an engine over its journal, restores the recovered state
// into it (the store from the checkpoint's floor, an app from its snapshot)
// and points the handle at both — the one path New and a Simnet restart take.
// A restart first closes the crashed incarnation's journal, so the replay
// reads everything it staged and no second handle appends to the log.
func (n *Node) incarnate(fsync bool) (engine.Engine, *core.Recovery, error) {
	n.mu.Lock()
	crashed := n.journal
	n.mu.Unlock()
	if crashed != nil {
		if err := crashed.Close(); err != nil {
			return nil, nil, fmt.Errorf("close the crashed journal: %w", err)
		}
	}
	var flushed func(d time.Duration, bytes int, synced bool)
	if n.obs != nil {
		flushed = n.obs.ObserveWALFlush
	}
	j, rec, err := core.OpenJournal(n.walDir, fsync, flushed)
	if err != nil {
		return nil, nil, err
	}
	eng, err := n.build(j)
	if err == nil && !rec.Empty() {
		// Both engines, and the adversary shell around either, restore.
		err = eng.(interface{ Restore(*core.Recovery) error }).Restore(rec)
	}
	if err != nil {
		_ = j.Close()
		return nil, nil, err
	}
	n.mu.Lock()
	n.eng, n.journal = eng, &journalHandle{j: j}
	n.mu.Unlock()
	return eng, rec, nil
}

// resolveRule applies the rule's defaults and rejects what the engine cannot
// run.
func resolveRule(eng Engine, r CommitRule) (CommitRule, error) {
	if r.Votes == 0 {
		r.Votes = VoteMarkers
	}
	if r.Votes == VoteIntervals && eng != DiemBFT {
		return r, fmt.Errorf("sft: interval strong-votes are DiemBFT-only (Section 3.4)")
	}
	if r.MinStrength < 0 {
		return r, fmt.Errorf("sft: MinStrength must be >= 0")
	}
	return r, nil
}
