// Package compose is the single composition path for building a replica:
// the public sft facade — and through it the experiment harness, the cmds
// and the examples — constructs engines, attaches write-ahead logs, and
// restores crashed replicas through the functions here instead of
// hand-wiring internal/diembft, internal/streamlet and internal/wal. One
// path means one place where defaults, durability attachment and recovery
// semantics live.
package compose

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/streamlet"
	"repro/internal/types"
	"repro/internal/wal"
)

// Protocol selects the consensus engine.
type Protocol int

// Supported protocols.
const (
	DiemBFT Protocol = iota + 1
	Streamlet
)

func (p Protocol) String() string {
	switch p {
	case DiemBFT:
		return "diembft"
	case Streamlet:
		return "streamlet"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Spec is the normalized, engine-agnostic description of one replica. It is
// the union of both engines' knobs; fields that do not apply to the selected
// protocol must be zero (Engine rejects contradictions rather than silently
// ignoring them where the mistake would change protocol semantics).
type Spec struct {
	Protocol Protocol // default DiemBFT

	ID   types.ReplicaID
	N, F int

	// PKI. Signer/Verifier are required; VerifySignatures enables full
	// signature checking.
	Signer           crypto.Signer
	Verifier         crypto.Verifier
	VerifySignatures bool

	// Strengthened fault tolerance (both engines).
	SFT     bool
	Horizon int

	// DiemBFT-only knobs.
	FBFT           bool
	VoteMode       diembft.VoteMode
	IntervalWindow types.Round
	RoundTimeout   time.Duration
	ExtraWait      time.Duration
	ExtraWaitFor   func(r types.Round) time.Duration
	MaxCommitLog   int
	PruneKeep      types.Height
	DisableQCCache bool
	BatchWorkers   int

	// Active pacemaker (DiemBFT-only; see diembft.Config). ActivePacemaker
	// turns on justified round entry and the bounded future window;
	// PerPeerTimeoutCap bounds buffered timeouts per peer in both modes;
	// LeaderReputationWindow > 0 enables leader-reputation rotation.
	ActivePacemaker        bool
	PerPeerTimeoutCap      int
	LeaderReputationWindow types.Round

	// Streamlet-only knobs.
	Delta       time.Duration
	DisableEcho bool

	// Shared.
	Payload func(r types.Round) types.Payload
	// PayloadNow supersedes Payload when non-nil: it also receives the
	// engine's virtual time, which latency-accounting workload generators
	// need (submit→commit measurement).
	PayloadNow func(r types.Round, now time.Duration) types.Payload
	Journal    *core.Journal

	// App, when non-nil, is the execution-layer factory: it is invoked once
	// per engine construction so every incarnation — including a rebuild
	// after a crash — starts from a FRESH state machine and deterministically
	// re-executes the restored chain (reusing an instance across a restart
	// would double-apply). The executor wraps the instance; engines expose it
	// via their AppExecutor accessor.
	App func() app.StateMachine

	// Obs, if non-nil, is the observability sink the engine reports into
	// (see internal/obs). Pure observation: identical specs produce
	// bit-identical runs whether Obs is set or nil.
	Obs *obs.Obs

	// Adversary, when non-empty, makes the replica Byzantine: the honest
	// engine is wrapped with the behavior chain the specs describe (see
	// internal/adversary), uniformly for both protocols. AdversarySeed
	// drives the behaviors' randomness; runs with identical specs and seeds
	// replay bit-identically. AdversaryPeers optionally lists the whole
	// coalition (the paper's adversary coordinates). Honest replicas (the
	// empty chain) are returned unwrapped, so the subsystem costs the
	// honest hot path nothing.
	Adversary      []adversary.Spec
	AdversarySeed  int64
	AdversaryPeers []types.ReplicaID

	// NaiveEndorsements switches the SFT tracker to the UNSAFE marker-free
	// counting of Appendix C — for the scenario fuzzer's weakened-rule
	// canary only (sft.WithReference).
	NaiveEndorsements bool
}

// Engine builds the replica engine the spec describes. It is the one place
// engine construction happens; defaults beyond the engines' own (e.g.
// RoundTimeout, Delta) are the caller's responsibility so that identical
// specs always produce identical engines — the facade's determinism tests
// pin facade-built runs against hand-wired ones through this property.
func Engine(s Spec) (engine.Engine, error) {
	var eng engine.Engine
	var err error
	common := replica.Config{
		ID:                s.ID,
		N:                 s.N,
		F:                 s.F,
		Signer:            s.Signer,
		Verifier:          s.Verifier,
		VerifySignatures:  s.VerifySignatures,
		BatchWorkers:      s.BatchWorkers,
		SFT:               s.SFT,
		Horizon:           s.Horizon,
		NaiveEndorsements: s.NaiveEndorsements,
		Payload:           s.Payload,
		PayloadNow:        s.PayloadNow,
		Journal:           s.Journal,
		Obs:               s.Obs,
	}
	if s.App != nil {
		common.App = app.NewExecutor(s.App())
	}
	switch s.Protocol {
	case Streamlet:
		if s.FBFT || s.VoteMode != 0 {
			return nil, fmt.Errorf("compose: FBFT/VoteMode are DiemBFT-only knobs")
		}
		if s.ActivePacemaker || s.PerPeerTimeoutCap != 0 || s.LeaderReputationWindow != 0 {
			return nil, fmt.Errorf("compose: the active pacemaker is a DiemBFT-only subsystem (Streamlet has no timeouts)")
		}
		eng, err = streamlet.New(streamlet.Config{
			Config:      common,
			Delta:       s.Delta,
			DisableEcho: s.DisableEcho,
		})
	case DiemBFT, 0:
		eng, err = diembft.New(diembft.Config{
			Config:         common,
			DisableQCCache: s.DisableQCCache,
			FBFT:           s.FBFT,
			VoteMode:       s.VoteMode,
			IntervalWindow: s.IntervalWindow,
			RoundTimeout:   s.RoundTimeout,
			ExtraWait:      s.ExtraWait,
			ExtraWaitFor:   s.ExtraWaitFor,
			MaxCommitLog:   s.MaxCommitLog,
			PruneKeep:      s.PruneKeep,

			ActivePacemaker:        s.ActivePacemaker,
			PerPeerTimeoutCap:      s.PerPeerTimeoutCap,
			LeaderReputationWindow: s.LeaderReputationWindow,
		})
	default:
		return nil, fmt.Errorf("compose: unknown protocol %v", s.Protocol)
	}
	if err != nil {
		return nil, err
	}
	// Byzantine replicas: wrap the honest engine with the behavior chain.
	// The empty chain returns eng unchanged.
	return adversary.Wrap(eng, adversary.Config{
		ID: s.ID, N: s.N, F: s.F, Signer: s.Signer,
		Seed: s.AdversarySeed, Colluders: s.AdversaryPeers,
	}, s.Adversary)
}

// Restorer is the journal-replay hook both engines implement.
type Restorer interface {
	Restore(*core.Recovery) error
}

// Restore replays a recovery into a freshly built engine. A nil recovery is
// a no-op; an engine without a Restore hook is an error (the caller asked
// for durability the engine cannot provide).
func Restore(e engine.Engine, rec *core.Recovery) error {
	if rec == nil || rec.Empty() {
		return nil
	}
	r, ok := e.(Restorer)
	if !ok {
		return fmt.Errorf("compose: engine %T does not support journal restore", e)
	}
	return r.Restore(rec)
}

// OpenWAL opens (or creates) the write-ahead log in dir, replays whatever a
// previous incarnation left there, and returns the journal to hand to Spec
// plus the recovered state to Restore into the rebuilt engine. With fsync
// false the log runs in NoSync mode — the setting for simulated crashes,
// where the process survives and page-cache durability models the kill
// faithfully; real deployments pass fsync true. observeFlush, if non-nil,
// sees every flush (see wal.Options.ObserveFlush); the observability layer
// uses it without touching replay or durability semantics.
func OpenWAL(dir string, fsync bool, observeFlush func(d time.Duration, bytes int, synced bool)) (*core.Journal, *core.Recovery, error) {
	l, err := wal.Open(dir, wal.Options{NoSync: !fsync, ObserveFlush: observeFlush})
	if err != nil {
		return nil, nil, err
	}
	rec, err := core.Recover(l)
	if err != nil {
		_ = l.Close()
		return nil, nil, fmt.Errorf("compose: wal replay failed — durable state is unusable: %w", err)
	}
	return core.NewJournal(l), rec, nil
}
