// Package diembft implements DiemBFT as the paper's Figure 2 gives it
// (propose / vote / lock on 2-chain / commit on 3-chain, timeout-certificate
// pacemaker, leaders rotated by reputation: a leader whose recent slot timed
// out is skipped until it certifies a block again) and its SFT extension of
// Figure 4 (strong-votes carrying markers or interval sets, strong-QCs, the
// strong 3-chain commit rule). Only those protocol rules live here; the
// certified-chain bookkeeping is the embedded internal/replica chassis.
package diembft

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/types"
)

// VoteMode selects the strong-vote flavor.
type VoteMode int

const (
	// VoteMarker attaches the single marker of Section 3.2.
	VoteMarker VoteMode = iota + 1
	// VoteIntervals attaches the generalized interval set of Section 3.4,
	// which strengthens liveness from benign-only (Theorem 2) to Byzantine
	// (Theorem 3).
	VoteIntervals
)

// timer kinds multiplexed into timer IDs.
const (
	kindRound = iota
	kindExtraWait
)

func timerID(r types.Round, kind int) int { return int(r)<<1 | kind }

// Config parameterizes a Replica: the common replica configuration plus
// DiemBFT's own knobs.
type Config struct {
	replica.Config

	// DisableQCCache turns the verified-QC memo off, re-verifying every
	// delivery. Kept for A/B determinism tests and diagnostics.
	DisableQCCache bool

	// VoteMode selects marker (default) or interval strong-votes.
	VoteMode VoteMode
	// IntervalWindow clips interval votes to the last window rounds
	// (0 = unbounded), Section 3.4's size/liveness trade-off.
	IntervalWindow types.Round

	// RoundTimeout is the pacemaker's base timeout.
	RoundTimeout time.Duration
	// ExtraWait makes leaders wait after collecting 2f+1 votes and include
	// any late votes in a larger strong-QC — the Figure 8 trade-off knob.
	ExtraWait time.Duration
	// ExtraWaitFor, if non-nil, overrides ExtraWait per round (the dynamic
	// strategy of Section 4.2).
	ExtraWaitFor func(r types.Round) time.Duration

	// MaxCommitLog bounds the light-client Log entries attached per
	// proposal (Section 5); 0 disables the log.
	MaxCommitLog int

	// PruneKeep, when > 0, prunes state more than PruneKeep heights below
	// the committed height (bounds memory on long runs).
	PruneKeep types.Height

	// PerPeerTimeoutCap bounds how many timeout messages any single peer can
	// keep buffered (0 = the pacemaker default), so timeout-spam cannot
	// exhaust memory.
	PerPeerTimeoutCap int
}

// Replica is one DiemBFT (optionally SFT) replica engine.
type Replica struct {
	*replica.Chassis
	cfg Config
	pm  *pacemaker.Pacemaker

	rvote  types.Round // highest voted round
	rlock  types.Round // highest locked round (2-chain rule)
	qchigh *types.QC   // highest QC seen (block may be momentarily absent)

	// Leader-side collection state: which blocks already have their QC, and
	// blocks waiting out the extra-wait window keyed by round.
	qcFormed      map[types.BlockID]bool
	awaitingExtra map[types.Round]*types.Block

	// orphanQCs keeps the best certificate seen for a block that has not
	// arrived yet.
	orphanQCs map[types.BlockID]*types.QC

	proposed   map[types.Round]bool
	pendingLog []types.StrengthRecord // light-client log accumulator
	// scored is leaderAfter's ancestry buffer, at most window+1 entries.
	scored []pacemaker.ChainInfo
	// floor is the round the per-round maps were last pruned below.
	floor types.Round
	// syncRound is the last round in which this replica, leading it, asked a
	// voter of its high QC for the certified block it lacked; syncNext
	// rotates the voter asked.
	syncRound types.Round
	syncNext  int

	// direct is the Appendix B baseline tracker (replica.RuleFBFT only).
	direct *core.DirectTracker
}

// New creates a replica engine from the configuration.
func New(cfg Config) (*Replica, error) {
	if cfg.Signer == nil {
		return nil, fmt.Errorf("diembft: a signer is required")
	}
	if cfg.RoundTimeout <= 0 {
		return nil, fmt.Errorf("diembft: round timeout must be positive")
	}
	if cfg.VoteMode == 0 {
		cfg.VoteMode = VoteMarker
	}
	r := &Replica{
		cfg:           cfg,
		pm:            pacemaker.New(cfg.F(), cfg.RoundTimeout),
		qcFormed:      make(map[types.BlockID]bool),
		awaitingExtra: make(map[types.Round]*types.Block),
		orphanQCs:     make(map[types.BlockID]*types.QC),
		proposed:      make(map[types.Round]bool),
	}
	var err error
	r.Chassis, err = replica.New(cfg.Config, core.ModeRound, func(b *types.Block, x int) {
		if r.EmitStrength(b, x) && cfg.MaxCommitLog > 0 {
			r.pendingLog = append(r.pendingLog, types.StrengthRecord{
				Block: b.ID(), Height: b.Height, Round: b.Round, X: x,
			})
		}
	}, func(p *types.Proposal) { r.onAccepted(r.Now(), p) })
	if err != nil {
		return nil, err
	}
	if cfg.DisableQCCache {
		r.Certs.DisableCache()
	}
	if cfg.PerPeerTimeoutCap > 0 {
		r.pm.SetPerPeerCap(cfg.PerPeerTimeoutCap)
	}
	r.qchigh = r.Store().HighQC()
	if cfg.Rule == replica.RuleFBFT {
		r.direct = core.NewDirectTracker(r.Store(), cfg.F(), func(b *types.Block, x int) { r.EmitStrength(b, x) })
	}
	return r, nil
}

// Round returns the current pacemaker round.
func (r *Replica) Round() types.Round { return r.pm.Round() }

// PacemakerStats exposes the timeout-buffer accounting snapshot
// (sft.Node.PacemakerStats; the harness proves bounded memory under
// timeout-spam with it).
func (r *Replica) PacemakerStats() pacemaker.Stats { return r.pm.Stats() }

// HighQC returns the highest-ranked certificate the replica has seen.
func (r *Replica) HighQC() *types.QC { return r.qchigh }

// VotedRound returns the highest round this replica voted in.
func (r *Replica) VotedRound() types.Round { return r.rvote }

// LockedRound returns the current 2-chain lock round.
func (r *Replica) LockedRound() types.Round { return r.rlock }

// Restore rebuilds the replica from a journal replay. Call it after New and
// before Init; the restored replica's vote state (highest voted round, lock,
// vote history, and hence every future marker) matches its pre-crash state,
// so its next vote cannot contradict markers it reported before the crash.
// Init on a restored replica additionally broadcasts a state-sync request to
// fetch whatever was certified while it was down.
func (r *Replica) Restore(rec *core.Recovery) error {
	if rec == nil || rec.Empty() {
		return nil
	}
	err := r.Chassis.Restore(rec, func(b *types.Block) {
		if b.Proposer == r.cfg.ID {
			// Own proposal: never propose a different block for this round.
			r.proposed[b.Round] = true
		}
	}, func(qc *types.QC) {
		if r.direct != nil {
			r.direct.OnQC(qc)
		}
	})
	if err != nil {
		return err
	}
	r.rvote = rec.VotedRound()
	r.rlock = rec.Locked
	if rec.HighQC != nil && rec.HighQC.RanksHigher(r.qchigh) {
		r.qchigh = rec.HighQC
	}
	// The restored store may reach below the pre-crash cut (a checkpoint is
	// written once per passed segment, not at every cut): cut it again.
	r.maybePrune()
	return nil
}

// Init implements engine.Engine: enter round 1 — or, on a replica restored
// from its journal, rejoin at the recovered high QC's round and broadcast a
// state-sync request for everything certified while it was down.
func (r *Replica) Init(now time.Duration) []engine.Output {
	r.Begin(now)
	r.EnterRound(r.pm.Round(), false)
	r.Outs = append(r.Outs, engine.Output{Kind: engine.SetTimer, Timer: timerID(1, kindRound), Delay: r.pm.Timeout()})
	if r.Recovered() {
		if r.qchigh.Round > 0 {
			r.advanceRound(now, r.qchigh.Round+1, false)
		}
		r.RequestStateSync()
	}
	r.maybePropose(now)
	return r.Take()
}

// OnMessage implements engine.Engine: Prevalidate, then the state stage.
// Loopback (from is this replica) is the engine's own output and is trusted.
func (r *Replica) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	if from != r.cfg.ID {
		err := r.Prevalidate(from, msg)
		r.cfg.Obs.OnPrevalidate(err != nil)
		if err != nil {
			return nil
		}
	}
	return r.OnVerifiedMessage(now, from, msg)
}

// OnVerifiedMessage implements engine.Engine: the state stage, stateful rules
// only. Only sync segments are verified here, link by link as they install.
func (r *Replica) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	r.Begin(now)
	switch m := msg.(type) {
	case *types.Proposal:
		r.onProposal(now, m)
	case *types.VoteMsg:
		r.onVote(now, m.Vote)
	case *types.Timeout:
		r.onTimeout(now, m)
	case *types.ExtraVote:
		r.onExtraVote(m)
	case *types.StateSyncRequest:
		r.OnStateSyncRequest(m)
	case *types.StateSyncResponse:
		// A fetched segment's certificates take the regular QC path — locks,
		// commits, endorsement tracking and round synchronization catch up as
		// if the blocks had arrived as proposals. The responder's standalone
		// high QC (no block embeds it) is not fromChain, which journals it.
		r.ApplySegment(m, func(qc *types.QC, standalone bool) { r.processQC(now, qc, !standalone) })
		// A leader waiting on its high QC's block may hold it now.
		r.maybePropose(now)
	}
	return r.Take()
}

// OnTimer implements engine.Engine.
func (r *Replica) OnTimer(now time.Duration, id int) []engine.Output {
	r.Begin(now)
	round := types.Round(id >> 1)
	switch id & 1 {
	case kindRound:
		r.onRoundTimer(now, round)
	case kindExtraWait:
		r.onExtraWaitTimer(now, round)
	}
	return r.Take()
}
