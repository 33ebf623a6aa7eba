package diembft

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pacemaker"
	"repro/internal/types"
)

// leaderFor elects round's leader: plain round robin, or — with
// LeaderReputationWindow > 0 — reputation rotation scored over the certified
// ancestry ending at the given justify certificate. Proposals ship their own
// justify, so proposer and every validator score identical chains; a replica
// missing part of the ancestry scores a shorter chain and trends toward plain
// rotation, which can only admit extra proposals, never reject honest ones.
func (r *Replica) leaderFor(round types.Round, justify *types.QC) types.ReplicaID {
	if r.cfg.LeaderReputationWindow <= 0 {
		return pacemaker.Leader(round, r.cfg.N)
	}
	var b *types.Block
	if justify != nil {
		b = r.Store().Block(justify.Block)
	}
	return r.leaderForBlock(round, b)
}

// leaderForBlock is leaderFor with the chain tip given as a block (inclusive):
// the voter electing the NEXT round's leader scores the block it is voting
// for, before any QC for it exists.
func (r *Replica) leaderForBlock(round types.Round, b *types.Block) types.ReplicaID {
	w := r.cfg.LeaderReputationWindow
	if w <= 0 {
		return pacemaker.Leader(round, r.cfg.N)
	}
	lo := types.Round(1)
	if round > w {
		lo = round - w
	}
	var chain []pacemaker.ChainInfo
	for ; b != nil && !b.IsGenesis(); b = r.Store().Parent(b.ID()) {
		chain = append(chain, pacemaker.ChainInfo{Round: b.Round, Proposer: b.Proposer})
		if b.Round < lo {
			break
		}
	}
	return pacemaker.ReputationLeader(round, r.cfg.N, w, chain)
}

func (r *Replica) advanceRound(now time.Duration, round types.Round, viaTimeout bool) {
	if !r.pm.AdvanceTo(round, now, viaTimeout) {
		return
	}
	for rr := range r.recentTCs {
		if rr+2 < round {
			delete(r.recentTCs, rr)
		}
	}
	r.EnterRound(round, viaTimeout)
	r.announceRoundEntry(round)
	r.Outs = append(r.Outs, engine.SetTimer{ID: timerID(round, kindRound), Delay: r.pm.Timeout()})
	r.maybePropose(now)
}

// announceRoundEntry broadcasts the active pacemaker's justified round entry:
// the QC or TC proving this replica legally entered round. Peers validate the
// justification before following (onRoundEntry), so a liar cannot drag the
// cluster into arbitrary future rounds the way naked round numbers could.
func (r *Replica) announceRoundEntry(round types.Round) {
	if !r.pm.Active() {
		return
	}
	e := &types.RoundEntry{Round: round, Sender: r.cfg.ID}
	if r.qchigh != nil && r.qchigh.Round+1 == round {
		e.Justify = r.qchigh
	} else if tc := r.recentTCs[round-1]; tc != nil {
		e.TC = tc
	} else if tc := r.pm.TCFor(round - 1); tc != nil {
		e.TC = tc
	} else {
		return // nothing provable to announce (e.g. recovery catch-up jumps)
	}
	e.Signature = r.cfg.Signer.Sign(e.SigningPayload())
	r.Outs = append(r.Outs, engine.Broadcast{Msg: e})
}

func (r *Replica) onRoundTimer(now time.Duration, round types.Round) {
	if round != r.pm.Round() {
		return // stale timer from an already-advanced round
	}
	r.pm.MarkTimedOut(round)
	r.cfg.Obs.OnLocalTimeout(round)
	t := &types.Timeout{Round: round, HighQC: r.qchigh, HighRound: r.qchigh.Round, Sender: r.cfg.ID}
	t.Signature = r.cfg.Signer.Sign(t.SigningPayload())
	r.Outs = append(r.Outs, engine.Broadcast{Msg: t, SelfDeliver: true})
	// Re-arm so we rebroadcast if the view change itself stalls.
	r.Outs = append(r.Outs, engine.SetTimer{ID: timerID(round, kindRound), Delay: r.pm.Timeout()})
}

// onTimeout is the state stage for a timeout Prevalidate accepted (or this
// replica's own): the stale and exact-window tests, then the pacemaker.
func (r *Replica) onTimeout(now time.Duration, t *types.Timeout) {
	if t.Round < r.pm.Round() {
		// Stale view-change traffic: a timeout for a round we already left
		// cannot complete a useful TC and is dropped, as in DiemBFT. This
		// also means a slow outcast leader's privately formed QC does not
		// ride a late timeout into the rest of the cluster — the behavior
		// behind the paper's 1.7f cap in the asymmetric δ=200ms setting.
		r.cfg.Obs.OnTimeoutRejected(obs.ReasonStale)
		return
	}
	if !r.pm.WithinWindow(t.Round) {
		// Active mode: a timeout claiming a round far beyond ours cannot come
		// from an honest connected peer — they are at most a window ahead,
		// and a genuinely-ahead cluster reaches us through certified chain
		// segments, never through naked future timeouts. Prevalidate drops
		// these against the round snapshot, before any signature math; the
		// snapshot may lag, so the exact test is repeated here.
		r.cfg.Obs.OnTimeoutRejected(obs.ReasonFutureWindow)
		return
	}
	r.processQC(now, t.HighQC, false)
	switch r.pm.OnTimeout(t) {
	case pacemaker.TimeoutQuorum:
		if r.pm.Active() {
			if tc := r.pm.TCFor(t.Round); tc != nil {
				r.recentTCs[t.Round] = tc
			}
		}
		// Timeout certificate complete: enter the next round.
		r.advanceRound(now, t.Round+1, true)
	case pacemaker.TimeoutDroppedCap:
		r.cfg.Obs.OnTimeoutRejected(obs.ReasonPeerCap)
	}
}

// onRoundEntry is the state stage for a round entry Prevalidate accepted:
// under the active pacemaker it carries exactly one verified justification
// for e.Round, so what is left is whether the entry is still ahead of this
// replica and inside its exact future window.
func (r *Replica) onRoundEntry(now time.Duration, e *types.RoundEntry) {
	if !r.pm.Active() {
		return // passive replicas ignore the active protocol's announcements
	}
	if e.Round <= r.pm.Round() {
		r.cfg.Obs.OnRoundEntryRejected(obs.ReasonStale)
		return
	}
	if !r.pm.WithinWindow(e.Round) {
		r.cfg.Obs.OnRoundEntryRejected(obs.ReasonFutureWindow)
		return
	}
	if e.Justify != nil {
		// The QC both justifies the entry and advances our own state
		// (high QC, lock, commit, round) through the regular pipeline.
		r.processQC(now, e.Justify, false)
		return
	}
	r.recentTCs[e.TC.Round] = e.TC
	r.advanceRound(now, e.Round, true)
}
