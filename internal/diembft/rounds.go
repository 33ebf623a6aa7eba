package diembft

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pacemaker"
	"repro/internal/types"
)

// leaderFor elects round's leader by reputation rotation scored over the
// certified ancestry ending at the given justify certificate. Proposals ship
// their own justify, so proposer and every validator score identical chains;
// a replica missing part of the ancestry scores a shorter chain and trends
// toward plain rotation, which can only admit extra proposals, never reject
// honest ones.
func (r *Replica) leaderFor(round types.Round, justify *types.QC) types.ReplicaID {
	return r.leaderAfter(round, justify.Height, justify.Block)
}

// leaderAfter is leaderFor with the chain tip given as the block id at
// height h (inclusive): the voter electing the NEXT round's leader scores the
// block it is voting for, before any QC for it exists. The ancestry is walked
// by node into a buffer the replica reuses, so an election allocates nothing.
// Above ReputationWindow replicas no walk can change the answer: the
// round-robin leader's previous slot, round-n, lies below the window, so the
// election never passes it over and the walk is skipped.
func (r *Replica) leaderAfter(round types.Round, h types.Height, id types.BlockID) types.ReplicaID {
	if types.Round(r.cfg.N) > pacemaker.ReputationWindow {
		return pacemaker.Leader(round, r.cfg.N)
	}
	lo := types.Round(1)
	if round > pacemaker.ReputationWindow {
		lo = round - pacemaker.ReputationWindow
	}
	chain := r.scored[:0]
	for n := r.Store().Node(h, id); n != nil && !n.Block().IsGenesis(); n = n.Parent() {
		b := n.Block()
		chain = append(chain, pacemaker.ChainInfo{Round: b.Round, Proposer: b.Proposer})
		if b.Round < lo {
			break
		}
	}
	r.scored = chain
	return pacemaker.ReputationLeader(round, r.cfg.N, pacemaker.ReputationWindow, chain)
}

func (r *Replica) advanceRound(now time.Duration, round types.Round, viaTimeout bool) {
	if !r.pm.AdvanceTo(round) {
		return
	}
	r.EnterRound(round, viaTimeout)
	r.Outs = append(r.Outs, engine.Output{Kind: engine.SetTimer, Timer: timerID(round, kindRound), Delay: r.pm.Timeout()})
	r.maybePropose(now)
}

func (r *Replica) onRoundTimer(now time.Duration, round types.Round) {
	if round != r.pm.Round() {
		return // stale timer from an already-advanced round
	}
	r.pm.MarkTimedOut(round)
	r.cfg.Obs.OnLocalTimeout(round)
	t := &types.Timeout{Round: round, HighQC: r.qchigh, HighRound: r.qchigh.Round, Sender: r.cfg.ID}
	t.Signature = r.cfg.Signer.Sign(t.SigningPayload())
	r.Outs = append(r.Outs, engine.Output{Kind: engine.Broadcast, Msg: t, SelfDeliver: true})
	// Re-arm so we rebroadcast if the view change itself stalls.
	r.Outs = append(r.Outs, engine.Output{Kind: engine.SetTimer, Timer: timerID(round, kindRound), Delay: r.pm.Timeout()})
}

// onTimeout is the state stage for a timeout Prevalidate accepted (or this
// replica's own): the stale test, then the pacemaker.
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
	r.processQC(now, t.HighQC, false)
	switch r.pm.OnTimeout(t) {
	case pacemaker.TimeoutQuorum:
		// Timeout certificate complete: enter the next round.
		r.advanceRound(now, t.Round+1, true)
	case pacemaker.TimeoutDroppedCap:
		r.cfg.Obs.OnTimeoutRejected(obs.ReasonPeerCap)
	}
}
