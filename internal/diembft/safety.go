package diembft

import (
	"time"

	"repro/internal/blockstore"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/types"
)

// --- proposing ---

func (r *Replica) maybePropose(now time.Duration) {
	round := r.pm.Round()
	if r.leaderFor(round, r.qchigh) != r.cfg.ID || r.proposed[round] {
		return
	}
	parent := r.Store().Block(r.qchigh.Height, r.qchigh.Block)
	if parent == nil {
		r.syncHighQC(round)
		return
	}
	// Restore marks own journaled blocks' rounds as proposed, so a restarted
	// leader cannot propose a different block for a round it already used.
	r.proposed[round] = true
	var log []types.StrengthRecord
	if n := len(r.pendingLog); n > 0 {
		if n > r.cfg.MaxCommitLog {
			n = r.cfg.MaxCommitLog
		}
		log = append(log, r.pendingLog[len(r.pendingLog)-n:]...)
		r.pendingLog = r.pendingLog[:0]
	}
	r.Propose(round, parent, r.qchigh, log)
}

// syncHighQC asks one voter of the high QC for the chain up to its block,
// once per round. A leader learns a certificate ahead of its store from
// timeouts — after a heal, the formerly cut replicas do — and no parked
// proposal starts its catch-up, since it is the one to propose. Successive
// rounds ask successive voters, so one that is slow or gone does not stall
// it.
func (r *Replica) syncHighQC(round types.Round) {
	votes := r.qchigh.Votes
	if round <= r.syncRound || len(votes) == 0 {
		return
	}
	r.syncRound = round
	for range votes {
		v := votes[r.syncNext%len(votes)].Voter
		r.syncNext++
		if v != r.cfg.ID {
			r.RequestStateSyncFrom(v)
			return
		}
	}
}

// --- proposal handling ---

// onProposal is the state stage for a proposal Prevalidate accepted (or this
// replica's own): well-formed, from one of the round's candidate leaders, its
// justify verified and certifying its parent.
func (r *Replica) onProposal(now time.Duration, p *types.Proposal) {
	if r.leaderFor(p.Round, p.Block.Justify) != p.Sender {
		return // the election scores the block store, so it is judged here
	}
	if p.Round < r.pm.Round() {
		// Stale proposal for a round we already left (e.g. a slow leader
		// whose round was timed out): reject it outright, as DiemBFT does.
		// Its block can never gather a quorum, and accepting it would leak
		// its never-chained justify QC into the endorsement bookkeeping.
		return
	}
	if !r.Store().Has(p.Block.Height-1, p.Block.Parent) {
		// Parent not yet arrived: let the embedded QC advance our round and
		// high QC so we keep pace, and park the proposal until catch-up
		// installs the ancestry.
		r.noteQC(now, p.Block.Justify)
		r.Park(p)
		return
	}
	r.Accept(p)
}

// onAccepted is the protocol step for a proposal whose block the chassis
// just installed, whether it arrived in order or was parked first.
func (r *Replica) onAccepted(now time.Duration, p *types.Proposal) {
	b := p.Block
	r.processQC(now, b.Justify, true)
	r.maybeVote(now, p)
	// A QC may have been waiting for this block.
	if qc := r.orphanQCs[b.ID()]; qc != nil {
		delete(r.orphanQCs, b.ID())
		r.processQC(now, qc, false)
	}
	// Votes may have arrived before the proposal (we are the next leader).
	r.tryFormQC(now, b)
}

func (r *Replica) maybeVote(now time.Duration, p *types.Proposal) {
	b := p.Block
	round := b.Round
	if round != r.pm.Round() || round <= r.rvote || r.pm.TimedOut(round) {
		return
	}
	parent := r.Store().Block(b.Height-1, b.Parent)
	if parent == nil || parent.Round < r.rlock {
		return
	}
	var v types.Vote
	if r.cfg.VoteMode == VoteIntervals {
		v.HasIntervals = true
		v.Intervals = r.History().Intervals(b, r.cfg.IntervalWindow)
	} else {
		v.Marker = r.History().Marker(b)
	}
	v, cast := r.CastVote(b, v)
	if !cast {
		return
	}
	r.rvote = round
	next := r.leaderAfter(round+1, b.Height, b.ID())
	r.Outs = append(r.Outs, engine.Output{Kind: engine.Send, To: next, Msg: &types.VoteMsg{Vote: v}})
}

// --- vote handling (as next-round leader) ---

func (r *Replica) onVote(now time.Duration, v types.Vote) {
	// Only the next round's leader collects these votes, and who that is
	// depends on the voted block's ancestry. When we do not hold the block
	// yet, collect conservatively: an extra buffered vote set is harmless,
	// while dropping real votes would cost the round.
	if r.Store().Has(v.Height, v.Block) && r.leaderAfter(v.Round+1, v.Height, v.Block) != r.cfg.ID {
		return
	}
	if r.qcFormed[v.Block] {
		// Appendix B baseline: relay late votes to everyone so replicas can
		// keep growing the block's direct-vote quorum. Up to f such relays
		// per round is what makes the baseline quadratic.
		if r.cfg.Rule == replica.RuleFBFT {
			r.onLateVote(v)
		}
		return
	}
	if !r.AddVote(v) {
		return
	}
	if b := r.Store().Block(v.Height, v.Block); b != nil {
		r.tryFormQC(now, b)
	}
}

func (r *Replica) tryFormQC(now time.Duration, b *types.Block) {
	id := b.ID()
	if r.qcFormed[id] || r.Votes[id].Len() < r.cfg.Quorum() {
		return
	}
	wait := r.cfg.ExtraWait
	if r.cfg.ExtraWaitFor != nil {
		wait = r.cfg.ExtraWaitFor(b.Round)
	}
	if wait > 0 {
		if _, pending := r.awaitingExtra[b.Round]; !pending {
			// Figure 8 knob: sit on the quorum for `wait` to catch straggler
			// votes and form a larger, more diverse strong-QC.
			r.awaitingExtra[b.Round] = b
			r.Outs = append(r.Outs, engine.Output{Kind: engine.SetTimer, Timer: timerID(b.Round, kindExtraWait), Delay: wait})
		}
		return
	}
	r.formQC(now, b)
}

func (r *Replica) onExtraWaitTimer(now time.Duration, round types.Round) {
	b, ok := r.awaitingExtra[round]
	if !ok {
		return
	}
	delete(r.awaitingExtra, round)
	if r.Store().Has(b.Height, b.ID()) && !r.qcFormed[b.ID()] {
		r.formQC(now, b)
	}
}

func (r *Replica) formQC(now time.Duration, b *types.Block) {
	qc := r.Certify(b)
	if qc == nil {
		return // the root re-check fell below quorum; the round stays open
	}
	id := b.ID()
	r.qcFormed[id] = true
	if r.cfg.Rule != replica.RuleFBFT {
		delete(r.Votes, id) // FBFT keeps the set to dedupe late votes
	}
	r.cfg.Obs.OnQCFormed(b, now)
	r.processQC(now, qc, false)
	// Forming the QC for round r moves us into round r+1 where we are the
	// leader; processQC already advanced the round and proposed.
}

// onLateVote handles a vote arriving after this leader already formed the
// round's QC (FBFT mode): dedupe, credit locally, and multicast.
func (r *Replica) onLateVote(v types.Vote) {
	if !r.AddVote(v) {
		return
	}
	r.direct.AddVote(&v)
	r.Outs = append(r.Outs, engine.Output{Kind: engine.Broadcast, Msg: &types.ExtraVote{Vote: v, Leader: r.cfg.ID}})
}

// onExtraVote handles a late vote relayed by a round leader (FBFT mode).
func (r *Replica) onExtraVote(m *types.ExtraVote) {
	if r.direct == nil {
		return
	}
	r.direct.AddVote(&m.Vote)
}

// --- QC processing: locking, committing, SFT tracking ---

// noteQC ingests rank information from a QC whose block we may not have:
// advance high-QC and the round, per the synchronization rule.
func (r *Replica) noteQC(now time.Duration, qc *types.QC) {
	if qc == nil {
		return
	}
	if qc.RanksHigher(r.qchigh) {
		r.qchigh = qc
	}
	r.advanceRound(now, qc.Round+1, false)
}

func (r *Replica) processQC(now time.Duration, qc *types.QC, fromChain bool) {
	if qc == nil {
		return
	}
	n, improved, err := r.Store().RegisterQC(qc)
	if err != nil {
		// The block is not here yet: keep the best orphan QC per block for
		// when it arrives.
		if prev := r.orphanQCs[qc.Block]; prev == nil || len(qc.Votes) > len(prev.Votes) {
			r.orphanQCs[qc.Block] = qc
		}
		r.noteQC(now, qc)
		return
	}
	if improved && !fromChain {
		// Standalone certificates (formed locally, carried by timeouts or
		// fetched segments) are journaled once; certificates embedded in an
		// accepted block are already durable via that block's record.
		r.JournalQC(qc)
	}
	if improved {
		r.cfg.Obs.OnQCObserved(n.Block(), now)
	}
	// Locking rule: lock the round of the certified block's parent
	// (2-chain).
	if p := n.Parent(); p != nil && p.Block().Round > r.rlock {
		r.rlock = p.Block().Round
		r.JournalLock(r.rlock)
	}
	if t := r.Tracker(); t != nil {
		t.OnQC(qc)
	}
	if r.direct != nil {
		r.direct.OnQC(qc)
	}
	r.checkCommit(n)
	r.noteQC(now, qc)
	r.maybePrune()
}

// checkCommit applies the 3-chain commit rule: a QC for b2 commits b0 when
// b0, b1, b2 are chained with consecutive rounds.
func (r *Replica) checkCommit(b2 *blockstore.Node) {
	b1 := b2.Parent()
	if b1 == nil || b1.Block().Round+1 != b2.Block().Round {
		return
	}
	b0 := b1.Parent()
	if b0 == nil || b0.Block().Round+1 != b1.Block().Round {
		return
	}
	r.CommitTo(b0.Block())
}

// maybePrune drops everything more than PruneKeep heights below the
// committed height, at every cut and at a cost that follows what the store
// removes: this engine's per-block state forgets those blocks, its per-round
// maps the rounds the floor moved across, so none of them grows with the
// round count.
func (r *Replica) maybePrune() {
	if r.cfg.PruneKeep == 0 || r.CommittedHeight() <= r.cfg.PruneKeep {
		return
	}
	cut := r.CommittedHeight() - r.cfg.PruneKeep
	if cut <= r.Store().PrunedHeight() {
		return
	}
	removed, floor := r.PruneBelow(cut)
	for _, b := range removed {
		delete(r.qcFormed, b.ID())
	}
	if floor > r.floor {
		dropRounds(r.proposed, r.floor, floor)
		dropRounds(r.awaitingExtra, r.floor, floor)
		r.floor = floor
	}
	// The one map whose keys the store never held; it is almost always empty.
	for id, qc := range r.orphanQCs {
		if qc.Height < cut {
			delete(r.orphanQCs, id)
		}
	}
}

// dropRounds deletes the keys in [from, to), or every key below to when the
// map is smaller than that range (the first cut after a restart).
func dropRounds[V any](m map[types.Round]V, from, to types.Round) {
	if uint64(to-from) <= uint64(len(m)) {
		for round := from; round < to; round++ {
			delete(m, round)
		}
		return
	}
	for round := range m {
		if round < to {
			delete(m, round)
		}
	}
}
