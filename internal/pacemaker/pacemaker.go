// Package pacemaker implements round synchronization for the DiemBFT
// engine: round-robin leader election, per-round timeout tracking, and
// timeout-certificate (2f+1 timeout messages) aggregation, per the
// synchronization rule of Figure 2.
//
// Two hardening layers sit on top of the passive baseline. A per-peer cap
// bounds how many timeout messages any single sender can keep buffered, so
// timeout-spam cannot grow the collection maps without bound (the cap holds
// in both passive and active modes). Active mode (SetActive) additionally
// enforces a bounded future window — timeouts and round entries beyond
// Round()+window are rejected outright — and forms verifiable timeout
// certificates (types.TC) whose attestations justify round entry the way
// Jolteon-style production pacemakers do.
package pacemaker

import (
	"time"

	"repro/internal/types"
)

// Leader returns the round-robin leader of round r for an n-replica system.
// Rounds start at 1 and replica 0 leads round 1, so within any window of n
// consecutive rounds every replica leads exactly once (the rotation Theorem
// 2's liveness argument relies on).
func Leader(r types.Round, n int) types.ReplicaID {
	if r == 0 {
		return 0
	}
	return types.ReplicaID(uint64(r-1) % uint64(n))
}

// DefaultPerPeerCap bounds how many timeout messages one peer may keep
// buffered across all rounds. Honest replicas have at most a couple of
// in-flight timeouts (their current round, plus briefly the previous one
// during an advance), so a small cap never touches them while turning a
// spammer's unbounded map growth into a constant.
const DefaultPerPeerCap = 8

// DefaultWindow is the active-mode future window: timeouts and round entries
// more than this many rounds ahead of the local round are rejected. Honest
// peers are never this far ahead of a connected replica — a replica that
// genuinely lags recovers through certified chain segments (proposals, state
// sync), not through naked future timeouts.
const DefaultWindow types.Round = 8

// Stats is a snapshot of the pacemaker's timeout-buffer accounting, the
// evidence the harness A/B uses to show bounded memory under spam.
type Stats struct {
	// Buffered is the number of timeout messages currently held.
	Buffered int
	// PeakPerPeer is the high-watermark of any single peer's buffered count.
	PeakPerPeer int
	// Dropped counts timeouts rejected by the per-peer cap.
	Dropped uint64
}

// Pacemaker tracks the current round, which rounds this replica has timed
// out of, and timeout messages collected from peers.
type Pacemaker struct {
	n, f     int
	round    types.Round
	timedOut map[types.Round]bool
	timeouts map[types.Round]map[types.ReplicaID]*types.Timeout
	// baseTimeout is every round's timer. Rounds do not back off: the
	// simulator's links are reliable, so a TC always forms within one
	// timeout, and fixed rounds match the paper's observation that
	// persistently slow leaders stay timed out (the Figure 7b "outcast
	// replicas" at δ=200ms).
	baseTimeout time.Duration

	// perPeer counts buffered timeouts per sender; cap bounds it.
	perPeer     map[types.ReplicaID]int
	cap         int
	peakPerPeer int
	dropped     uint64

	// active mode: bounded future window (DefaultWindow) for timeouts and
	// round entries.
	active bool
}

// New creates a pacemaker starting at round 1.
func New(n, f int, baseTimeout time.Duration) *Pacemaker {
	return &Pacemaker{
		n:           n,
		f:           f,
		round:       1,
		timedOut:    make(map[types.Round]bool),
		timeouts:    make(map[types.Round]map[types.ReplicaID]*types.Timeout),
		baseTimeout: baseTimeout,
		perPeer:     make(map[types.ReplicaID]int),
		cap:         DefaultPerPeerCap,
	}
}

// SetPerPeerCap overrides the per-peer buffered-timeout cap (values < 1 keep
// the default).
func (p *Pacemaker) SetPerPeerCap(cap int) {
	if cap >= 1 {
		p.cap = cap
	}
}

// SetActive switches the pacemaker to active mode: round entries are
// announced and validated, and timeouts beyond Round()+DefaultWindow are
// rejected.
func (p *Pacemaker) SetActive() { p.active = true }

// Active reports whether active mode is on.
func (p *Pacemaker) Active() bool { return p.active }

// WithinWindow reports whether round r is acceptable under the active-mode
// future window. Passive pacemakers accept everything.
func (p *Pacemaker) WithinWindow(r types.Round) bool {
	return !p.active || r <= p.round+DefaultWindow
}

// Round returns the current round.
func (p *Pacemaker) Round() types.Round { return p.round }

// Leader returns the leader of round r.
func (p *Pacemaker) Leader(r types.Round) types.ReplicaID { return Leader(r, p.n) }

// Quorum returns the 2f+1 quorum size.
func (p *Pacemaker) Quorum() int { return 2*p.f + 1 }

// AdvanceTo moves to round r if it is ahead of the current round, returning
// true on an actual advance.
func (p *Pacemaker) AdvanceTo(r types.Round) bool {
	if r <= p.round {
		return false
	}
	p.round = r
	// Garbage-collect stale timeout state.
	for rr, m := range p.timeouts {
		if rr+2 < r {
			for sender := range m {
				p.releasePeer(sender)
			}
			delete(p.timeouts, rr)
		}
	}
	for rr := range p.timedOut {
		if rr+2 < r {
			delete(p.timedOut, rr)
		}
	}
	return true
}

// Timeout returns the timer duration for the current round.
func (p *Pacemaker) Timeout() time.Duration { return p.baseTimeout }

// MarkTimedOut records that this replica stopped voting in round r.
func (p *Pacemaker) MarkTimedOut(r types.Round) { p.timedOut[r] = true }

// TimedOut reports whether this replica timed out of round r.
func (p *Pacemaker) TimedOut(r types.Round) bool { return p.timedOut[r] }

// TimeoutOutcome reports what OnTimeout did with a message.
type TimeoutOutcome int

// OnTimeout outcomes.
const (
	// TimeoutBuffered: recorded, quorum not yet reached.
	TimeoutBuffered TimeoutOutcome = iota
	// TimeoutQuorum: this message completed the 2f+1 certificate.
	TimeoutQuorum
	// TimeoutDuplicate: the sender already has a timeout for this round.
	TimeoutDuplicate
	// TimeoutDroppedCap: rejected — the sender is at its per-peer cap and
	// holds nothing of lower urgency to evict.
	TimeoutDroppedCap
)

// OnTimeout records a peer timeout message, enforcing the per-peer cap. A
// sender at its cap either evicts its own highest-round buffered timeout (if
// the new one is for a lower — more urgent — round) or has the new message
// dropped, so one peer can never hold more than cap entries regardless of
// how many distinct future rounds it claims to have timed out of.
func (p *Pacemaker) OnTimeout(t *types.Timeout) TimeoutOutcome {
	m, ok := p.timeouts[t.Round]
	if !ok {
		m = make(map[types.ReplicaID]*types.Timeout, p.Quorum())
		p.timeouts[t.Round] = m
	}
	if _, dup := m[t.Sender]; dup {
		return TimeoutDuplicate
	}
	if p.perPeer[t.Sender] >= p.cap && !p.evictAbove(t.Sender, t.Round) {
		p.dropped++
		if len(m) == 0 {
			delete(p.timeouts, t.Round)
		}
		return TimeoutDroppedCap
	}
	m[t.Sender] = t
	p.perPeer[t.Sender]++
	if p.perPeer[t.Sender] > p.peakPerPeer {
		p.peakPerPeer = p.perPeer[t.Sender]
	}
	if len(m) == p.Quorum() {
		return TimeoutQuorum
	}
	return TimeoutBuffered
}

// evictAbove removes sender's buffered timeout with the highest round
// strictly above r, reporting whether anything was evicted. Lower rounds are
// the urgent ones (closest to completing a certificate the replica can act
// on), so the far-future claims are the ones a capped peer loses first.
func (p *Pacemaker) evictAbove(sender types.ReplicaID, r types.Round) bool {
	var victim types.Round
	found := false
	for rr, m := range p.timeouts {
		if rr <= r {
			continue
		}
		if _, ok := m[sender]; ok && (!found || rr > victim) {
			victim, found = rr, true
		}
	}
	if !found {
		return false
	}
	m := p.timeouts[victim]
	delete(m, sender)
	if len(m) == 0 {
		delete(p.timeouts, victim)
	}
	p.releasePeer(sender)
	p.dropped++
	return true
}

// releasePeer decrements a sender's buffered count.
func (p *Pacemaker) releasePeer(sender types.ReplicaID) {
	if c := p.perPeer[sender]; c > 1 {
		p.perPeer[sender] = c - 1
	} else {
		delete(p.perPeer, sender)
	}
}

// TimeoutCount returns how many distinct timeout messages are held for r.
func (p *Pacemaker) TimeoutCount(r types.Round) int { return len(p.timeouts[r]) }

// TCFor assembles the timeout certificate for round r from the buffered
// timeouts, or nil if fewer than 2f+1 distinct senders are held. The
// attestations carry each sender's signed (round, high-QC-round) claim, so
// the certificate verifies standalone (crypto.VerifyTC).
func (p *Pacemaker) TCFor(r types.Round) *types.TC {
	m := p.timeouts[r]
	if len(m) < p.Quorum() {
		return nil
	}
	ts := make([]*types.Timeout, 0, len(m))
	for _, t := range m {
		ts = append(ts, t)
	}
	return types.NewTC(r, ts)
}

// Stats returns the timeout-buffer accounting snapshot.
func (p *Pacemaker) Stats() Stats {
	buffered := 0
	for _, m := range p.timeouts {
		buffered += len(m)
	}
	return Stats{Buffered: buffered, PeakPerPeer: p.peakPerPeer, Dropped: p.dropped}
}
