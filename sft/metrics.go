package sft

import (
	"fmt"
	"sync/atomic"
)

// counters is the atomic counter sink a node reports into; reads go through
// Node.Metrics.
type counters struct {
	commits         atomic.Int64
	strengthUpdates atomic.Int64
	committedHeight atomic.Int64
	maxStrength     atomic.Int64
}

// MetricsSnapshot is a point-in-time read of a node's counters.
type MetricsSnapshot struct {
	// Commits counts regular (f-strong) commits observed.
	Commits int64
	// StrengthUpdates counts strength-level increases observed.
	StrengthUpdates int64
	// CommittedHeight is the highest committed height observed.
	CommittedHeight Height
	// MaxStrength is the highest strength level x observed on any block.
	MaxStrength int
	// Dropped-frame accounting (TCP transport; zero elsewhere): frames that
	// spoofed their sender, broke the wire format, or failed signature /
	// certificate verification before reaching the engine.
	SpoofedFrames, MalformedFrames, VerifyDroppedFrames int64
	// SendDropped counts outbound messages that never left the node: frames
	// that overflowed a peer's bounded send queue (TCP: the peer was
	// unreachable or too slow) plus sends the transport refused outright.
	SendDropped int64
	// The fields below are populated only when the node was built with
	// WithObservability; without it they stay zero.

	// Round is the highest round the engine entered.
	Round Round
	// Timeouts counts local pacemaker round timeouts fired.
	Timeouts int64
	// PrevalidateDrops counts messages dropped by signature prevalidation.
	PrevalidateDrops int64
	// WALFlushes counts write-ahead-log batch flushes.
	WALFlushes int64
	// HealthLive reports whether the Section 5 health monitor is wired (it
	// gates the health fields below and their String() rendering).
	HealthLive bool
	// HealthDiversity is the number of distinct replicas appearing in the
	// health window's QCs — the ceiling on reachable strong-commit levels.
	HealthDiversity int
	// HealthStragglers lists replicas absent from every recent chain QC,
	// the paper's "outcast replicas".
	HealthStragglers []ReplicaID
}

// String renders a snapshot compactly for periodic status logs.
func (m MetricsSnapshot) String() string {
	s := fmt.Sprintf("%d commits, %d strength updates, height %d, max strength %d, dropped %d spoofed / %d malformed / %d failed-verify / %d unsent",
		m.Commits, m.StrengthUpdates, m.CommittedHeight, m.MaxStrength,
		m.SpoofedFrames, m.MalformedFrames, m.VerifyDroppedFrames, m.SendDropped)
	if m.HealthLive {
		s += fmt.Sprintf(", diversity %d, stragglers %v", m.HealthDiversity, m.HealthStragglers)
	}
	return s
}

func (m *counters) onCommit(h Height) {
	m.commits.Add(1)
	for {
		cur := m.committedHeight.Load()
		if int64(h) <= cur || m.committedHeight.CompareAndSwap(cur, int64(h)) {
			return
		}
	}
}

func (m *counters) onStrength(x int) {
	m.strengthUpdates.Add(1)
	for {
		cur := m.maxStrength.Load()
		if int64(x) <= cur || m.maxStrength.CompareAndSwap(cur, int64(x)) {
			return
		}
	}
}

func (m *counters) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Commits:         m.commits.Load(),
		StrengthUpdates: m.strengthUpdates.Load(),
		CommittedHeight: Height(m.committedHeight.Load()),
		MaxStrength:     int(m.maxStrength.Load()),
	}
}
