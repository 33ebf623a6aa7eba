package health_test

import (
	"testing"

	"repro/internal/health"
	"repro/internal/types"
)

func qcWith(round types.Round, voters ...types.ReplicaID) *types.QC {
	votes := make([]types.Vote, len(voters))
	for i, v := range voters {
		votes[i] = types.Vote{Round: round, Voter: v}
	}
	return &types.QC{Round: round, Votes: votes}
}

func TestStragglerDetection(t *testing.T) {
	m := health.NewMonitor(4, 8)
	// Replica 3 never appears.
	for r := types.Round(1); r <= 10; r++ {
		m.ObserveQC(qcWith(r, 0, 1, 2))
	}
	st := m.Stragglers(0)
	if len(st) != 1 || st[0] != 3 {
		t.Fatalf("stragglers = %v, want [3]", st)
	}
	// Replica 3 shows up (it led a round): no longer a straggler.
	m.ObserveQC(qcWith(11, 0, 1, 2, 3))
	if len(m.Stragglers(0)) != 0 {
		t.Fatalf("stragglers after appearance = %v", m.Stragglers(0))
	}
	// And goes dark again: flagged after the staleness window passes.
	for r := types.Round(12); r <= 24; r++ {
		m.ObserveQC(qcWith(r, 0, 1, 2))
	}
	st = m.Stragglers(8)
	if len(st) != 1 || st[0] != 3 {
		t.Fatalf("re-darkened straggler not flagged: %v", st)
	}
}

func TestDiversityAndMaxLevel(t *testing.T) {
	const f = 1
	m := health.NewMonitor(4, 6)
	for r := types.Round(1); r <= 5; r++ {
		m.ObserveQC(qcWith(r, 0, 1, 2))
	}
	if m.Diversity() != 3 {
		t.Fatalf("diversity = %d", m.Diversity())
	}
	// 3 distinct voters support at most x = 3 - f - 1 = 1 = f.
	if got := m.MaxLevel(f); got != 1 {
		t.Fatalf("max level = %d, want 1", got)
	}
	m.ObserveQC(qcWith(6, 0, 1, 2, 3))
	// 4 distinct voters: x = 4 - 2 = 2 = 2f.
	if got := m.MaxLevel(f); got != 2 {
		t.Fatalf("max level = %d, want 2", got)
	}
}

func TestWindowSlides(t *testing.T) {
	m := health.NewMonitor(4, 4)
	m.ObserveQC(qcWith(1, 0, 1, 2, 3))
	for r := types.Round(10); r <= 16; r++ {
		m.ObserveQC(qcWith(r, 0, 1, 2))
	}
	// Replica 3's appearance at round 1 has slid out of the window.
	if m.Diversity() != 3 {
		t.Fatalf("diversity = %d after window slide", m.Diversity())
	}
	counts := m.AppearanceCounts()
	if counts[3] != 0 {
		t.Fatalf("stale appearance survived: %v", counts)
	}
	if counts[0] == 0 {
		t.Fatalf("active replica lost: %v", counts)
	}
}

func TestSnapshot(t *testing.T) {
	m := health.NewMonitor(4, 8)
	for r := types.Round(1); r <= 9; r++ {
		m.ObserveQC(qcWith(r, 0, 2))
	}
	rep := m.Snapshot()
	if rep.QCsObserved != 9 || rep.LastRound != 9 || rep.Diversity != 2 {
		t.Fatalf("snapshot: %+v", rep)
	}
	if len(rep.Stragglers) != 2 || rep.Stragglers[0] != 1 || rep.Stragglers[1] != 3 {
		t.Fatalf("stragglers: %v", rep.Stragglers)
	}
}

func TestZeroWindowDefaultsToTwoN(t *testing.T) {
	m := health.NewMonitor(10, 0) // default 2n
	m.ObserveQC(qcWith(1, 0))
	if m.Diversity() != 1 {
		t.Fatal("monitor with default window broken")
	}
}
