package pacemaker_test

import (
	"testing"
	"time"

	"repro/internal/pacemaker"
	"repro/internal/types"
)

func TestLeaderRoundRobin(t *testing.T) {
	const n = 7
	// Every window of n consecutive rounds elects every replica once.
	seen := make(map[types.ReplicaID]int)
	for r := types.Round(1); r <= n; r++ {
		seen[pacemaker.Leader(r, n)]++
	}
	if len(seen) != n {
		t.Fatalf("window covered %d of %d replicas", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("replica %v led %d times in one window", id, c)
		}
	}
	if pacemaker.Leader(1, n) != 0 {
		t.Error("replica 0 must lead round 1")
	}
	if pacemaker.Leader(n+1, n) != 0 {
		t.Error("rotation must wrap after n rounds")
	}
}

func TestAdvanceTo(t *testing.T) {
	p := pacemaker.New(4, 1, time.Second)
	if p.Round() != 1 {
		t.Fatalf("initial round = %d", p.Round())
	}
	if !p.AdvanceTo(3) || p.Round() != 3 {
		t.Fatal("forward advance failed")
	}
	if p.AdvanceTo(2) || p.Round() != 3 {
		t.Fatal("backward advance accepted")
	}
	if p.AdvanceTo(3) {
		t.Fatal("same-round advance accepted")
	}
}

func mkTimeout(sender types.ReplicaID, r types.Round) *types.Timeout {
	return &types.Timeout{Round: r, Sender: sender}
}

func TestTimeoutCertificate(t *testing.T) {
	p := pacemaker.New(4, 1, time.Second)
	mk := mkTimeout
	if p.OnTimeout(mk(0, 5)) == pacemaker.TimeoutQuorum || p.OnTimeout(mk(1, 5)) == pacemaker.TimeoutQuorum {
		t.Fatal("TC before quorum")
	}
	// Duplicate sender does not advance the count.
	if p.OnTimeout(mk(1, 5)) != pacemaker.TimeoutDuplicate {
		t.Fatal("duplicate timeout not flagged")
	}
	if p.OnTimeout(mk(2, 5)) != pacemaker.TimeoutQuorum {
		t.Fatal("third distinct timeout should complete the 2f+1 TC")
	}
	// Completing again returns buffered (already formed).
	if p.OnTimeout(mk(3, 5)) == pacemaker.TimeoutQuorum {
		t.Fatal("TC completed twice")
	}
	if p.TimeoutCount(5) != 4 {
		t.Fatalf("timeout count = %d", p.TimeoutCount(5))
	}
}

// TestPerPeerCapBoundsSpam is the regression test for the unbounded
// timeout-buffer growth: a single peer spamming timeouts for ever-higher
// future rounds must never hold more than the per-peer cap, no matter how
// long the spam sustains, while the other peers' state stays untouched.
func TestPerPeerCapBoundsSpam(t *testing.T) {
	p := pacemaker.New(4, 1, time.Second)
	const spam = 10000
	for i := 0; i < spam; i++ {
		p.OnTimeout(mkTimeout(3, types.Round(100+i)))
	}
	st := p.Stats()
	if st.Buffered > pacemaker.DefaultPerPeerCap {
		t.Fatalf("buffered %d entries after sustained spam (cap %d)", st.Buffered, pacemaker.DefaultPerPeerCap)
	}
	if st.PeakPerPeer > pacemaker.DefaultPerPeerCap {
		t.Fatalf("peak per-peer %d exceeds cap %d", st.PeakPerPeer, pacemaker.DefaultPerPeerCap)
	}
	if st.Dropped == 0 {
		t.Fatal("cap never dropped anything under spam")
	}
	// A lower (more urgent) round from the capped peer evicts its own
	// highest-round claim rather than being lost.
	if p.OnTimeout(mkTimeout(3, 2)) != pacemaker.TimeoutBuffered {
		t.Fatal("urgent low-round timeout lost to the cap")
	}
	if p.TimeoutCount(2) != 1 {
		t.Fatal("urgent timeout not recorded")
	}
	// Other peers are unaffected and TCs still form.
	if p.OnTimeout(mkTimeout(0, 2)) != pacemaker.TimeoutBuffered {
		t.Fatal("honest peer caught by another peer's cap")
	}
	if p.OnTimeout(mkTimeout(1, 2)) != pacemaker.TimeoutQuorum {
		t.Fatal("TC failed to form at quorum")
	}
	// Advance GC releases per-peer budget.
	p.AdvanceTo(20000)
	if st := p.Stats(); st.Buffered != 0 {
		t.Fatalf("GC left %d entries buffered", st.Buffered)
	}
	if p.OnTimeout(mkTimeout(3, 20001)) != pacemaker.TimeoutBuffered {
		t.Fatal("per-peer budget not released by GC")
	}
}

func TestReputationLeader(t *testing.T) {
	const n = 7
	// No chain or window: plain round robin.
	if got := pacemaker.ReputationLeader(10, n, 0, nil); got != pacemaker.Leader(10, n) {
		t.Fatalf("window 0 leader = %v", got)
	}
	// Contiguous chain (no failures): round robin.
	chain := []pacemaker.ChainInfo{{Round: 9, Proposer: pacemaker.Leader(9, n)}, {Round: 8, Proposer: pacemaker.Leader(8, n)}}
	if got := pacemaker.ReputationLeader(10, n, 14, chain); got != pacemaker.Leader(10, n) {
		t.Fatalf("healthy chain leader = %v, want %v", got, pacemaker.Leader(10, n))
	}
	// A gap covering round 10's round-robin leader skips it: chain jumps from
	// round 6 to round 9, so rounds 7 and 8 failed. Make round 10's default
	// leader the leader of a failed round by choosing r so that Leader(r)
	// equals Leader(7) — that is r = 14 (7 ≡ 14 mod 7).
	gappy := []pacemaker.ChainInfo{
		{Round: 13, Proposer: pacemaker.Leader(13, n)},
		{Round: 12, Proposer: pacemaker.Leader(12, n)},
		{Round: 6, Proposer: pacemaker.Leader(6, n)}, // rounds 7..11 failed
	}
	def := pacemaker.Leader(14, n)
	got := pacemaker.ReputationLeader(14, n, 14, gappy)
	if got == def {
		t.Fatalf("leader of failed round %v not skipped", def)
	}
	if got != pacemaker.Leader(12, n) && got != pacemaker.Leader(13, n) {
		// The replacement must be deterministic and drawn from the rotation.
		t.Logf("replacement leader %v", got)
	}
	// Determinism: same inputs, same answer.
	if again := pacemaker.ReputationLeader(14, n, 14, gappy); again != got {
		t.Fatalf("non-deterministic: %v then %v", got, again)
	}
	// A later certified block by the failed leader restores it.
	restored := append([]pacemaker.ChainInfo{{Round: 15, Proposer: def}}, gappy...)
	if got := pacemaker.ReputationLeader(16, n, 14, restored); got == def != (pacemaker.Leader(16, n) == def) {
		t.Fatalf("success did not restore reputation correctly: got %v", got)
	}
	// All-excluded fallback: every round in the window failed.
	empty := []pacemaker.ChainInfo{{Round: 1, Proposer: 0}}
	if got := pacemaker.ReputationLeader(30, n, 28, empty); got != pacemaker.Leader(30, n) {
		t.Fatalf("all-excluded fallback = %v, want round robin %v", got, pacemaker.Leader(30, n))
	}
}

func TestTimedOutTracking(t *testing.T) {
	p := pacemaker.New(4, 1, time.Second)
	p.MarkTimedOut(1)
	if !p.TimedOut(1) || p.TimedOut(2) {
		t.Fatal("timed-out tracking wrong")
	}
	// Old state is garbage collected on advance.
	p.AdvanceTo(10)
	if p.TimedOut(1) {
		t.Fatal("stale timed-out state survived GC")
	}
}
