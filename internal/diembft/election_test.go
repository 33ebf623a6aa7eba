package diembft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/types"
)

// electionReplica is replica 0 of an n-replica committee with an empty store.
func electionReplica(tb testing.TB, n int) *Replica {
	tb.Helper()
	ring, err := crypto.NewKeyRing(n, 1, crypto.SchemeSim)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(Config{
		Config:       replica.Config{ID: 0, N: n, Signer: ring.Signer(0), Verifier: ring},
		RoundTimeout: time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// extend certifies a chain of blocks on top of tip, one per round from round
// on until the chain is height blocks tall, skipping the rounds skip says
// timed out, each proposed by whom proposer names.
func extend(tb testing.TB, r *Replica, tip *types.Block, round types.Round, height types.Height,
	skip func(types.Round) bool, proposer func(types.Round) types.ReplicaID) *types.Block {
	tb.Helper()
	for ; tip.Height < height; round++ {
		if skip(round) {
			continue
		}
		qc := &types.QC{Block: tip.ID(), Round: tip.Round, Height: tip.Height}
		b := types.NewBlock(tip.ID(), qc, round, tip.Height+1, proposer(round), int64(round), types.Payload{}, nil)
		if err := r.Store().Insert(b); err != nil {
			tb.Fatal(err)
		}
		tip = b
	}
	return tip
}

// electionFixture is one replica of an n-replica committee holding a 64-block
// chain in which every third round timed out, so an election walks and
// scores failed slots. Above ReputationWindow replicas the election takes the
// shortcut and walks nothing, as in sim100_fault; at n=7 it walks.
func electionFixture(tb testing.TB, n int) (*Replica, *types.Block) {
	tb.Helper()
	r := electionReplica(tb, n)
	tip := extend(tb, r, r.Store().Genesis(), 1, 64,
		func(round types.Round) bool { return round%3 == 0 },
		func(round types.Round) types.ReplicaID { return pacemaker.Leader(round, n) })
	return r, tip
}

// TestAllocsReputationElection: electing a leader under reputation walks the
// justify ancestry by node into the replica's buffer and scores it without a
// map, so an election allocates nothing once the buffer has its length.
func TestAllocsReputationElection(t *testing.T) {
	r, tip := electionFixture(t, 7)
	next := tip.Round + 1
	if a := testing.AllocsPerRun(200, func() { r.leaderAfter(next, tip.Height, tip.ID()) }); a != 0 {
		t.Errorf("an election allocates %.1f times, want 0", a)
	}
}

// TestElectionShortcutMatchesWalk: on random chains — gaps of up to three
// timed-out rounds, proposers other than the slot's — leaderAfter elects what
// ReputationLeader elects over the whole ancestry, for the next round and for
// rounds further ahead. Above ReputationWindow replicas (n = 10, 13, 31, 100)
// that is the shortcut; at n = 4 and 7 it is the walk, where the chains must
// pass over some round-robin leaders, so a shortcut taken too low is caught.
func TestElectionShortcutMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 7, 10, 13, 31, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			skipped := 0
			for trial := 0; trial < 40; trial++ {
				r := electionReplica(t, n)
				tip := extend(t, r, r.Store().Genesis(), 1, types.Height(1+rng.Intn(3*n)),
					func(types.Round) bool { return rng.Intn(3) == 0 },
					func(round types.Round) types.ReplicaID {
						if rng.Intn(4) == 0 {
							return types.ReplicaID(rng.Intn(n))
						}
						return pacemaker.Leader(round, n)
					})
				var chain []pacemaker.ChainInfo
				for node := r.Store().Node(tip.Height, tip.ID()); !node.Block().IsGenesis(); node = node.Parent() {
					chain = append(chain, pacemaker.ChainInfo{Round: node.Block().Round, Proposer: node.Block().Proposer})
				}
				for ahead := types.Round(1); ahead <= 12; ahead++ {
					round := tip.Round + ahead
					want := pacemaker.ReputationLeader(round, n, pacemaker.ReputationWindow, chain)
					if got := r.leaderAfter(round, tip.Height, tip.ID()); got != want {
						t.Fatalf("round %d over %d blocks: leaderAfter %d, ReputationLeader %d", round, len(chain), got, want)
					}
					if want != pacemaker.Leader(round, n) {
						skipped++
					}
				}
			}
			if n <= int(pacemaker.ReputationWindow) && skipped == 0 {
				t.Errorf("no election passed over its round-robin leader; the comparison is too weak")
			}
		})
	}
}

// BenchmarkReputationElection is one election over a 64-block chain with a
// timed-out round in every three: at n=7 it walks and scores the ancestry,
// at n=100 it takes the shortcut.
func BenchmarkReputationElection(b *testing.B) {
	for _, n := range []int{7, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, tip := electionFixture(b, n)
			next := tip.Round + 1
			b.ReportAllocs()
			for b.Loop() {
				r.leaderAfter(next, tip.Height, tip.ID())
			}
		})
	}
}
