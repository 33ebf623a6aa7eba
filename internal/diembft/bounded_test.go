package diembft

import (
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wal"
)

// These tests read the engine's bookkeeping maps directly, which is why they
// sit inside the package while the behaviour tests next door do not.

func testCluster(t *testing.T, n, f int, timeout time.Duration, mut func(*Config), simCfg simnet.Config) (*simnet.Sim, []*Replica, *crypto.KeyRing) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 11, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	simCfg.N = n
	if simCfg.Latency == nil {
		simCfg.Latency = &simnet.UniformModel{Base: time.Millisecond}
	}
	sim := simnet.New(simCfg)
	reps := make([]*Replica, n)
	for i := range reps {
		id := types.ReplicaID(i)
		cfg := Config{
			Config: replica.Config{
				ID: id, N: n, Signer: ring.Signer(id), Verifier: ring,
				VerifySignatures: true,
			},
			RoundTimeout: timeout,
		}
		if mut != nil {
			mut(&cfg)
		}
		if reps[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(id, reps[i])
	}
	return sim, reps, ring
}

// TestOrphanSprayBounded: a Byzantine round-1 leader sprays 10,000 validly
// signed round-1 proposals, each extending a different block nobody holds.
// Every honest replica's orphan buffer stays within the chassis bound, and
// once the spray stops the next honest leaders' blocks still commit.
func TestOrphanSprayBounded(t *testing.T) {
	const n, f, byz = 7, 2, types.ReplicaID(0) // replica 0 leads round 1
	const bound = 1024                         // the chassis orphan bound, spelled out so the test pins the number
	commits := make(map[types.ReplicaID]int)
	sim, reps, ring := testCluster(t, n, f, 100*time.Millisecond, nil, simnet.Config{
		Seed:     5,
		OnCommit: func(rep types.ReplicaID, _ time.Duration, _ *types.Block) { commits[rep]++ },
	})
	sim.SetEngine(byz, nil) // the sprayer speaks only through the injected proposals

	for i := 0; i < 10000; i++ {
		// A certificate for a block that does not exist, at round 0 so it
		// outranks nothing and moves nobody's round.
		ghost := types.BlockID{byte(i), byte(i >> 8), 0xff}
		qc := &types.QC{Block: ghost}
		for voter := types.ReplicaID(0); int(voter) < 2*f+1; voter++ {
			v := types.Vote{Block: ghost, Voter: voter}
			v.Signature = ring.Signer(voter).Sign(v.SigningPayload())
			qc.Votes = append(qc.Votes, v)
		}
		b := types.NewBlock(ghost, qc, 1, 1, byz, int64(i), types.Payload{}, nil)
		p := &types.Proposal{Block: b, Round: 1, Sender: byz}
		p.Signature = ring.Signer(byz).Sign(p.SigningPayload())
		for _, rep := range reps[1:] {
			rep.OnMessage(0, byz, p) // outputs are catch-up requests to the sprayer
		}
	}
	for _, rep := range reps[1:] {
		if got := rep.Parked(); got == 0 || got > bound {
			t.Fatalf("replica %d buffers %d orphans after the spray, want 1..%d", rep.ID(), got, bound)
		}
	}
	sim.Run(20 * time.Second)
	for _, rep := range reps[1:] {
		if commits[rep.ID()] == 0 {
			t.Fatalf("replica %d committed nothing after the spray", rep.ID())
		}
		if got := rep.Parked(); got > bound {
			t.Fatalf("replica %d buffers %d orphans", rep.ID(), got)
		}
	}
}

// TestBookkeepingBoundedByPruneKeep: after thousands of rounds the per-block
// and per-round maps hold a constant multiple of PruneKeep entries, not one
// per round.
func TestBookkeepingBoundedByPruneKeep(t *testing.T) {
	const keep = 64
	sim, reps, _ := testCluster(t, 4, 1, time.Second, func(c *Config) {
		c.PruneKeep = keep
		c.ExtraWait = 100 * time.Microsecond // keeps awaitingExtra in play
	}, simnet.Config{Seed: 6})
	sim.Run(15 * time.Second)
	for _, rep := range reps {
		if rep.Round() < 2000 {
			t.Fatalf("replica %d only reached round %d; the bound would be vacuous", rep.ID(), rep.Round())
		}
		total := len(rep.qcFormed) + len(rep.proposed) + len(rep.Votes) + len(rep.awaitingExtra) + len(rep.orphanQCs)
		if total > 4*keep {
			t.Fatalf("replica %d at round %d holds %d map entries (qcFormed %d, proposed %d, votes %d, awaitingExtra %d, orphanQCs %d); want <= %d",
				rep.ID(), rep.Round(), total, len(rep.qcFormed), len(rep.proposed), len(rep.Votes),
				len(rep.awaitingExtra), len(rep.orphanQCs), 4*keep)
		}
		if rep.Store().Len() > 4*keep {
			t.Fatalf("replica %d store holds %d blocks", rep.ID(), rep.Store().Len())
		}
	}
}

// TestJournalFailureCrashStopsBeforeVote pins the error policy for journal
// appends: with the log closed underneath the replica, the event that would
// have voted crash-stops in Take, so the vote never reaches the outputs.
func TestJournalFailureCrashStopsBeforeVote(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{
		Config: replica.Config{
			ID: 1, N: 4, Signer: ring.Signer(1), Verifier: ring,
			VerifySignatures: true, Journal: core.NewJournal(log),
		},
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Init(0)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	p := &types.Proposal{Block: b, Round: 1, Sender: 0}
	p.Signature = ring.Signer(0).Sign(p.SigningPayload())

	var outs []engine.Output
	crashed := func() (stopped bool) {
		defer func() { stopped = recover() != nil }()
		outs = rep.OnMessage(0, 0, p)
		return false
	}()
	if !crashed {
		t.Fatal("event completed although its journal records could not be written")
	}
	if rep.VotedRound() != 1 {
		t.Fatal("the event never reached the vote; the test proves nothing")
	}
	for _, o := range outs {
		if o.Kind == engine.Send {
			if _, isVote := o.Msg.(*types.VoteMsg); isVote {
				t.Fatal("vote released without its journal record")
			}
		}
	}
}

// TestPruneFansOutExactlyRemoved: with forgetting tied to what the store
// removes and no periodic sweep behind it, after thousands of commits over a
// chain with abandoned forks qcFormed holds only blocks the store still
// holds, and the trackers' per-block state, which lives on the store's nodes,
// is gone from every removed block's node and present on the kept ones, in SFT
// and in FBFT mode. The same run shows votes are recorded in increasing round
// order, which VoteHistory.PruneBelow's prefix drop rests on.
func TestPruneFansOutExactlyRemoved(t *testing.T) {
	for _, fbft := range []bool{false, true} {
		// One proposal in eleven reaches a single replica besides its leader:
		// two votes, no certificate, a timeout, and a voted block left on a
		// fork that the next leader's block does not extend.
		starve := func(from, to types.ReplicaID, msg types.Message, _ time.Duration) bool {
			p, ok := msg.(*types.Proposal)
			return ok && p.Round%11 == 5 && to != (from+1)%4
		}
		// Handles taken while the blocks are stored: each committed block's
		// node and, through its parent, the abandoned forks beside it.
		var reps []*Replica
		handles := make([][]*blockstore.Node, 4)
		sim, reps, _ := testCluster(t, 4, 1, 20*time.Millisecond, func(c *Config) {
			c.PruneKeep = 64
			if fbft {
				c.Rule = replica.RuleFBFT
			}
		}, simnet.Config{Seed: 9, Drop: starve, OnCommit: func(id types.ReplicaID, _ time.Duration, b *types.Block) {
			for n := reps[id].Store().Node(b.Height-1, b.Parent).FirstChild(); n != nil; n = n.NextSibling() {
				handles[id] = append(handles[id], n)
			}
		}})
		sim.Run(20 * time.Second)
		for _, rep := range reps {
			if rep.CommittedHeight() < 2000 {
				t.Fatalf("fbft=%v replica %d: committed height %d; too short to mean anything", fbft, rep.ID(), rep.CommittedHeight())
			}
			if len(rep.qcFormed) == 0 {
				t.Errorf("fbft=%v replica %d: qcFormed is empty; the check is vacuous", fbft, rep.ID())
			}
			for id := range rep.qcFormed {
				if !stored(rep.Store(), id) {
					t.Errorf("fbft=%v replica %d: qcFormed keeps %s, which the store dropped", fbft, rep.ID(), id)
				}
			}
			removed, kept := 0, 0
			for _, n := range handles[rep.ID()] {
				if rep.Store().Node(n.Height(), n.Block().ID()) == n {
					if n.Record != nil {
						kept++
					}
					continue
				}
				removed++
				if n.Record != nil || n.Parent() != nil || n.FirstChild() != nil || n.NextSibling() != nil {
					t.Errorf("fbft=%v replica %d: the node of removed %v still carries a record or a link", fbft, rep.ID(), n.Block())
				}
			}
			if removed < 2000 || kept < 64 {
				t.Errorf("fbft=%v replica %d: %d removed nodes and %d kept ones with a record; the check is vacuous", fbft, rep.ID(), removed, kept)
			}
			forks, last := 0, types.Round(0)
			for _, v := range rep.History().Voted() {
				if v.Round <= last {
					t.Fatalf("fbft=%v replica %d: vote for round %d recorded after round %d", fbft, rep.ID(), v.Round, last)
				}
				last = v.Round
				if voted := rep.Store().Node(v.Height, v.ID); voted != nil && voted.Conflicts(rep.Store().Node(rep.CommittedHeight(), rep.LastCommitted())) {
					forks++
				}
			}
			if forks == 0 {
				t.Errorf("fbft=%v replica %d: no voted fork in the window; the run has no forks to forget", fbft, rep.ID())
			}
		}
	}
}

// stored reports whether the store holds a block with this ID at any height,
// by a walk of the whole tree: qcFormed is keyed by ID alone.
func stored(s *blockstore.Store, id types.BlockID) bool {
	for _, b := range s.Snapshot() {
		if b.ID() == id {
			return true
		}
	}
	return false
}
