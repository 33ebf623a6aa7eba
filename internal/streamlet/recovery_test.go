package streamlet_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/streamlet"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestStreamletKillRestartRecovers: the SFT-Streamlet engine's durability
// hooks — a replica killed mid-run and restored from its WAL reports the
// same committed prefix and voted history, and a live restart rejoins the
// cluster and keeps committing the same chain as everyone else.
func TestStreamletKillRestartRecovers(t *testing.T) {
	const (
		n      = 4
		f      = 1
		victim = types.ReplicaID(2)
	)
	dir := t.TempDir()
	openJ := func() *core.Journal {
		l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("replica-%d", victim)), wal.Options{NoSync: true})
		if err != nil {
			t.Fatalf("wal: %v", err)
		}
		return core.NewJournal(l)
	}
	ring, err := crypto.NewKeyRing(n, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}

	commits := make(map[types.ReplicaID][]types.BlockID)
	simCfg := simnet.Config{
		Seed: 31,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b.ID())
		},
	}
	sim, replicas := buildCluster(t, n, f, func(id types.ReplicaID, c *streamlet.Config) {
		if id == victim {
			c.Journal = openJ()
		}
	}, simCfg)

	const crashAt, restartAt = 1 * time.Second, 2 * time.Second
	sim.CrashAt(victim, crashAt)
	sim.RestartAt(victim, restartAt, func() engine.Engine {
		j := openJ()
		rec, err := j.Recover()
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		rep, err := streamlet.New(streamlet.Config{
			Config: replica.Config{
				ID: victim, N: n,
				Signer: ring.Signer(victim), Verifier: ring, VerifySignatures: true,
				Journal: j,
			},
			Delta: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if err := rep.Restore(rec); err != nil {
			t.Fatalf("restore: %v", err)
		}
		// The restored state must match the frozen pre-crash engine.
		pre := replicas[victim]
		if rep.CommittedHeight() != pre.CommittedHeight() || rep.LastCommitted() != pre.LastCommitted() {
			t.Errorf("restored commit state h%d/%v, pre-crash h%d/%v",
				rep.CommittedHeight(), rep.LastCommitted(), pre.CommittedHeight(), pre.LastCommitted())
		}
		preVoted, postVoted := pre.History().Voted(), rep.History().Voted()
		if len(preVoted) != len(postVoted) {
			t.Errorf("vote history length %d, pre-crash %d", len(postVoted), len(preVoted))
		}
		// Recorded and replayed in round order, one vote per round.
		for i := 1; i < len(postVoted); i++ {
			if postVoted[i].Round <= postVoted[i-1].Round {
				t.Errorf("vote %d is for round %d, after round %d", i, postVoted[i].Round, postVoted[i-1].Round)
			}
		}
		return rep
	})
	sim.Run(5 * time.Second)

	if len(commits[victim]) == 0 {
		t.Fatal("victim committed nothing")
	}
	// The victim's full commit sequence (pre-crash + post-rejoin) must be a
	// consistent prefix-wise match of an always-up replica's chain.
	ref := commits[0]
	idx := make(map[types.BlockID]int, len(ref))
	for i, id := range ref {
		idx[id] = i
	}
	last := -1
	for _, id := range commits[victim] {
		i, ok := idx[id]
		if !ok {
			t.Fatalf("victim committed %v, which replica 0 never committed", id)
		}
		if i <= last {
			t.Fatalf("victim commit order inverted at %v", id)
		}
		last = i
	}
	// And it must have committed something NEW after the restart (rejoin,
	// not just replay): its last commit should be beyond the chain length
	// possible at crash time.
	if len(commits[victim]) < 3 {
		t.Fatalf("victim only committed %d blocks; rejoin appears dead", len(commits[victim]))
	}
}

// TestForgedJustifyCannotBlockRestart: a round leader's genuinely signed
// proposal whose justify names a block nobody holds is refused at the door,
// so it never reaches the journal, whose replay would fail on it; the
// restart from that journal succeeds and reinstates the honest block.
func TestForgedJustifyCannotBlockRestart(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() (*streamlet.Replica, *core.Journal, *core.Recovery) {
		j, rec, err := core.OpenJournal(dir, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := streamlet.New(streamlet.Config{
			Config: replica.Config{
				ID: 3, N: 4,
				Signer: ring.Signer(3), Verifier: ring, VerifySignatures: true,
				Journal: j,
			},
			Delta: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, j, rec
	}
	g := types.Genesis()
	forged := types.NewBlock(g.ID(), &types.QC{Block: types.BlockID{1}, Round: 7, Height: 1}, 1, 1, 0, 5, types.Payload{}, nil)
	honest := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 6, types.Payload{}, nil)

	rep, j, _ := open()
	rep.Init(0)
	for _, b := range []*types.Block{forged, honest} {
		p := &types.Proposal{Block: b, Round: 1, Sender: 0}
		p.Signature = ring.Signer(0).Sign(p.SigningPayload())
		rep.OnMessage(0, 0, p)
	}
	if rep.Store().Has(forged.Height, forged.ID()) || !rep.Store().Has(honest.Height, honest.ID()) {
		t.Errorf("store holds forged %v, honest %v; want only the honest block",
			rep.Store().Has(forged.Height, forged.ID()), rep.Store().Has(honest.Height, honest.ID()))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, j, rec := open()
	defer j.Close()
	if err := rep.Restore(rec); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !rep.Store().Has(honest.Height, honest.ID()) {
		t.Fatal("restart lost the honest block")
	}
}

// TestForgedJustifyVotesCannotCertifyOnRestart: a round leader's genuinely
// signed proposal on a parent this replica holds but has not certified,
// whose justify names that parent with forged votes, is refused at the door.
// Were it journaled, the restart would register its justify and certify the
// parent on votes nobody cast.
func TestForgedJustifyVotesCannotCertifyOnRestart(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 1, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() (*streamlet.Replica, *core.Journal, *core.Recovery) {
		j, rec, err := core.OpenJournal(dir, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := streamlet.New(streamlet.Config{
			Config: replica.Config{
				ID: 3, N: 4,
				Signer: ring.Signer(3), Verifier: ring, VerifySignatures: true,
				Journal: j,
			},
			Delta: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, j, rec
	}
	propose := func(rep *streamlet.Replica, b *types.Block) {
		p := &types.Proposal{Block: b, Round: b.Round, Sender: b.Proposer}
		p.Signature = ring.Signer(b.Proposer).Sign(p.SigningPayload())
		rep.OnMessage(0, b.Proposer, p)
	}
	g := types.Genesis()
	parent := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 5, types.Payload{}, nil)
	forged := &types.QC{Block: parent.ID(), Round: parent.Round, Height: parent.Height}
	for voter := types.ReplicaID(0); voter < 3; voter++ {
		v := types.Vote{Block: parent.ID(), Round: parent.Round, Height: parent.Height, Voter: voter}
		v.Signature = ring.Signer(1).Sign(v.SigningPayload()) // the leader signs for everyone
		forged.Votes = append(forged.Votes, v)
	}
	child := types.NewBlock(parent.ID(), forged, 2, 2, 1, 6, types.Payload{}, nil)

	rep, j, _ := open()
	rep.Init(0)
	propose(rep, parent)
	propose(rep, child)
	if rep.Store().Node(parent.Height, parent.ID()).QC() != nil {
		t.Fatal("forged justify certified the parent live")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, j, rec := open()
	defer j.Close()
	if err := rep.Restore(rec); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !rep.Store().Has(parent.Height, parent.ID()) {
		t.Fatal("restart lost the parent")
	}
	if rep.Store().Node(parent.Height, parent.ID()).QC() != nil {
		t.Fatal("restart certified the parent from a journaled forged justify")
	}
}
