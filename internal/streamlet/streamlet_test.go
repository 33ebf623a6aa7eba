package streamlet_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/streamlet"
	"repro/internal/types"
)

func buildCluster(t testing.TB, n, f int, cfgMut func(id types.ReplicaID, c *streamlet.Config), simCfg simnet.Config) (*simnet.Sim, []*streamlet.Replica) {
	t.Helper()
	ring, err := crypto.NewKeyRing(n, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatalf("keyring: %v", err)
	}
	simCfg.N = n
	if simCfg.Latency == nil {
		simCfg.Latency = &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}
	}
	sim := simnet.New(simCfg)
	replicas := make([]*streamlet.Replica, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		cfg := streamlet.Config{
			Config: replica.Config{
				ID:               id,
				N:                n,
				F:                f,
				Signer:           ring.Signer(id),
				Verifier:         ring,
				VerifySignatures: true,
			},
			Delta: 20 * time.Millisecond,
		}
		if cfgMut != nil {
			cfgMut(id, &cfg)
		}
		rep, err := streamlet.New(cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		replicas[i] = rep
		sim.SetEngine(id, rep)
	}
	return sim, replicas
}

func TestStreamletCommits(t *testing.T) {
	commits := make(map[types.ReplicaID][]*types.Block)
	simCfg := simnet.Config{
		Seed: 11,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			commits[rep] = append(commits[rep], b)
		},
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	sim.Run(4 * time.Second)

	if len(commits) != 4 {
		t.Fatalf("only %d replicas committed", len(commits))
	}
	ref := commits[0]
	if len(ref) < 10 {
		t.Fatalf("too few commits: %d", len(ref))
	}
	for id := types.ReplicaID(1); id < 4; id++ {
		other := commits[id]
		for i := 0; i < min(len(ref), len(other)); i++ {
			if ref[i].ID() != other[i].ID() {
				t.Fatalf("divergent commit at %d: %v vs %v", i, ref[i], other[i])
			}
		}
	}
	t.Logf("streamlet committed %d blocks", len(ref))
}

func TestStreamletStrengthGrows(t *testing.T) {
	best := make(map[types.BlockID]int)
	simCfg := simnet.Config{
		Seed: 12,
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			if rep == 0 && x > best[b.ID()] {
				best[b.ID()] = x
			}
		},
	}
	sim, _ := buildCluster(t, 4, 1, nil, simCfg)
	sim.Run(4 * time.Second)

	reached := 0
	for _, x := range best {
		if x == 2 { // 2f with f=1
			reached++
		}
	}
	if reached < 5 {
		t.Fatalf("only %d blocks reached 2f-strong (tracked %d)", reached, len(best))
	}
}

func TestStreamletEchoDisabled(t *testing.T) {
	var committed int
	simCfg := simnet.Config{
		Seed: 13,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			if rep == 2 {
				committed++
			}
		},
	}
	sim, _ := buildCluster(t, 7, 2, func(id types.ReplicaID, c *streamlet.Config) {
		c.DisableEcho = true
	}, simCfg)
	sim.Run(4 * time.Second)
	if committed < 10 {
		t.Fatalf("echo-less cluster committed only %d blocks", committed)
	}
}

// TestNewRejectsFBFT: the Appendix B baseline is a DiemBFT rule (leaders
// relay late votes); a Streamlet replica asked for it fails construction
// instead of running some other rule.
func TestNewRejectsFBFT(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamlet.Config{
		Config: replica.Config{ID: 0, N: 4, F: 1, Signer: ring.Signer(0), Verifier: ring, Rule: replica.RuleFBFT},
		Delta:  20 * time.Millisecond,
	}
	if _, err := streamlet.New(cfg); err == nil {
		t.Fatal("streamlet built with the FBFT rule")
	}
	cfg.Rule = replica.RulePlain
	if _, err := streamlet.New(cfg); err != nil {
		t.Fatalf("plain streamlet: %v", err)
	}
}

// TestNewRejectsNoSigner: a Streamlet replica signs its votes and proposals,
// so it needs a signer; the chassis alone asks only for a verifier.
func TestNewRejectsNoSigner(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 7, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamlet.Config{
		Config: replica.Config{ID: 0, N: 4, F: 1, Verifier: ring},
		Delta:  20 * time.Millisecond,
	}
	if _, err := streamlet.New(cfg); err == nil {
		t.Fatal("streamlet built without a signer")
	}
}
