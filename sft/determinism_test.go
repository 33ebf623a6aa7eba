package sft_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/streamlet"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/sft"
)

// trace records everything observable about a run: the per-replica commit
// sequence, the per-replica strength-event sequence, and the simulator's
// message/event accounting. Two runs with equal traces are bit-identical
// for every purpose the experiments care about.
type trace struct {
	commits  map[types.ReplicaID][]types.BlockID
	strength map[types.ReplicaID][]strengthEvent
	events   int64
	msgs     int64
	bytes    int64
}

type strengthEvent struct {
	id types.BlockID
	x  int
}

func newTrace() *trace {
	return &trace{
		commits:  make(map[types.ReplicaID][]types.BlockID),
		strength: make(map[types.ReplicaID][]strengthEvent),
	}
}

func (tr *trace) equal(t *testing.T, other *trace) {
	t.Helper()
	if tr.events != other.events || tr.msgs != other.msgs || tr.bytes != other.bytes {
		t.Fatalf("accounting diverged: events %d vs %d, msgs %d vs %d, bytes %d vs %d",
			tr.events, other.events, tr.msgs, other.msgs, tr.bytes, other.bytes)
	}
	if len(tr.commits) != len(other.commits) {
		t.Fatalf("commit observers diverged: %d vs %d replicas", len(tr.commits), len(other.commits))
	}
	for rep, chain := range tr.commits {
		o := other.commits[rep]
		if len(chain) != len(o) {
			t.Fatalf("replica %v committed %d vs %d blocks", rep, len(chain), len(o))
		}
		for i := range chain {
			if chain[i] != o[i] {
				t.Fatalf("replica %v commit %d: %v vs %v", rep, i, chain[i], o[i])
			}
		}
	}
	for rep, evs := range tr.strength {
		o := other.strength[rep]
		if len(evs) != len(o) {
			t.Fatalf("replica %v saw %d vs %d strength events", rep, len(evs), len(o))
		}
		for i := range evs {
			if evs[i] != o[i] {
				t.Fatalf("replica %v strength event %d: %+v vs %+v", rep, i, evs[i], o[i])
			}
		}
	}
}

const (
	detN        = 4
	detSeed     = 99
	detDuration = 8 * time.Second
)

func detLatency() *simnet.UniformModel {
	return &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}
}

// runFacade runs a cluster composed entirely through the public facade.
// Extra options apply to every node; the built nodes are returned for tests
// that inspect per-node state after the run.
func runFacade(t *testing.T, eng sft.Engine, extra ...sft.Option) *trace {
	t.Helper()
	tr, _ := runFacadeNodes(t, eng, extra...)
	return tr
}

func runFacadeNodes(t *testing.T, eng sft.Engine, extra ...sft.Option) (*trace, []*sft.Node) {
	t.Helper()
	tr := newTrace()
	world, err := sft.NewSimnet(sft.SimnetConfig{N: detN, Latency: detLatency(), Seed: detSeed})
	if err != nil {
		t.Fatal(err)
	}
	payload := workload.PaperPayload(detSeed, 50, 4096)
	nodes := make([]*sft.Node, detN)
	for i := 0; i < detN; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(eng),
			sft.WithScheme(sft.SchemeSim),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(500 * time.Millisecond),
			sft.WithDelta(25 * time.Millisecond),
			sft.WithPayloadNow(payload),
			sft.WithObserver(func(ev sft.CommitEvent) {
				if ev.Regular {
					tr.commits[id] = append(tr.commits[id], ev.Block.ID())
				} else {
					tr.strength[id] = append(tr.strength[id], strengthEvent{ev.Block.ID(), ev.Strength})
				}
			}),
		}
		opts = append(opts, extra...)
		node, err := sft.New(sft.Config{ID: id, N: detN, Seed: detSeed}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	world.Run(detDuration)
	stats := world.Stats()
	tr.events, tr.msgs, tr.bytes = world.Events(), stats.Count, stats.Bytes
	return tr, nodes
}

// runHandWired runs the equivalent cluster wired by hand against the
// internal packages, the way every consumer did before the facade existed.
func runHandWired(t *testing.T, proto sft.Engine) *trace {
	t.Helper()
	tr := newTrace()
	ring, err := crypto.NewKeyRing(detN, detSeed, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.New(simnet.Config{
		N:       detN,
		Latency: detLatency(),
		Seed:    detSeed,
		OnCommit: func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			tr.commits[rep] = append(tr.commits[rep], b.ID())
		},
		OnStrength: func(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
			tr.strength[rep] = append(tr.strength[rep], strengthEvent{b.ID(), x})
		},
	})
	payload := workload.PaperPayload(detSeed, 50, 4096)
	for i := 0; i < detN; i++ {
		id := types.ReplicaID(i)
		switch proto {
		case sft.Streamlet:
			rep, err := streamlet.New(streamlet.Config{
				Config: replica.Config{
					ID: id, N: detN,
					Signer: ring.Signer(id), Verifier: ring,
					PayloadNow: payload,
				},
				Delta: 25 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.SetEngine(id, rep)
		default:
			rep, err := diembft.New(diembft.Config{
				Config: replica.Config{
					ID: id, N: detN,
					Signer: ring.Signer(id), Verifier: ring,
					PayloadNow: payload,
				},
				RoundTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.SetEngine(id, rep)
		}
	}
	sim.Run(detDuration)
	stats := sim.Stats()
	tr.events, tr.msgs, tr.bytes = sim.Events(), stats.Count, stats.Bytes
	return tr
}

// TestFacadeMatchesHandWiredDiemBFT pins the facade's composition path: a
// fixed-seed simnet run built through sft.New is bit-identical — same
// commit sequences, same strength events, same message and event counts —
// to the equivalent run hand-wired against the internal packages.
func TestFacadeMatchesHandWiredDiemBFT(t *testing.T) {
	facade := runFacade(t, sft.DiemBFT)
	hand := runHandWired(t, sft.DiemBFT)
	facade.equal(t, hand)
	if len(facade.commits[0]) == 0 {
		t.Fatal("run committed nothing; determinism comparison is vacuous")
	}
}

// TestFacadeMatchesHandWiredStreamlet is the Streamlet (height-mode commit
// rule) variant.
func TestFacadeMatchesHandWiredStreamlet(t *testing.T) {
	facade := runFacade(t, sft.Streamlet)
	hand := runHandWired(t, sft.Streamlet)
	facade.equal(t, hand)
	if len(facade.commits[0]) == 0 {
		t.Fatal("run committed nothing; determinism comparison is vacuous")
	}
}
