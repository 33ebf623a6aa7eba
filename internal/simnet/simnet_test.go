package simnet_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/types"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// echoEngine replies to every ping with a pong and records receptions.
type echoEngine struct {
	id       types.ReplicaID
	received []string
	timers   []int
}

type ping struct{ Tag string }

func (ping) Type() types.MsgType { return 99 }
func (ping) Size() int           { return 10 }

func (e *echoEngine) ID() types.ReplicaID { return e.id }
func (e *echoEngine) Init(now time.Duration) []engine.Output {
	if e.id == 0 {
		return []engine.Output{
			{Kind: engine.Broadcast, Msg: ping{Tag: "hello"}},
			{Kind: engine.SetTimer, Timer: 7, Delay: 50 * time.Millisecond},
		}
	}
	return nil
}
func (e *echoEngine) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	p := msg.(ping)
	e.received = append(e.received, fmt.Sprintf("%s@%v from %v", p.Tag, now, from))
	if p.Tag == "hello" {
		return []engine.Output{{Kind: engine.Send, To: from, Msg: ping{Tag: "ack"}}}
	}
	return nil
}
func (e *echoEngine) Prevalidate(types.ReplicaID, types.Message) error { return nil }
func (e *echoEngine) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return e.OnMessage(now, from, msg)
}
func (e *echoEngine) OnTimer(now time.Duration, id int) []engine.Output {
	e.timers = append(e.timers, id)
	return nil
}

func build(n int, seed int64, lat simnet.LatencyModel) (*simnet.Sim, []*echoEngine) {
	sim := simnet.New(simnet.Config{N: n, Latency: lat, Seed: seed})
	engines := make([]*echoEngine, n)
	for i := 0; i < n; i++ {
		engines[i] = &echoEngine{id: types.ReplicaID(i)}
		sim.SetEngine(types.ReplicaID(i), engines[i])
	}
	return sim, engines
}

func TestBroadcastAndReply(t *testing.T) {
	lat := &simnet.UniformModel{Base: 10 * time.Millisecond}
	sim, engines := build(4, 1, lat)
	sim.Run(time.Second)

	for i := 1; i < 4; i++ {
		if len(engines[i].received) != 1 {
			t.Fatalf("replica %d received %d messages", i, len(engines[i].received))
		}
	}
	// Replica 0 gets three acks.
	if len(engines[0].received) != 3 {
		t.Fatalf("replica 0 received %d acks", len(engines[0].received))
	}
	if len(engines[0].timers) != 1 || engines[0].timers[0] != 7 {
		t.Fatalf("timer events: %v", engines[0].timers)
	}
	stats := sim.Stats()
	if stats.Count != 6 { // 3 pings + 3 acks
		t.Fatalf("message count = %d, want 6", stats.Count)
	}
	if stats.Bytes != 60 {
		t.Fatalf("bytes = %d, want 60", stats.Bytes)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) string {
		lat := &simnet.UniformModel{Base: 5 * time.Millisecond, Jitter: 5 * time.Millisecond}
		sim, engines := build(5, seed, lat)
		sim.Run(time.Second)
		out := ""
		for _, e := range engines {
			for _, r := range e.received {
				out += r + "\n"
			}
		}
		return out
	}
	if trace(42) != trace(42) {
		t.Error("same seed produced different traces")
	}
	if trace(42) == trace(43) {
		t.Error("different seeds produced identical traces (jitter ignored?)")
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	lat := &simnet.UniformModel{Base: 10 * time.Millisecond}
	sim, engines := build(4, 1, lat)
	sim.CrashAt(2, 5*time.Millisecond) // before the ping arrives
	sim.Run(time.Second)
	if len(engines[2].received) != 0 {
		t.Fatalf("crashed replica received %d messages", len(engines[2].received))
	}
	// Replica 0 gets only two acks now.
	if len(engines[0].received) != 2 {
		t.Fatalf("replica 0 received %d acks, want 2", len(engines[0].received))
	}
}

func TestDropRule(t *testing.T) {
	lat := &simnet.UniformModel{Base: time.Millisecond}
	sim := simnet.New(simnet.Config{
		N: 4, Latency: lat, Seed: 1,
		Drop: func(from, to types.ReplicaID, msg types.Message, now time.Duration) bool {
			return to == 3 // partition replica 3
		},
	})
	engines := make([]*echoEngine, 4)
	for i := 0; i < 4; i++ {
		engines[i] = &echoEngine{id: types.ReplicaID(i)}
		sim.SetEngine(types.ReplicaID(i), engines[i])
	}
	sim.Run(time.Second)
	if len(engines[3].received) != 0 {
		t.Fatal("partitioned replica received messages")
	}
	if len(engines[1].received) != 1 {
		t.Fatal("unpartitioned replica lost messages")
	}
}

func TestRegionModels(t *testing.T) {
	sym := simnet.NewSymmetricModel(100, 3, time.Millisecond, 100*time.Millisecond, 0)
	// Region sizes 34/33/33.
	count := make(map[int]int)
	for _, r := range sym.RegionOf {
		count[r]++
	}
	if count[0] != 34 || count[1] != 33 || count[2] != 33 {
		t.Fatalf("symmetric regions: %v", count)
	}
	rng := newTestRand()
	if d := sym.Delay(0, 1, 0, rng); d != time.Millisecond {
		t.Errorf("intra delay = %v", d)
	}
	if d := sym.Delay(0, 99, 0, rng); d != 100*time.Millisecond {
		t.Errorf("inter delay = %v", d)
	}

	// Straggler penalty applies on both endpoints.
	sym.Penalty = map[types.ReplicaID]time.Duration{5: 40 * time.Millisecond}
	if d := sym.Delay(5, 1, 0, rng); d != 41*time.Millisecond {
		t.Errorf("sender penalty = %v", d)
	}
	if d := sym.Delay(1, 5, 0, rng); d != 41*time.Millisecond {
		t.Errorf("receiver penalty = %v", d)
	}
}
