package simnet_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/types"
)

// chainEngine forwards a token around the ring, recording hop times; used
// to property-test event ordering.
type chainEngine struct {
	id   types.ReplicaID
	n    int
	hops *[]time.Duration
}

func (e *chainEngine) ID() types.ReplicaID { return e.id }
func (e *chainEngine) Init(now time.Duration) []engine.Output {
	if e.id == 0 {
		return []engine.Output{{Kind: engine.Send, To: 1, Msg: ping{Tag: "token"}}}
	}
	return nil
}
func (e *chainEngine) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	*e.hops = append(*e.hops, now)
	if len(*e.hops) >= 50 {
		return nil
	}
	next := types.ReplicaID((int(e.id) + 1) % e.n)
	return []engine.Output{{Kind: engine.Send, To: next, Msg: msg}}
}
func (e *chainEngine) Prevalidate(types.ReplicaID, types.Message) error { return nil }
func (e *chainEngine) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return e.OnMessage(now, from, msg)
}
func (e *chainEngine) OnTimer(time.Duration, int) []engine.Output { return nil }

// TestEventTimeMonotonicity: virtual time observed by engines never goes
// backwards, and delays accumulate per the latency model.
func TestEventTimeMonotonicity(t *testing.T) {
	const n = 5
	var hops []time.Duration
	sim := simnet.New(simnet.Config{
		N:       n,
		Latency: &simnet.UniformModel{Base: 3 * time.Millisecond, Jitter: 2 * time.Millisecond},
		Seed:    9,
	})
	for i := 0; i < n; i++ {
		sim.SetEngine(types.ReplicaID(i), &chainEngine{id: types.ReplicaID(i), n: n, hops: &hops})
	}
	sim.Run(10 * time.Second)

	if len(hops) < 50 {
		t.Fatalf("token made only %d hops", len(hops))
	}
	for i := 1; i < len(hops); i++ {
		if hops[i] < hops[i-1] {
			t.Fatalf("time went backwards at hop %d: %v < %v", i, hops[i], hops[i-1])
		}
		gap := hops[i] - hops[i-1]
		if gap < 3*time.Millisecond || gap > 5*time.Millisecond {
			t.Fatalf("hop %d gap %v outside [base, base+jitter]", i, gap)
		}
	}
}

// TestRunBoundary: events beyond the `until` horizon are not dispatched and
// the clock parks exactly at the horizon.
func TestRunBoundary(t *testing.T) {
	var hops []time.Duration
	sim := simnet.New(simnet.Config{
		N:       2,
		Latency: &simnet.UniformModel{Base: 30 * time.Millisecond},
		Seed:    1,
	})
	sim.SetEngine(0, &chainEngine{id: 0, n: 2, hops: &hops})
	sim.SetEngine(1, &chainEngine{id: 1, n: 2, hops: &hops})
	sim.Run(100 * time.Millisecond)
	if sim.Now() != 100*time.Millisecond {
		t.Fatalf("clock = %v", sim.Now())
	}
	for _, h := range hops {
		if h > 100*time.Millisecond {
			t.Fatalf("event dispatched beyond horizon: %v", h)
		}
	}
	// Run can be resumed to a later horizon.
	before := len(hops)
	sim.Run(200 * time.Millisecond)
	if len(hops) <= before {
		t.Fatal("resume dispatched nothing")
	}
}

// TestEventsCounter: the processed-event counter matches dispatches.
func TestEventsCounter(t *testing.T) {
	var hops []time.Duration
	sim := simnet.New(simnet.Config{
		N:       2,
		Latency: &simnet.UniformModel{Base: time.Millisecond},
		Seed:    1,
	})
	sim.SetEngine(0, &chainEngine{id: 0, n: 2, hops: &hops})
	sim.SetEngine(1, &chainEngine{id: 1, n: 2, hops: &hops})
	sim.Run(time.Second)
	// 2 starts + 50 message deliveries.
	if got := sim.Events(); got != 52 {
		t.Fatalf("events = %d, want 52", got)
	}
}
