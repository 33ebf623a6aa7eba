package simnet

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// pingEngine drives a steady, allocation-free event load: every timer tick it
// re-arms the timer and sends one message to a peer; messages are dropped on
// receipt. All outputs are prebuilt so the engine itself allocates nothing —
// what remains is the simulator's own event machinery.
type pingEngine struct {
	id      types.ReplicaID
	onTimer []engine.Output
}

func newPingEngine(id, peer types.ReplicaID, period time.Duration) *pingEngine {
	return &pingEngine{
		id: id,
		onTimer: []engine.Output{
			{Kind: engine.Send, To: peer, Msg: &types.StateSyncRequest{Sender: id}},
			{Kind: engine.SetTimer, Timer: 1, Delay: period},
		},
	}
}

func (e *pingEngine) ID() types.ReplicaID { return e.id }

func (e *pingEngine) Init(now time.Duration) []engine.Output { return e.onTimer }

func (e *pingEngine) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return nil
}

func (e *pingEngine) Prevalidate(types.ReplicaID, types.Message) error { return nil }
func (e *pingEngine) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return e.OnMessage(now, from, msg)
}
func (e *pingEngine) OnTimer(now time.Duration, id int) []engine.Output { return e.onTimer }

func newPingSim(n int, seed int64) *Sim {
	s := New(Config{
		N:       n,
		Latency: &UniformModel{Base: time.Millisecond},
		Seed:    seed,
	})
	for i := 0; i < n; i++ {
		s.SetEngine(types.ReplicaID(i), newPingEngine(types.ReplicaID(i), types.ReplicaID((i+1)%n), time.Millisecond))
	}
	return s
}

// TestSteadyStateDispatchAllocs is the PR-1 allocation guard for the pooled
// event queue: once the slab, heap, free list, and stats map have reached
// steady state, pushing and popping events must not allocate at all. The
// only tolerated allocation source is the engines' messages — and the ping
// engines prebuild theirs.
func TestSteadyStateDispatchAllocs(t *testing.T) {
	s := newPingSim(4, 1)
	// Warm up: grow the slab/heap to their steady-state capacity.
	until := 50 * time.Millisecond
	s.Run(until)
	start := s.Events()

	allocs := testing.AllocsPerRun(100, func() {
		until += 10 * time.Millisecond
		s.Run(until)
	})
	if allocs != 0 {
		t.Errorf("steady-state event dispatch allocates %.1f times per 10ms window, want 0", allocs)
	}
	if s.Events() == start {
		t.Fatal("guard did not process any events")
	}
}

// TestStatsCopy pins the satellite fix: Stats must return a defensive copy,
// not a view of the simulator's internals.
func TestStatsCopy(t *testing.T) {
	s := newPingSim(2, 1)
	s.Run(20 * time.Millisecond)
	got := s.Stats()
	if got.Count == 0 || got.ByType[types.MsgStateSyncRequest] == 0 {
		t.Fatal("expected traffic in stats")
	}
	got.ByType[types.MsgStateSyncRequest] = -1
	got.ByType[types.MsgProposal] = 12345
	fresh := s.Stats()
	if fresh.ByType[types.MsgStateSyncRequest] == -1 || fresh.ByType[types.MsgProposal] == 12345 {
		t.Error("mutating the returned ByType map corrupted simulator internals")
	}
}

// TestEventQueueOrdering pins the pooled heap's contract: events pop in
// (at, seq) order regardless of push order or slot recycling. A fixed
// sequence comes first, then random pushes and pops, many at equal times,
// each pop checked against the least (at, seq) still queued, found by scan.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	pop := func() event {
		idx := q.pop()
		ev := q.slab[idx]
		q.release(idx)
		return ev
	}
	times := []time.Duration{30, 10, 20, 10, 40, 10, 30}
	for i, at := range times {
		q.push(event{at: at, seq: uint64(i)})
	}
	// Drain half, then refill to force free-list recycling.
	for i := 0; i < 3; i++ {
		pop()
	}
	for i, at := range []time.Duration{5, 25, 15} {
		q.push(event{at: at, seq: uint64(100 + i)})
	}
	var prevAt time.Duration
	var prevSeq uint64
	for first := true; q.len() > 0; first = false {
		ev := pop()
		if !first && (ev.at < prevAt || (ev.at == prevAt && ev.seq < prevSeq)) {
			t.Fatalf("out of order: (%v,%d) after (%v,%d)", ev.at, ev.seq, prevAt, prevSeq)
		}
		prevAt, prevSeq = ev.at, ev.seq
	}

	rng := rand.New(rand.NewSource(1))
	var ref []event
	for seq := uint64(0); seq < 20000; seq++ {
		if rng.Intn(5) < 3 || len(ref) == 0 {
			ev := event{at: time.Duration(rng.Intn(64)), seq: seq}
			q.push(ev)
			ref = append(ref, ev)
			continue
		}
		least := 0
		for i, ev := range ref {
			if ev.at < ref[least].at || ev.at == ref[least].at && ev.seq < ref[least].seq {
				least = i
			}
		}
		if got, want := pop(), ref[least]; got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop (%v,%d), want (%v,%d)", got.at, got.seq, want.at, want.seq)
		}
		ref = append(ref[:least], ref[least+1:]...)
		if q.len() != len(ref) {
			t.Fatalf("%d queued, want %d", q.len(), len(ref))
		}
	}
}

// BenchmarkSimnetEventLoop measures raw event throughput of the simulator
// core under the prebuilt ping workload (b.N events per iteration unit).
func BenchmarkSimnetEventLoop(b *testing.B) {
	s := newPingSim(8, 1)
	s.Run(10 * time.Millisecond) // warm up pools
	b.ReportAllocs()
	b.ResetTimer()
	until := 10 * time.Millisecond
	events := s.Events()
	for i := 0; i < b.N; i++ {
		until += time.Millisecond
		s.Run(until)
	}
	b.StopTimer()
	if n := s.Events() - events; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
}
