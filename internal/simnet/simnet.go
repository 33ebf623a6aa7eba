// Package simnet is the deterministic discrete-event network simulator the
// experiments run on. It replaces the paper's 100-instance EC2 deployment:
// replicas are event-driven engines (internal/engine), message deliveries
// and timers are events on a virtual clock, and latency comes from a
// configurable region model. Runs are reproducible from a seed.
package simnet

import (
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// event kinds.
const (
	evMessage = iota
	evTimer
	evCrash
	evStart
	evPartition
	evHeal
)

type event struct {
	at   time.Duration
	seq  uint64 // FIFO tie-break for determinism
	kind int32
	tid  int // timer id; full width, engines pack round numbers into it

	to   types.ReplicaID
	from types.ReplicaID
	msg  types.Message

	// build, set on restart events, constructs the replacement engine at
	// dispatch time — by then the crashed replica's WAL holds everything up
	// to the crash, so the factory recovers exactly the pre-crash state.
	build func() engine.Engine

	// groups, set on partition events, lists the replica groups that can
	// still reach each other once the partition installs.
	groups [][]types.ReplicaID
}

// eventQueue is a pooled, value-based 4-ary min-heap. Events live in a slab
// ([]event) whose free slots are recycled through a free list; the heap
// orders (at, seq, slab index) entries, so a comparison never reads the
// events themselves. Pushing an event neither allocates a node nor boxes it
// through an interface, so steady-state simulation — where the queue size
// plateaus — runs allocation-free per event. (at, seq) is a total order (seq
// is unique), so any correct heap pops events in the identical deterministic
// sequence.
type eventQueue struct {
	slab []event
	free []int32
	heap []queued
}

// queued is a heap entry: the event's order key and its slab index.
type queued struct {
	at  time.Duration
	seq uint64
	idx int32
}

func (a queued) before(b queued) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.heap) }

// nextAt returns the time of the minimum event.
func (q *eventQueue) nextAt() time.Duration { return q.heap[0].at }

func (q *eventQueue) push(ev event) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[idx] = ev
	e := queued{at: ev.at, seq: ev.seq, idx: idx}
	q.heap = append(q.heap, e)
	// Sift up: parents move down into the hole.
	h, i := q.heap, len(q.heap)-1
	for i > 0 && e.before(h[(i-1)/4]) {
		h[i], i = h[(i-1)/4], (i-1)/4
	}
	h[i] = e
}

// pop removes the minimum event from the heap and returns its slab index.
// The slot stays the event's until release: a push may grow the slab
// meanwhile, so the event is read through q.slab[idx] before any push.
func (q *eventQueue) pop() int32 {
	h := q.heap
	n := len(h) - 1
	idx, last := h[0].idx, h[n]
	q.heap = h[:n]
	// Sift the last entry down from the root: the least child moves up into
	// the hole. With n == 0 the write lands past the new length, harmlessly.
	i := 0
	for first := 1; first < n; first = 4*i + 1 {
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if !h[least].before(last) {
			break
		}
		h[i], i = h[least], least
	}
	h[i] = last
	return idx
}

// release recycles a popped event's slot.
func (q *eventQueue) release(idx int32) {
	// Drop reference-typed fields so the GC can reclaim them while the slot
	// sits on the free list.
	ev := &q.slab[idx]
	ev.msg, ev.build, ev.groups = nil, nil, nil
	q.free = append(q.free, idx)
}

// MsgStats aggregates message accounting for one run.
type MsgStats struct {
	Count  int64
	Bytes  int64
	ByType map[types.MsgType]int64
}

// Config parameterizes a simulation.
type Config struct {
	// N is the number of replicas (engine slots).
	N int
	// Latency computes delivery delays; required.
	Latency LatencyModel
	// Seed drives all randomness (jitter). Same seed, same run.
	Seed int64
	// OnCommit, if non-nil, observes every engine.Commit output.
	OnCommit func(replica types.ReplicaID, now time.Duration, b *types.Block)
	// OnStrength, if non-nil, observes every engine.Strength output.
	OnStrength func(replica types.ReplicaID, now time.Duration, b *types.Block, x int)
	// Drop, if non-nil, discards matching deliveries (targeted censorship in
	// tests).
	Drop func(from, to types.ReplicaID, msg types.Message, now time.Duration) bool
	// Observers adds non-voting engine slots numbered N..N+Observers-1.
	// Observer slots receive every replica broadcast (the fabric-level
	// analogue of tcpnet's observer mirroring) but are outside the committee:
	// replicas never address them except in reply to their own requests.
	// Latency models that index per-replica state see observer endpoints as
	// replica 0.
	Observers int
}

// Sim is one simulation instance. Create with New, attach engines with
// SetEngine, then Run.
type Sim struct {
	cfg     Config
	engines []engine.Engine
	crashed []bool
	queue   eventQueue
	seq     uint64
	now     time.Duration
	rng     *rand.Rand
	events  int64
	// Message accounting, which Stats assembles into a MsgStats: the per-type
	// counts are an array over every MsgType value, so a delivery costs an
	// increment and no map assignment.
	msgCount, msgBytes int64
	byType             [256]int64

	// partition, when non-nil, maps each replica to its group; deliveries
	// crossing groups are discarded at send time (messages already in
	// flight when a partition installs still arrive, like real routes
	// converging). nil means fully connected — the honest-path check is one
	// nil comparison, so partition support costs connected runs nothing.
	partition []int32
	partDrop  int64
}

// New creates a simulation with n empty engine slots (plus observer slots,
// when configured).
func New(cfg Config) *Sim {
	slots := cfg.N + cfg.Observers
	s := &Sim{
		cfg:     cfg,
		engines: make([]engine.Engine, slots),
		crashed: make([]bool, slots),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	return s
}

// SetEngine installs the engine for one replica slot. A nil engine models a
// replica that is down from the start.
func (s *Sim) SetEngine(id types.ReplicaID, e engine.Engine) {
	s.engines[id] = e
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Stats returns a copy of the message accounting so far. The ByType map is
// built here, from the per-type counter array the delivery path increments,
// and holds the types delivered at least once.
func (s *Sim) Stats() MsgStats {
	out := MsgStats{Count: s.msgCount, Bytes: s.msgBytes, ByType: make(map[types.MsgType]int64)}
	for t, n := range s.byType {
		if n > 0 {
			out.ByType[types.MsgType(t)] = n
		}
	}
	return out
}

// Events returns the number of events processed so far.
func (s *Sim) Events() int64 { return s.events }

// CrashAt schedules replica id to crash (stop processing events) at time at.
func (s *Sim) CrashAt(id types.ReplicaID, at time.Duration) {
	s.push(event{at: at, kind: evCrash, to: id})
}

// PartitionAt schedules a network partition at virtual time at: replicas in
// the same group keep talking, deliveries crossing groups are dropped (at
// send time; in-flight messages still land). Replicas not listed in any
// group form one implicit final group together, so PartitionAt(t, g) splits
// g from the rest. A new partition replaces the previous one; HealAt
// restores full connectivity.
func (s *Sim) PartitionAt(at time.Duration, groups ...[]types.ReplicaID) {
	s.push(event{at: at, kind: evPartition, groups: groups})
}

// HealAt schedules the partition (if any) to heal at virtual time at.
func (s *Sim) HealAt(at time.Duration) {
	s.push(event{at: at, kind: evHeal})
}

// PartitionDrops returns how many deliveries were discarded by partitions.
func (s *Sim) PartitionDrops() int64 { return s.partDrop }

// RestartAt schedules replica id to come back at time at with the engine the
// factory builds — typically one recovered from the replica's write-ahead
// log. The factory runs at dispatch time (virtual time at), after every
// pre-crash event has been processed, so it observes the final durable
// state. Restarting clears the crashed flag; messages sent to the replica
// while it was down were delivered into the void, exactly like a real
// process restart.
func (s *Sim) RestartAt(id types.ReplicaID, at time.Duration, build func() engine.Engine) {
	s.push(event{at: at, kind: evStart, to: id, build: build})
}

// Run initializes every engine at time 0 (if not already started) and
// processes events until the virtual clock passes `until` or the queue
// drains.
func (s *Sim) Run(until time.Duration) {
	if s.now == 0 && s.events == 0 {
		for i, e := range s.engines {
			if e != nil {
				s.push(event{at: 0, kind: evStart, to: types.ReplicaID(i)})
			}
		}
	}
	for s.queue.len() > 0 {
		if s.queue.nextAt() > until {
			s.now = until
			return
		}
		idx := s.queue.pop()
		s.now = s.queue.slab[idx].at
		s.events++
		s.dispatch(&s.queue.slab[idx])
		s.queue.release(idx)
	}
	s.now = until
}

// dispatch runs one event in its slab slot. It reads the event only before
// apply, whose pushes may grow the slab.
func (s *Sim) dispatch(ev *event) {
	id, kind := ev.to, ev.kind
	switch kind {
	case evCrash:
		s.crashed[id] = true
		return
	case evPartition:
		s.installPartition(ev.groups)
		return
	case evHeal:
		s.partition = nil
		return
	}
	if kind == evStart && ev.build != nil {
		// Restart: install the recovered engine and fall through to Init.
		s.SetEngine(id, ev.build())
		s.crashed[id] = false
	}
	if s.crashed[id] || s.engines[id] == nil {
		return
	}
	eng := s.engines[id]
	var outs []engine.Output
	switch kind {
	case evStart:
		outs = eng.Init(s.now)
	case evMessage:
		// OnMessage is the engine's Prevalidate then its state stage, run
		// synchronously so the simulation stays deterministic.
		outs = eng.OnMessage(s.now, ev.from, ev.msg)
	case evTimer:
		outs = eng.OnTimer(s.now, ev.tid)
	}
	s.apply(id, outs)
}

func (s *Sim) apply(id types.ReplicaID, outs []engine.Output) {
	for _, out := range outs {
		switch out.Kind {
		case engine.Send:
			s.deliver(id, out.To, out.Msg, out.Msg.Size())
		case engine.Broadcast:
			// Observer slots (>= N) receive every broadcast too — the
			// fabric-level form of tcpnet's mirroring. The message is sized
			// once, not per recipient: Size walks every vote of a carried QC.
			size := out.Msg.Size()
			for i := range s.engines {
				to := types.ReplicaID(i)
				if to == id {
					continue
				}
				s.deliver(id, to, out.Msg, size)
			}
			if out.SelfDeliver {
				// Local delivery is immediate: same-replica handoff.
				s.push(event{at: s.now, kind: evMessage, to: id, from: id, msg: out.Msg})
			}
		case engine.SetTimer:
			s.push(event{at: s.now + out.Delay, kind: evTimer, to: id, tid: out.Timer})
		case engine.Commit:
			if s.cfg.OnCommit != nil {
				s.cfg.OnCommit(id, s.now, out.Block)
			}
		case engine.Strength:
			if s.cfg.OnStrength != nil {
				s.cfg.OnStrength(id, s.now, out.Block, out.X)
			}
		}
	}
}

// installPartition assigns each listed replica its group index; unlisted
// replicas share the implicit final group.
func (s *Sim) installPartition(groups [][]types.ReplicaID) {
	part := make([]int32, len(s.engines))
	implicit := int32(len(groups))
	for i := range part {
		part[i] = implicit
	}
	for g, members := range groups {
		for _, id := range members {
			if int(id) < len(part) {
				part[id] = int32(g)
			}
		}
	}
	s.partition = part
}

func (s *Sim) deliver(from, to types.ReplicaID, msg types.Message, size int) {
	if int(to) >= len(s.engines) {
		return
	}
	if s.partition != nil && s.partition[from] != s.partition[to] {
		s.partDrop++
		return
	}
	if s.cfg.Drop != nil && s.cfg.Drop(from, to, msg, s.now) {
		return
	}
	s.msgCount++
	s.msgBytes += int64(size)
	s.byType[msg.Type()]++
	// Latency models size per-replica state by N; observer endpoints take
	// replica 0's profile.
	lf, lt := from, to
	if int(lf) >= s.cfg.N {
		lf = 0
	}
	if int(lt) >= s.cfg.N {
		lt = 0
	}
	d := s.cfg.Latency.Delay(lf, lt, size, s.rng)
	s.push(event{at: s.now + d, kind: evMessage, to: to, from: from, msg: msg})
}

func (s *Sim) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.queue.push(ev)
}
