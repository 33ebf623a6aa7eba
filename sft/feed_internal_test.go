package sft

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// handle is the read surface Node and ObserverNode share, plus the two
// entry points their transports feed.
type handle interface {
	Commits() <-chan CommitEvent
	Strength(BlockID) int
	CommittedHeight() Height
	WaitStrength(context.Context, BlockID, int) error
	Close() error
	onCommit(time.Duration, *Block)
	onStrength(time.Duration, *Block, int)
}

// bothHandles builds a voting node and an observer on one fresh world, both
// forgetting blocks keep heights down (0 keeps every block). The observer
// takes no prune option, so its feed is set directly.
func bothHandles(t *testing.T, keep Height) (*Node, *ObserverNode) {
	t.Helper()
	const n = 4
	world, err := NewSimnet(SimnetConfig{N: n, Observers: 1, Latency: &UniformLatency{Base: time.Millisecond}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewKeyRing(n, 1, SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	node, err := New(Config{ID: 0, N: n, Seed: 1}, WithKeyRing(ring), WithTransport(world.Transport(0)), WithPruneKeep(keep))
	if err != nil {
		t.Fatal(err)
	}
	observer, err := NewObserver(ObserverConfig{Ring: ring}, world.ObserverTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	observer.pruneKeep = keep
	return node, observer
}

// TestFeedSameThroughBothHandles drives one event sequence through a voting
// node's handle and an observer's and compares everything a consumer can
// read: the Commits stream, Strength, CommittedHeight, and a WaitStrength
// that is satisfied, one that is cancelled and one that Close cuts short.
// Then each edge row of the strength window runs through a fresh pair.
func TestFeedSameThroughBothHandles(t *testing.T) {
	node, observer := bothHandles(t, 0)

	g := types.Genesis()
	b1 := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 0, types.Payload{}, nil)
	b2 := types.NewBlock(b1.ID(), nil, 2, 2, 1, 0, types.Payload{}, nil)
	b3 := types.NewBlock(b2.ID(), nil, 3, 3, 2, 0, types.Payload{}, nil)

	type outcome struct {
		events                          []CommitEvent
		s1, s2, s3                      int
		height                          Height
		satisfied, cancelled, cutClosed string
	}
	drive := func(t *testing.T, h handle, f *feed) outcome {
		events := h.Commits()
		wait := func(ctx context.Context, b *Block, x int) <-chan error {
			before := waiting(f)
			done := make(chan error, 1)
			go func() { done <- h.WaitStrength(ctx, b.ID(), x) }()
			for waiting(f) == before { // registered, so the publish below is what wakes it
				time.Sleep(time.Millisecond)
			}
			return done
		}
		ctx, cancel := context.WithCancel(context.Background())
		satisfied := wait(context.Background(), b2, 2)
		cancelled := wait(ctx, b3, 2)
		cut := wait(context.Background(), b3, 2)

		h.onCommit(10, b1)
		h.onStrength(10, b1, 1)
		h.onStrength(20, b1, 2)
		h.onCommit(20, b2)
		h.onStrength(30, b2, 2)
		h.onStrength(35, b1, 1) // a late, lower report never lowers the level
		h.onCommit(40, b3)

		var out outcome
		out.satisfied = errString(<-satisfied)
		cancel()
		if err := <-cancelled; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v", err)
		}
		if got := waiting(f); got != 1 {
			t.Fatalf("%d waiters registered after one was satisfied and one cancelled, want 1", got)
		}
		out.s1, out.s2, out.s3 = h.Strength(b1.ID()), h.Strength(b2.ID()), h.Strength(b3.ID())
		out.height = h.CommittedHeight()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		out.cutClosed = errString(<-cut)
		for ev := range events { // closes once drained
			out.events = append(out.events, ev)
		}
		if _, open := <-h.Commits(); open {
			t.Fatal("a subscription opened after Close delivered an event")
		}
		return out
	}

	fromNode := drive(t, node, &node.feed)
	fromObserver := drive(t, observer, &observer.feed)

	if len(fromNode.events) != 7 || fromNode.s1 != 2 || fromNode.s2 != 2 || fromNode.s3 != 1 || fromNode.height != 3 {
		t.Fatalf("node handle read %+v", fromNode)
	}
	if fromNode.satisfied != "" || !strings.Contains(fromNode.cutClosed, "node closed before block reached strength 2") {
		t.Fatalf("node waits ended %q and %q", fromNode.satisfied, fromNode.cutClosed)
	}
	// The handles differ in one word of one error.
	fromObserver.cutClosed = strings.Replace(fromObserver.cutClosed, "observer closed", "node closed", 1)
	if !reflect.DeepEqual(fromNode, fromObserver) {
		t.Fatalf("the two handles disagree:\n node     %+v\n observer %+v", fromNode, fromObserver)
	}

	at := func(h Height, salt int64) *Block {
		return types.NewBlock(g.ID(), nil, Round(h), h, 0, salt, types.Payload{}, nil)
	}
	type rise struct {
		b *Block
		x int
	}
	a, fork := at(1, 0), at(1, 1)
	h5, h8, h9, h10, h3 := at(5, 0), at(8, 0), at(9, 0), at(10, 0), at(3, 0)
	far := at(1_000_001, 0)
	for _, row := range []struct {
		name  string
		keep  Height
		rises []rise
		want  map[*Block]int
	}{
		{"two blocks at one height keep their own levels", 0,
			[]rise{{a, 1}, {fork, 1}, {fork, 2}, {a, 1}},
			map[*Block]int{a: 1, fork: 2}},
		{"a rise below the prune floor reads -1", 4,
			[]rise{{h5, 1}, {h10, 1}, {h5, 2}, {h3, 2}},
			map[*Block]int{h5: -1, h3: -1, h10: 1}},
		{"a 1,000,000-height jump without PruneKeep", 0,
			[]rise{{a, 1}, {far, 1}, {a, 2}},
			map[*Block]int{a: 2, far: 1}},
		{"a 1,000,000-height jump with PruneKeep", 64,
			[]rise{{a, 1}, {far, 1}, {a, 2}},
			map[*Block]int{a: -1, far: 1}},
		{"a late lower report never lowers a level", 0,
			[]rise{{a, 2}, {a, 1}},
			map[*Block]int{a: 2}},
		{"heights out of order", 0,
			[]rise{{h10, 1}, {h8, 1}, {h5, 1}, {h9, 2}, {h10, 2}},
			map[*Block]int{h5: 1, h8: 1, h9: 2, h10: 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			node, observer := bothHandles(t, row.keep)
			for _, hf := range []struct {
				name string
				h    handle
				f    *feed
			}{{"node", node, &node.feed}, {"observer", observer, &observer.feed}} {
				for _, r := range row.rises {
					hf.h.onStrength(0, r.b, r.x)
				}
				for b, want := range row.want {
					if got := hf.h.Strength(b.ID()); got != want {
						t.Errorf("%s: block at height %d reads %d, want %d", hf.name, b.Height, got, want)
					}
				}
				hf.f.mu.Lock()
				slots := hf.f.levels.Cap() + cap(hf.f.forks)
				hf.f.mu.Unlock()
				if slots > 64 {
					t.Errorf("%s holds %d slots after %d rises", hf.name, slots, len(row.rises))
				}
				if err := hf.h.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAllocsFeedPublishSteadyState: once the window has its pruned length, a
// rise on a kept block and a new height at the top allocate nothing.
func TestAllocsFeedPublishSteadyState(t *testing.T) {
	const keep = 64
	g := types.Genesis()
	blocks := make([]*Block, 1024)
	for i := range blocks {
		h := Height(i + 1)
		blocks[i] = types.NewBlock(g.ID(), nil, Round(h), h, 0, 0, types.Payload{}, nil)
	}
	f := &feed{pruneKeep: keep}
	publish := func(b *Block, x int) { f.publish(CommitEvent{Block: b, Height: b.Height, Strength: x}) }
	next := 0
	for ; next < 512; next++ {
		publish(blocks[next], 1)
	}
	known := blocks[next-keep/2]
	if allocs := testing.AllocsPerRun(100, func() { publish(known, 2) }); allocs != 0 {
		t.Errorf("a rise on a kept block allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(400, func() { publish(blocks[next], 1); next++ }); allocs != 0 {
		t.Errorf("a new height at the top of the window allocates %.1f times, want 0", allocs)
	}
	if got := f.strengthOf(blocks[next-1].ID()); got != 1 {
		t.Errorf("the newest block reads %d, want 1", got)
	}
}

func waiting(f *feed) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
