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

// TestFeedSameThroughBothHandles drives one event sequence through a voting
// node's handle and an observer's and compares everything a consumer can
// read: the Commits stream, Strength, CommittedHeight, and a WaitStrength
// that is satisfied, one that is cancelled and one that Close cuts short.
func TestFeedSameThroughBothHandles(t *testing.T) {
	const n = 4
	world, err := NewSimnet(SimnetConfig{N: n, Observers: 1, Latency: &UniformLatency{Base: time.Millisecond}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := New(Config{ID: 0, N: n, Seed: 1}, WithScheme(SchemeSim), WithTransport(world.Transport(0)))
	if err != nil {
		t.Fatal(err)
	}
	observer, err := NewObserver(ObserverConfig{N: n, Seed: 1, Scheme: SchemeSim}, world.ObserverTransport(0))
	if err != nil {
		t.Fatal(err)
	}

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
