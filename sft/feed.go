package sft

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// feed is the commit-strength stream behind a handle: the strongest level
// seen per block, the committed height, WaitStrength waiters and Commits
// subscriptions. Node and ObserverNode embed one; what differs between them
// is set once at construction and read-only afterwards.
type feed struct {
	// name is the handle's noun in WaitStrength's closed error.
	name string
	// minStrength filters subscriptions and the callback; the bookkeeping,
	// the waiters and the gate see every event.
	minStrength int
	// pruneKeep, when > 0, makes strength forget blocks more than that many
	// heights below height, as the engine does at its cut.
	pruneKeep Height
	// gate, if non-nil, observes every event before any subscriber does,
	// synchronously (the mempool's conflict gate: holds must release at the
	// transaction's OWN requirement, not the subscription filter, and Simnet
	// runs must stay deterministic).
	gate func(CommitEvent)
	// callback, if non-nil, is called with every event at or above
	// minStrength, after the subscriptions were fed.
	callback func(CommitEvent)
	// started is when Run began on a real transport, whose events carry the
	// time since; a Simnet passes its virtual time instead.
	started time.Time

	mu      sync.Mutex
	height  Height
	waiters []*strengthWaiter
	subs    []*subscription
	closed  bool
	// order holds the strongest level seen per block, in first-seen order:
	// height order but for the blocks of one event, so what falls below the
	// pruneKeep floor is found at its front. index gives a block's position
	// counted from the first entry ever made, order[index[id]-dropped], so a
	// rise is one map lookup and a store through the slice. Without pruneKeep
	// both grow with the chain.
	order   []blockLevel
	index   map[BlockID]uint64
	dropped uint64
}

type blockLevel struct {
	height Height
	id     BlockID
	x      int
}

// level returns the entry of a block seen and not yet pruned, or nil. The
// caller holds mu; the pointer is good until the next append to order.
func (f *feed) level(id BlockID) *blockLevel {
	seq, ok := f.index[id]
	if !ok {
		return nil
	}
	return &f.order[seq-f.dropped]
}

type strengthWaiter struct {
	id    BlockID
	x     int
	ready chan struct{}
}

// now is the event clock of a real transport: zero until Run.
func (f *feed) now() time.Duration {
	if f.started.IsZero() {
		return 0
	}
	return time.Since(f.started)
}

// subscribe opens a fresh subscription; on a closed feed its channel is
// already closed.
func (f *feed) subscribe() <-chan CommitEvent {
	sub := newSubscription()
	f.mu.Lock()
	closed := f.closed
	if !closed {
		f.subs = append(f.subs, sub)
	}
	f.mu.Unlock()
	if closed {
		sub.close()
	}
	return sub.ch
}

// strengthOf returns the strongest level seen for the block, or -1.
func (f *feed) strengthOf(id BlockID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l := f.level(id); l != nil {
		return l.x
	}
	return -1
}

func (f *feed) committedHeight() Height {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.height
}

// waitStrength blocks until block id is seen at strength >= x, the context
// is done, or the feed closes.
func (f *feed) waitStrength(ctx context.Context, id BlockID, x int) error {
	for {
		f.mu.Lock()
		if l := f.level(id); l != nil && l.x >= x {
			f.mu.Unlock()
			return nil
		}
		if f.closed {
			f.mu.Unlock()
			return fmt.Errorf("sft: %s closed before block reached strength %d", f.name, x)
		}
		w := &strengthWaiter{id: id, x: x, ready: make(chan struct{})}
		f.waiters = append(f.waiters, w)
		f.mu.Unlock()
		select {
		case <-ctx.Done():
			f.dropWaiter(w)
			return ctx.Err()
		case <-w.ready:
			// Either the strength was reached or the feed closed; loop to
			// re-check under the lock.
		}
	}
}

func (f *feed) dropWaiter(w *strengthWaiter) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, other := range f.waiters {
		if other == w {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return
		}
	}
}

// publish records the event and fans it out: strength bookkeeping, waiters
// and the gate always see it; subscriptions and the callback only at or
// above minStrength.
func (f *feed) publish(ev CommitEvent) {
	id := ev.Block.ID()
	f.mu.Lock()
	if l := f.level(id); l == nil {
		f.index[id] = f.dropped + uint64(len(f.order))
		f.order = append(f.order, blockLevel{ev.Height, id, ev.Strength})
	} else if ev.Strength > l.x {
		l.x = ev.Strength
	}
	if ev.Height > f.height {
		f.height = ev.Height
	}
	if keep := f.pruneKeep; keep > 0 {
		for len(f.order) > 0 && f.order[0].height+keep < f.height {
			delete(f.index, f.order[0].id)
			f.order = f.order[1:]
			f.dropped++
		}
	}
	// Wake satisfied waiters.
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if w.id == id && ev.Strength >= w.x {
			close(w.ready)
			continue
		}
		kept = append(kept, w)
	}
	f.waiters = kept
	deliver := ev.Strength >= f.minStrength
	var subs []*subscription
	if deliver {
		subs = f.subs
	}
	f.mu.Unlock()
	if f.gate != nil {
		f.gate(ev)
	}
	for _, sub := range subs {
		sub.push(ev)
	}
	if deliver && f.callback != nil {
		f.callback(ev)
	}
}

// shut closes every subscription channel — buffered events keep flowing to
// consumers that keep receiving — and unblocks every waiter, which re-checks
// and reports closure.
func (f *feed) shut() {
	f.mu.Lock()
	f.closed = true
	subs, waiters := f.subs, f.waiters
	f.subs, f.waiters = nil, nil
	f.mu.Unlock()
	for _, sub := range subs {
		sub.close()
	}
	for _, w := range waiters {
		close(w.ready)
	}
}
