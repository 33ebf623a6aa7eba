package sft

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/window"
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
	// levels is the strength window: the first block seen at each kept
	// height, in ascending height order, with its strongest level. Heights
	// run contiguously but for the gaps a state sync leaves, so the block at
	// height h is found by its distance from the top and a rise is one slice
	// index and one id compare. Pruning drops what fell below the floor from
	// the front; the window reuses its dead front before it grows, so one of
	// steady length allocates nothing. forks holds every other block seen at
	// a height the window already has: two blocks at one height, which takes
	// more than f faults. Without pruneKeep both grow with the chain.
	levels window.Of[blockLevel]
	forks  []blockLevel
}

type blockLevel struct {
	height Height
	id     BlockID
	x      int
}

// window returns the kept levels, ascending by height. The caller holds mu.
func (f *feed) window() []blockLevel { return f.levels.Live() }

// slot returns the window index of height h and whether a block is kept
// there; if not, the index h would be inserted at. The caller holds mu.
func (f *feed) slot(h Height) (int, bool) {
	w := f.window()
	n := len(w)
	if n == 0 || h > w[n-1].height {
		return n, false
	}
	if d := w[n-1].height - h; d < Height(n) && w[n-1-int(d)].height == h {
		return n - 1 - int(d), true
	}
	// Below a gap, or below the window.
	return slices.BinarySearchFunc(w, h, func(l blockLevel, h Height) int { return cmp.Compare(l.height, h) })
}

// find returns the entry of a block seen and not yet pruned, or nil. It
// scans the window from the top, since Strength and WaitStrength know no
// height; the commit path never calls it. The caller holds mu; the pointer
// is good until the next record.
func (f *feed) find(id BlockID) *blockLevel {
	w := f.window()
	for i := len(w) - 1; i >= 0; i-- {
		if w[i].id == id {
			return &w[i]
		}
	}
	return f.fork(id)
}

func (f *feed) fork(id BlockID) *blockLevel {
	for i := range f.forks {
		if f.forks[i].id == id {
			return &f.forks[i]
		}
	}
	return nil
}

// record raises a block's level, or keeps a block not seen before unless it
// lies below the prune floor, where it reads -1 as a pruned block does. The
// caller holds mu and has already raised height.
func (f *feed) record(l blockLevel) {
	if f.pruneKeep > 0 && l.height+f.pruneKeep < f.height {
		return
	}
	i, taken := f.slot(l.height)
	if !taken {
		f.insert(i, l)
		return
	}
	at := &f.window()[i]
	if at.id != l.id {
		if at = f.fork(l.id); at == nil {
			f.forks = append(f.forks, l)
			return
		}
	}
	at.x = max(at.x, l.x)
}

// insert puts l at window index i, keeping heights ascending.
func (f *feed) insert(i int, l blockLevel) {
	f.levels.Push(l)
	if w := f.window(); i < len(w)-1 {
		copy(w[i+1:], w[i:len(w)-1])
		w[i] = l
	}
}

// prune advances the window past every block below the floor, in
// O(dropped) however far the height jumped. The caller holds mu.
func (f *feed) prune() {
	keep := f.pruneKeep
	if keep == 0 {
		return
	}
	w := f.window()
	k := 0
	for k < len(w) && w[k].height+keep < f.height {
		k++
	}
	f.levels.Drop(k)
	f.forks = slices.DeleteFunc(f.forks, func(l blockLevel) bool { return l.height+keep < f.height })
}

type strengthWaiter struct {
	id    BlockID
	x     int
	ready chan struct{}
	// met is set before ready closes when the strength was reached, so a
	// block recorded nowhere (below the floor) still releases its waiter.
	met bool
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
	if l := f.find(id); l != nil {
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
		if l := f.find(id); l != nil && l.x >= x {
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
			if w.met {
				return nil
			}
			// The feed closed; loop to report it under the lock.
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
	if ev.Height > f.height {
		f.height = ev.Height
		f.prune()
	}
	f.record(blockLevel{ev.Height, id, ev.Strength})
	// Wake satisfied waiters.
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if w.id == id && ev.Strength >= w.x {
			w.met = true
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
