// Package window holds the sizing rule every sliding window of a replica
// follows — the store's height ring, the vote history and its chain index,
// the committed tail and the strength feed — and the window type the ones
// that slide use. Entries join at the back and leave at the front. Whenever
// a window of L live entries runs out of room, it moves them into at most
// L + Slack(L) slots — its own array when that is small enough and the dead
// front large enough — so what a replica holds follows what it keeps.
package window

// Slack is the spare capacity a window of n live entries may keep: an eighth
// of it, and never less than 64, so a short window is not copied at every
// step.
func Slack(n int) int { return max(n/8, 64) }

// Fit is the capacity a window allocates when it must grow to hold n
// entries: half the slack stays free, so a window that then holds steady
// compacts (Of.Push) instead of growing again.
func Fit(n int) int { return n + Slack(n)/2 }

// Of is a window of T: the live entries are buf[start:], oldest first. Drop
// advances start and zeroes what it passes, so the dead front holds nothing;
// Push reuses the dead front before it allocates. The zero value is empty and
// ready to use.
type Of[T any] struct {
	buf   []T
	start int
}

// Live returns the live entries, oldest first. The slice is valid until the
// next Push.
func (w *Of[T]) Live() []T { return w.buf[w.start:] }

// Len returns the number of live entries.
func (w *Of[T]) Len() int { return len(w.buf) - w.start }

// Cap returns the slots the window holds, live and free.
func (w *Of[T]) Cap() int { return cap(w.buf) }

// Push appends v at the back. A full window moves its live entries to the
// front of the array when the dead front is at least a quarter of the slack,
// which bounds the copying at 4L/Slack(L) entries per push; otherwise, or when
// the array exceeds L + Slack(L) because the window shrank, it moves them to
// an array of Fit(L+1) slots.
func (w *Of[T]) Push(v T) {
	if len(w.buf) == cap(w.buf) {
		live := w.Live()
		n := len(live) + 1
		if w.start >= Slack(n)/4 && cap(w.buf) <= n+Slack(n) {
			copy(w.buf, live)
			clear(w.buf[len(live):])
			w.buf = w.buf[:len(live)]
		} else {
			buf := make([]T, len(live), Fit(n))
			copy(buf, live)
			w.buf = buf
		}
		w.start = 0
	}
	w.buf = append(w.buf, v)
}

// Drop removes the k oldest entries (all of them if k exceeds Len).
func (w *Of[T]) Drop(k int) {
	k = min(k, w.Len())
	clear(w.buf[w.start : w.start+k])
	w.start += k
}

// Truncate keeps the n oldest entries and removes the rest.
func (w *Of[T]) Truncate(n int) {
	end := w.start + n
	clear(w.buf[end:])
	w.buf = w.buf[:end]
}

// Reset removes every entry; the array is kept for reuse.
func (w *Of[T]) Reset() {
	clear(w.buf)
	w.buf, w.start = w.buf[:0], 0
}
