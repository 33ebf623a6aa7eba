package window

import (
	"math/rand"
	"slices"
	"testing"
)

// TestWindowMatchesSlice: over random pushes and drops the live entries are
// what a plain slice holds, the dead front holds nothing, and whenever a push
// found the window full it left at most Len + Slack(Len) slots.
func TestWindowMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Of[*int]
	var ref []*int
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(100); {
		case op < 55 || len(ref) < 8:
			full := len(w.buf) == cap(w.buf)
			v := new(int)
			w.Push(v)
			ref = append(ref, v)
			if n := w.Len(); full && w.Cap() > n+Slack(n) {
				t.Fatalf("step %d: %d live entries in %d slots", step, n, w.Cap())
			}
		case op < 99:
			k := rng.Intn(3)
			w.Drop(k)
			ref = ref[min(k, len(ref)):]
		default:
			k := rng.Intn(len(ref) + 1)
			w.Truncate(k)
			ref = ref[:k]
		}
		if !slices.Equal(w.Live(), ref) {
			t.Fatalf("step %d: window %v, want %v", step, w.Live(), ref)
		}
		if slices.ContainsFunc(w.buf[:w.start], func(p *int) bool { return p != nil }) {
			t.Fatalf("step %d: the dead front retains an entry", step)
		}
	}
}

// TestAllocsWindowSteady: a window that takes one entry and drops one keeps
// its array: no allocation, the same capacity, within the rule.
func TestAllocsWindowSteady(t *testing.T) {
	const live = 516
	var w Of[int]
	for i := 0; i < live; i++ {
		w.Push(i)
	}
	step := func() { w.Push(0); w.Drop(1) }
	for i := 0; i < 4*live; i++ {
		step()
	}
	slots := w.Cap()
	if a := testing.AllocsPerRun(10*live, step); a != 0 {
		t.Errorf("a steady step allocates %.2f times, want 0", a)
	}
	if w.Cap() != slots || slots > live+Slack(live) || w.Len() != live {
		t.Errorf("%d live entries in %d slots (was %d), want at most %d", w.Len(), w.Cap(), slots, live+Slack(live))
	}
}
