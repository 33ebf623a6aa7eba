package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

func testBlock(round types.Round, height types.Height, proposer types.ReplicaID) *types.Block {
	return types.NewBlock(types.BlockID{}, nil, round, height, proposer, int64(round)*1e6, types.Payload{}, nil)
}

// TestHistogramBucketBoundaries pins the Prometheus "le" semantics: a sample
// exactly on a bucket's upper bound counts into that bucket, one just above
// falls into the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	h.Observe(1)         // le="1"
	h.Observe(1.0000001) // le="2"
	h.Observe(2)         // le="2"
	h.Observe(5)         // le="5"
	h.Observe(7)         // +Inf
	s := h.Snapshot()
	want := []int64{1, 3, 4, 5} // cumulative per bucket incl +Inf
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (snapshot %+v)", i, s.Cumulative[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-(1+1.0000001+2+5+7)) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

// TestHistogramQuantileVsSeries cross-checks the histogram's interpolated
// quantiles against the exact nearest-rank percentiles of the same samples:
// the estimates must agree within the width of the bucket holding the exact
// value.
func TestHistogramQuantileVsSeries(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	var samples []float64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~0.6ms..25s, the histogram's designed range.
		v := math.Exp(rng.Float64()*math.Log(40000)) * 0.0006
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		est := h.Quantile(q)
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		// Tolerance: the bucket holding the exact value.
		lo, hi := 0.0, math.Inf(1)
		for i, b := range LatencyBuckets {
			if exact <= b {
				hi = b
				if i > 0 {
					lo = LatencyBuckets[i-1]
				}
				break
			}
		}
		if est < lo || est > hi {
			t.Fatalf("q=%v: histogram %v outside exact value's bucket [%v, %v] (exact %v)", q, est, lo, hi, exact)
		}
	}
	if !math.IsNaN(newHistogram(LatencyBuckets).Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

// TestRegistryScrapeRace hammers every metric kind from writer goroutines
// while scraping concurrently; run under -race this pins the lock-free
// update / locked exposition split.
func TestRegistryScrapeRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_counter_total", "c")
	g := r.Gauge("race_gauge", "g")
	h := r.Histogram("race_hist_seconds", "h", LatencyBuckets, Label{Key: "level", Value: "1"})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				g.SetMax(rng.Int63n(1000))
				h.Observe(rng.Float64())
			}
		}(int64(w))
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatal("empty scrape")
		}
	}
	close(stop)
	wg.Wait()
}

// TestPrometheusExposition checks the text format end to end: HELP/TYPE
// headers, labeled children, cumulative monotone buckets, and the +Inf
// bucket equal to _count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sft_frames_total", "Frames.", Label{Key: "peer", Value: "3"}, Label{Key: "dir", Value: "in"})
	c.Add(7)
	g := r.Gauge("sft_round", "Round.")
	g.Set(42)
	h := r.Histogram("sft_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sft_frames_total Frames.\n",
		"# TYPE sft_frames_total counter\n",
		`sft_frames_total{peer="3",dir="in"} 7` + "\n",
		"# TYPE sft_round gauge\n",
		"sft_round 42\n",
		"# TYPE sft_lat_seconds histogram\n",
		`sft_lat_seconds_bucket{le="0.1"} 1` + "\n",
		`sft_lat_seconds_bucket{le="1"} 2` + "\n",
		`sft_lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"sft_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Kind conflicts must fail loudly at registration, not corrupt scrapes.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-registering a counter as a gauge did not panic")
			}
		}()
		r.Gauge("sft_frames_total", "wrong kind")
	}()
}

// TestTracerEviction pins the ring semantics: capacity bounds residency,
// eviction recycles the oldest slot, Recent returns newest first, and
// CommittedAt forgets evicted blocks.
func TestTracerEviction(t *testing.T) {
	tr := NewTracer(4)
	blocks := make([]*types.Block, 6)
	for i := range blocks {
		blocks[i] = testBlock(types.Round(i+1), types.Height(i+1), 0)
		tr.Observe(blocks[i], StageProposed, time.Duration(i)*time.Millisecond)
		tr.Observe(blocks[i], StageCommitted, time.Duration(i)*time.Millisecond+time.Microsecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	if _, ok := tr.CommittedAt(blocks[0].ID()); ok {
		t.Fatal("evicted block still resident")
	}
	if at, ok := tr.CommittedAt(blocks[5].ID()); !ok || at != 5*time.Millisecond+time.Microsecond {
		t.Fatalf("newest block commit time = %v, %v", at, ok)
	}
	recent := tr.Recent(2)
	if len(recent) != 2 || recent[0].ID != blocks[5].ID() || recent[1].ID != blocks[4].ID() {
		t.Fatalf("Recent order wrong: %v", recent)
	}
	if !recent[0].Has(StageProposed) || !recent[0].Has(StageCommitted) {
		t.Fatalf("stages lost: %v", recent[0].Stages)
	}
}

// TestObsNilSafety calls every hook on a nil sink — the contract that lets
// instrumented code skip configuration branches.
func TestObsNilSafety(t *testing.T) {
	var o *Obs
	b := testBlock(1, 1, 0)
	o.OnRoundEnter(1, 0, true)
	o.OnLocalTimeout(1)
	o.OnProposed(b, 0)
	o.OnBlockSeen(b, 0)
	o.OnVoted(b, 0)
	o.OnQCFormed(b, 0)
	o.OnQCObserved(b, 0)
	o.OnCommit(b, 0)
	o.OnStrength(b, 1, 0)
	o.ObserveVerifyBatch(time.Millisecond)
	o.ObserveWALFlush(time.Millisecond, 100, true)
	o.OnFrameIn(0, 10)
	o.OnFrameOut(0, 10)
	o.OnPrevalidate(true)
	if o.Registry() != nil || o.Tracer() != nil || o.Commits() != 0 {
		t.Fatal("nil sink accessors must return zero values")
	}
}

// TestObsStrengthDelay pins the commit→x-strong clamp: a rise reported
// before the commit (DiemBFT's in-event ordering) produces a zero delay once
// the commit lands, and rises after the commit measure the real gap.
func TestObsStrengthDelay(t *testing.T) {
	o := New(Options{N: 4, F: 1})
	b := testBlock(3, 3, 1)
	// Rise arrives first (same engine event), commit after.
	o.OnStrength(b, 1, 100*time.Millisecond)
	o.OnCommit(b, 100*time.Millisecond)
	o.OnStrength(b, 2, 350*time.Millisecond)
	if got := o.commitToLevel[2].Count(); got != 1 {
		t.Fatalf("level-2 delay samples = %d, want 1", got)
	}
	if got := o.commitToLevel[2].Sum(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("level-2 delay = %v, want 0.25", got)
	}
	// The pre-commit rise recorded no (negative) delay sample.
	if got := o.commitToLevel[1].Count(); got != 0 {
		t.Fatalf("level-1 delay samples = %d, want 0 (rise preceded commit)", got)
	}
	if o.Commits() != 1 || o.rises.Value() != 2 {
		t.Fatalf("commits %d rises %d", o.Commits(), o.rises.Value())
	}
}

// TestHotPathAllocs guards the instrumentation cost on the consensus hot
// path: steady-state hooks (resident trace slot, pre-registered handles)
// must not allocate.
func TestHotPathAllocs(t *testing.T) {
	o := New(Options{N: 4, F: 1})
	b := testBlock(2, 2, 1)
	o.OnProposed(b, time.Millisecond) // make the trace slot resident, cache the ID
	cases := []struct {
		name string
		fn   func()
	}{
		{"OnVoted", func() { o.OnVoted(b, 2*time.Millisecond) }},
		{"OnQCObserved", func() { o.OnQCObserved(b, 3*time.Millisecond) }},
		{"OnCommit", func() { o.OnCommit(b, 4*time.Millisecond) }},
		{"OnRoundEnter", func() { o.OnRoundEnter(5, 5*time.Millisecond, false) }},
		{"OnFrameIn", func() { o.OnFrameIn(2, 128) }},
		{"OnPrevalidate", func() { o.OnPrevalidate(false) }},
		{"ObserveWALFlush", func() { o.ObserveWALFlush(time.Millisecond, 512, true) }},
		{"HistogramObserve", func() { o.commitLatency.Observe(0.01) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg > 0 {
			t.Errorf("%s allocates %.2f per call on the hot path", tc.name, avg)
		}
	}
}
