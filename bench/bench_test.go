package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/sft"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolatesAndCounts(t *testing.T) {
	s := newSample([]float64{50, 10, 40, 20, 30})
	if s.n() != 5 {
		t.Fatalf("n=%d, want 5", s.n())
	}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := s.q(c.q); !near(got, c.want) {
			t.Errorf("q(%v)=%v, want %v", c.q, got, c.want)
		}
	}
	if got := s.max(); got != 50 {
		t.Errorf("max=%v, want 50", got)
	}
	empty := newSample(nil)
	if empty.n() != 0 || empty.q(0.5) != 0 || empty.max() != 0 {
		t.Error("an empty sample must read 0 with count 0")
	}
}

// The driver takes quartiles with Python's statistics.quantiles(values, n=4);
// these are that function's outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(med, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	if got := spread(ten); !near(got, 1.0) {
		t.Errorf("spread(1..10) = %v, want 1.0", got)
	}
	if got := worsening(100, 110, true); !near(got, 0.10) {
		t.Errorf("a lower-is-better metric going 100 -> 110 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 110, false); !near(got, -0.10) {
		t.Errorf("a higher-is-better metric going 100 -> 110 worsens by %v, want -0.10", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := bankSchedule(7, 500), bankSchedule(7, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("bankSchedule differs between two calls with one seed")
	}
	if a, b := bankSchedule(7, 500), bankSchedule(8, 500); reflect.DeepEqual(a, b) {
		t.Fatal("bankSchedule ignores its seed")
	}
	a, b := newBankSource(3, 200).(*bankSource), newBankSource(3, 200).(*bankSource)
	if !reflect.DeepEqual(a.txns, b.txns) {
		t.Fatal("the pre-signed pool differs between two builds with one seed")
	}
	for i, tx := range a.txns {
		if got := a.index(tx); got != i {
			t.Fatalf("bank index(%d) = %d", i, got)
		}
	}
	x, y := newOrderSource(5, 300), newOrderSource(5, 300)
	for i := 0; i < 300; i++ {
		tx, ty := x.next(), y.next()
		if !reflect.DeepEqual(tx, ty) {
			t.Fatalf("order transaction %d differs between two sources with one seed", i)
		}
		if got := x.index(tx); got != i {
			t.Fatalf("order index(%d) = %d", i, got)
		}
	}
	if x.index(sft.Transaction{Sender: 1, Seq: 1 << 30}) != -1 || x.index(sft.Transaction{Sender: orderClients, Seq: 1}) != -1 {
		t.Error("a transaction the source never made must index to -1")
	}
}

// stallSink blocks the first Submit, as a stalled server would.
type stallSink struct {
	stall time.Duration
	calls int
}

func (s *stallSink) Submit(sft.Transaction) error {
	if s.calls++; s.calls == 1 {
		time.Sleep(s.stall)
	}
	return nil
}

// An open loop charges a stall to every transaction that was due during it:
// the clock of transaction i starts at i/rate whatever the generator was
// doing then, and how late the send ran is recorded beside it.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const rate, stall = 1000.0, 30 * time.Millisecond
	spec := loadSpec{rate: rate, warmup: 0, window: 60 * time.Millisecond}
	l := newLoad(spec, newOrderSource(1, 1000), &cluster{spec: clusterSpec{n: 4}}, nil)
	l.epoch = time.Now()
	l.submit([]txSink{&stallSink{stall: stall}}, make(chan struct{}))
	n := int(l.submitted.Load())
	if n != 60 {
		t.Fatalf("submitted %d transactions in a 60 ms window at 1000/s, want 60", n)
	}
	for i := 0; i < n; i++ {
		if got, want := l.startAt[i].Load(), int64(i)*int64(time.Millisecond); got != want {
			t.Fatalf("transaction %d's clock starts at %d ns, want its due time %d ns", i, got, want)
		}
	}
	// Transaction 1 was due 1 ms in but could not be sent before the stall
	// ended at 30 ms.
	if late := time.Duration(l.lateNs[1]); late < stall-2*time.Millisecond {
		t.Errorf("transaction 1 ran %v late, want about %v", late, stall-time.Millisecond)
	}
	if late := time.Duration(l.lateNs[n-1]); late > stall/2 {
		t.Errorf("the generator never caught up: last transaction %v late", late)
	}
}

func TestFoldTracesFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTraces(data)
	if err != nil {
		t.Fatal(err)
	}
	// testdata/traces.txt holds 100 ms of samples in nine stacks. The two
	// ed25519 stacks are the point: the same leaf is app under the bank and
	// crypto under a vote check.
	want := map[string]float64{
		"app": 0.30, "crypto": 0.20, "gob": 0.10, "tcpnet": 0.10, "syscall": 0.10,
		"gc": 0.10, "bench": 0.05, "other": 0.05,
	}
	total := 0.0
	for name, got := range shares {
		total += got
		if !near(got, want[name]) {
			t.Errorf("cpu_share.%s = %v, want %v", name, got, want[name])
		}
	}
	if !near(total, 1) {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if len(shares) != len(cpuBucketNames) {
		t.Errorf("%d shares for %d buckets", len(shares), len(cpuBucketNames))
	}
	if _, err := foldTraces([]byte("File: x\nType: cpu\n")); err == nil {
		t.Error("a profile without samples must be an error, not all-zero shares")
	}
}

func TestMidmeanDropsBothQuarters(t *testing.T) {
	// Eight values: the two lowest and the two highest go, the rest average.
	if got := midmean([]float64{100, 1, 5, 6, 7, 8, 2, 1000}); !near(got, 6.5) {
		t.Errorf("midmean = %v, want 6.5", got)
	}
	if got := midmean([]float64{3}); got != 3 {
		t.Errorf("midmean of one value = %v, want it back", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of nothing = %v, want 0", got)
	}
}

func TestHostSpeedFactorsPerSlice(t *testing.T) {
	nominal := float64(nominalKernel)
	h := &hostSpeed{
		stop: make(chan struct{}),
		// Three samples in slice 0 (median twice nominal), none in slice 1,
		// one in slice 2 (half nominal), one after the window.
		at:   []int64{10, 20, 30, 250, 999},
		took: []float64{nominal, 2 * nominal, 9 * nominal, nominal / 2, 7 * nominal},
	}
	got := h.factors([]int64{0, 100, 200, 300})
	// Slice 1 has no sample and takes the median of all five: 2x nominal.
	want := []float64{2, 2, 0.5}
	if len(got) != len(want) {
		t.Fatalf("factors = %v, want %v", got, want)
	}
	for k := range want {
		if !near(got[k], want[k]) {
			t.Errorf("slice %d: factor %v, want %v", k, got[k], want[k])
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if took := newKernel().run(); took <= 0 {
		t.Errorf("the kernel took %v of thread CPU time", took)
	}
}

func TestPrometheusDeltaAndHistogramQuantile(t *testing.T) {
	before, after := promSnapshot{}, promSnapshot{}
	parseProm([]byte("# HELP x y\nsft_commits_total 10\nsft_net_frames_total{peer=\"1\",dir=\"out\"} 5\nsft_net_frames_total{peer=\"1\",dir=\"in\"} 7\n"), before)
	parseProm([]byte("sft_commits_total 30\nsft_net_frames_total{peer=\"1\",dir=\"out\"} 25\nsft_net_frames_total{peer=\"1\",dir=\"in\"} 7\n"+
		"sft_wal_fsync_seconds_bucket{le=\"0.001\"} 10\nsft_wal_fsync_seconds_bucket{le=\"0.0025\"} 30\nsft_wal_fsync_seconds_bucket{le=\"+Inf\"} 40\n"+
		"sft_wal_fsync_seconds_sum 0.08\nsft_wal_fsync_seconds_count 40\n"), after)
	lc := &layerCapture{before: before, after: after}
	if got := lc.delta("sft_commits_total", ""); got != 20 {
		t.Errorf("commit delta %v, want 20", got)
	}
	if got := lc.delta("sft_net_frames_total", `dir="out"`); got != 20 {
		t.Errorf("outbound frame delta %v, want 20", got)
	}
	bounds, cum, sum, count := histDelta(before, after, "sft_wal_fsync_seconds")
	if len(bounds) != 3 || count != 40 || !near(sum, 0.08) {
		t.Fatalf("histDelta = %v %v %v %v", bounds, cum, sum, count)
	}
	// Rank 20 of 40 sits halfway through the (1 ms, 2.5 ms] bucket.
	if got := histQuantile(bounds, cum, 0.5); !near(got, 0.00175) {
		t.Errorf("p50 = %v, want 0.00175", got)
	}
}

// BENCHMARK.json is generated from the metric tables; the checked-in copy
// must be that output.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := printManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the schema allows 200", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		hasSetup = hasSetup || e.Name == "setup_s"
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if seen[e.Name] {
			t.Errorf("name %s used twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, l := range m.PerLayer {
		if seen[l.Name] {
			t.Errorf("name %s used twice", l.Name)
		}
		seen[l.Name] = true
	}
	if !hasSetup || len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Error("manifest breaks the schema limits")
	}
	checked, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module")
	}
	if !bytes.Equal(bytes.TrimSpace(checked), bytes.TrimSpace(buf.Bytes())) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
}

// The real stack boots, commits signed bank transfers for a second, passes
// the oracle, and leaves no listener behind.
func TestSmokeRealCluster(t *testing.T) {
	w := realWorkload{
		cluster:    clusterSpec{n: 4, batch: 64, bank: true},
		load:       loadSpec{rate: 200, warmup: 200 * time.Millisecond, drain: 2 * time.Second},
		poolRate:   200,
		makeSource: newBankSource,
		cpuBound:   true,
	}
	out, err := runReal("smoke", w, runOpts{seed: 1, seconds: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.oracle) > 0 {
		t.Fatalf("oracle: %v", out.oracle)
	}
	if out.failed != 0 || out.attempted < 150 || out.commitMs.n() != out.attempted {
		t.Fatalf("attempted %d, failed %d, %d latency samples", out.attempted, out.failed, out.commitMs.n())
	}
	if out.strongMs.n() == 0 {
		t.Error("no transaction reached 2f-strong")
	}
	for _, addr := range out.listeners {
		if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			conn.Close()
			t.Errorf("the listener at %s is still open after the run", addr)
		}
	}
	if len(out.listeners) != 5 {
		t.Errorf("recorded %d listeners, want the transaction server and 4 replicas", len(out.listeners))
	}
}

func TestSmokeSimnet(t *testing.T) {
	world, err := simWorld(4, sft.DiemBFT, 1)
	if err != nil {
		t.Fatal(err)
	}
	world.Run(time.Second)
	if world.Events() == 0 || world.Stats().Count == 0 {
		t.Fatal("a 1-virtual-second n=4 world processed nothing")
	}
	if err := world.Close(); err != nil {
		t.Fatal(err)
	}
}
