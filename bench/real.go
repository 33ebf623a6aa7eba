package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/sft"
)

// realWorkload is one real-stack workload: a cluster shape, a way to offer
// load, and the pool that load draws from.
type realWorkload struct {
	cluster clusterSpec
	load    loadSpec
	// poolRate sizes the pre-generated pool, in transactions per second of
	// warm-up plus window. For a closed loop it is frozen well above the
	// calibrated throughput (README, "Calibrated constants"); exhausting the
	// pool fails the run instead of silently capping it.
	poolRate   float64
	makeSource func(seed int64, size int) txSource
	// cpuBound marks a workload that keeps both cores busy: its wall-clock
	// numbers are scaled to the nominal host speed (calib.go).
	cpuBound bool
}

// realOutcome is everything a real-stack run measured, before it is turned
// into named metrics.
type realOutcome struct {
	setup     time.Duration
	window    time.Duration
	attempted int // transactions started inside the window
	failed    int
	inWindow  int // transactions committed at replica 0 inside the window
	blocks    int // blocks committed at replica 0 inside the window
	emptyBlks int

	// Per-slice values; the end-to-end metrics are their midmeans.
	sliceTPS, sliceCommitP50, sliceCommitP90, sliceStrongP50, sliceCPUPerTx []float64

	commitMs   sample // whole window, for the tail metrics and the sample counts
	strongMs   sample
	strongLag  sample // per block: 2f-strong seen minus commit seen
	lateMs     sample // open loop: generator lateness
	liveHeapMB float64
	hostSlow   float64 // kernel time over nominal, midmean of slices; 1 when not scaled
	poolUsed   float64
	pendingP50 float64

	oracle    []string // violated invariants; empty means green
	layers    *layerCapture
	captured  *sft.Block
	listeners []string // every address the run listened on
}

// runReal boots the cluster, offers the load, and checks the result.
func runReal(name string, w realWorkload, o runOpts) (*realOutcome, error) {
	w.load.window = time.Duration(o.seconds) * time.Second
	dir, err := scratchDir(o.outDir, name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	total := (w.load.warmup + w.load.window).Seconds()
	src := w.makeSource(o.seed, int(w.poolRate*total)+64)

	w.cluster.trace = o.trace
	c, err := bootCluster(w.cluster, dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()

	var spans *spanLog
	if o.trace {
		spans = &spanLog{}
	}
	l := newLoad(w.load, src, c, spans)
	// Subscribe before anything is submitted; the subscription buffers until
	// the reader starts, once the epoch it stamps events against is set.
	commits := c.nodes[0].Commits()

	streams := make([]txSink, 2)
	for i := range streams {
		s, err := sft.DialTransactions(c.srv.Addr().String(), time.Second)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		streams[i] = s
	}

	// A cluster that has not committed within the deadline is a failed run,
	// never a retried one.
	if !c.waitHeight(1, time.Now().Add(bootDeadline)) {
		return nil, fmt.Errorf("no commit within %v of boot", bootDeadline)
	}

	out := &realOutcome{window: w.load.window, listeners: []string{c.srv.Addr().String()}}
	for _, node := range c.nodes {
		out.listeners = append(out.listeners, node.Addr().String())
	}

	l.epoch = time.Now()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		l.read(commits)
	}()
	stopSubmit := make(chan struct{})
	submitDone := make(chan struct{})
	go func() {
		defer close(submitDone)
		l.submit(streams, stopSubmit)
	}()

	// Warm-up is part of set-up: the clock for setup_s stops at the first
	// measured submit.
	sleepUntil(l.epoch.Add(w.load.warmup))
	out.setup = time.Since(processStart)
	var lc *layerCapture
	if o.trace {
		lc = newLayerCapture(c, o.outDir, name)
		if err := lc.begin(); err != nil {
			return nil, err
		}
	}
	// The window is cut into one-second slices at the moments this goroutine
	// actually woke, with the process's CPU time read at each cut.
	var host *hostSpeed
	if w.cpuBound {
		host = startHostSpeed(l.epoch)
	}
	cuts, cpuAt := []int64{l.since()}, []time.Duration{cpuNow()}
	for k := 1; k <= o.seconds; k++ {
		sleepUntil(l.epoch.Add(w.load.warmup + time.Duration(k)*time.Second))
		cuts, cpuAt = append(cuts, l.since()), append(cpuAt, cpuNow())
	}
	if lc != nil {
		lc.end()
		out.layers = lc
		out.pendingP50 = lc.pendingP50()
	}
	var slow []float64
	if host != nil {
		slow = host.factors(cuts)
	}
	close(stopSubmit)
	<-submitDone
	out.liveHeapMB = liveHeapMB()

	// Drain: everything submitted must commit at replica 0, then every
	// replica must reach the last block the oracle will ask about.
	deadline := time.Now().Add(w.load.drain)
	for l.committed.Load() < l.submitted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	frozen := sft.Height(max(l.strongTop.Load(), l.lastTxTop.Load()))
	caughtUp := c.waitHeight(frozen, deadline)
	stopped = true
	stopErr := c.stop()
	<-readerDone

	if l.submitErr != nil {
		return nil, l.submitErr
	}
	out.oracle = checkReal(c, l, frozen)
	if stopErr != nil {
		out.oracle = append(out.oracle, "shutdown: "+stopErr.Error())
	}
	if !caughtUp {
		out.oracle = append(out.oracle, fmt.Sprintf("a replica had not committed height %d by the drain deadline", frozen))
	}

	l.summarize(out, cuts, cpuAt, slow)
	out.poolUsed = float64(l.submitted.Load()) / float64(src.capacity())
	if spans != nil {
		if err := spans.write(filepath.Join(o.outDir, name+".spans.json")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// summarize turns what the submitter and the reader recorded into the
// outcome's counts, per-slice values and whole-window samples. cuts are the
// slice boundaries in ns since epoch, cpuAt the process CPU time at each, and
// slow, unless nil, how much slower than nominal the host ran in each slice.
func (l *load) summarize(out *realOutcome, cuts []int64, cpuAt []time.Duration, slow []float64) {
	submitted := int(l.submitted.Load())
	slices := len(cuts) - 1
	winStart, winEnd := cuts[0], cuts[slices]
	// A clock may have started between the nominal end of warm-up and the
	// moment the measuring goroutine woke to make the first cut; it belongs
	// to the first slice.
	sliceOf := func(at int64) int {
		k := sort.Search(len(cuts), func(k int) bool { return cuts[k] > at }) - 1
		return min(max(k, 0), slices-1)
	}

	// Throughput and failures count every transaction; latency is clocked on
	// every l.every-th one.
	first := l.firstMeasured
	if first < 0 {
		first = submitted
	}
	out.attempted = submitted - first
	for i := first; i < submitted; i++ {
		if l.seen[i] == 0 {
			out.failed++
		}
	}
	out.failed += l.badCode
	committedIn := make([]int, slices)
	var lag []float64
	for _, b := range l.blocks {
		if b.commitAt < winStart || b.commitAt >= winEnd {
			continue
		}
		out.blocks++
		out.inWindow += b.fresh
		committedIn[sliceOf(b.commitAt)] += b.fresh
		if b.txns == 0 {
			out.emptyBlks++
		} else if b.strongAt != 0 {
			lag = append(lag, float64(b.strongAt-b.commitAt)/1e6)
		}
	}
	commitBy, strongBy := make([][]float64, slices), make([][]float64, slices)
	var commitMs, strongMs, lateMs []float64
	for i := first; i < submitted; i++ {
		if l.spec.rate > 0 {
			lateMs = append(lateMs, float64(l.lateNs[i])/1e6)
		}
		clock := i / l.every
		if i%l.every != 0 || l.commitAt[clock] == 0 {
			continue
		}
		start := l.startAt[clock].Load()
		k := sliceOf(start)
		ms := float64(l.commitAt[clock]-start) / 1e6
		commitMs, commitBy[k] = append(commitMs, ms), append(commitBy[k], ms)
		if l.strongAt[clock] != 0 {
			ms := float64(l.strongAt[clock]-start) / 1e6
			strongMs, strongBy[k] = append(strongMs, ms), append(strongBy[k], ms)
		}
	}
	for k := 0; k < slices; k++ {
		f := 1.0
		if slow != nil {
			f = slow[k]
		}
		secs := float64(cuts[k+1]-cuts[k]) / 1e9
		out.sliceTPS = append(out.sliceTPS, float64(committedIn[k])/secs*f)
		if committedIn[k] > 0 {
			out.sliceCPUPerTx = append(out.sliceCPUPerTx, float64(cpuAt[k+1]-cpuAt[k])/1e6/float64(committedIn[k])/f)
		}
		if len(commitBy[k]) > 0 {
			lat := newSample(commitBy[k])
			out.sliceCommitP50 = append(out.sliceCommitP50, lat.q(0.5)/f)
			out.sliceCommitP90 = append(out.sliceCommitP90, lat.q(0.9)/f)
		}
		if len(strongBy[k]) > 0 {
			out.sliceStrongP50 = append(out.sliceStrongP50, newSample(strongBy[k]).q(0.5)/f)
		}
	}
	out.hostSlow = 1
	if slow != nil {
		out.hostSlow = midmean(slow)
	}
	out.commitMs, out.strongMs = newSample(commitMs), newSample(strongMs)
	out.strongLag, out.lateMs = newSample(lag), newSample(lateMs)
	out.captured = l.captured
}

// liveHeapMB collects garbage and returns what is still reachable, in MB:
// what the process retains, without the garbage that happened to be waiting
// for the next cycle. Peak RSS moved by 25% between identical runs depending
// on where the collector's cycles fell; this does not.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
