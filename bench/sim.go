package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/sft"
)

// sim100_fault constants: the paper's scale (n=100, f=33) on its Figure 7a
// network (three regions, delta=100ms), with a fault schedule repeated every
// simPeriod of virtual time. Virtual numbers depend only on the seed.
const (
	simN        = 100
	simDelta    = 100 * time.Millisecond
	simIntra    = time.Millisecond
	simJitter   = 25 * time.Millisecond
	simTimeout  = 4*simDelta + 320*time.Millisecond // internal/harness's Figure 7a value
	simTxns     = 128                               // leader payload per block
	simCrashed  = sft.ReplicaID(7)
	simWarmup   = 60 * time.Second // virtual, inside setup_s
	simPeriod   = 100 * time.Second
	simCrashAt  = 30 * time.Second // offsets inside each period
	simRestart  = 60 * time.Second
	simPartAt   = 80 * time.Second
	simHealAt   = 90 * time.Second
	simStep     = 10 * time.Second // virtual time per timed step
	simTopLevel = 2 * ((simN - 1) / 3)
)

// simPeriodsPerSecond converts the driver's --seconds into whole fault
// periods: the measured virtual duration is fixed by the flag alone, never by
// how fast the host happens to be, so that the virtual metrics repeat
// exactly. Frozen so that 20 s of --seconds is about 20 s of wall time on the
// reference host (README, "Calibrated constants").
const simPeriodsPerSecond = 0.2

// simOutcome is what one simulated run measured.
type simOutcome struct {
	setup  time.Duration
	wall   time.Duration
	events int64
	// stepWall[p][j] and stepCPU[p][j] are the wall and CPU seconds step j
	// of fault period p took, scaled to nominal host speed by the kernel run
	// right after the step on the same thread (calib.go). Step j does the
	// same kind of work in every period, so the typical cost of a period is
	// the sum over j of the median over p — which leaves out the steps the
	// host disturbed in some other way.
	stepWall, stepCPU [][]float64
	hostSlow          float64 // kernel time over nominal, midmean of steps
	liveHeapMB        float64
	msgs              sft.MsgStats
	txns              int // transactions committed at replica 0 in the measured span
	blocks            int
	vcommit           sample // virtual ms
	vstrong           sample
	vstallMs          float64
	vcatchup          sample
	oracle            []string
	timeouts          int64
	layers            *layerCapture
	simNodes          []*sft.Node
	virtualNs         int64
}

// simWatch is the observer state shared by every simulated replica. The
// simulator is single-threaded, so plain fields suffice.
type simWatch struct {
	measureFrom time.Duration
	canon       map[sft.Height]sft.BlockID // first commit seen at each height
	forks       int

	// Replica 0.
	height     sft.Height
	lastCommit time.Duration
	stall      time.Duration
	strength   map[sft.BlockID]int
	nonMono    int
	seenTx     map[uint64]struct{}
	dupTx      int
	txns       int
	blocks     int
	vcommit    []float64
	vstrong    []float64

	// Crashed replica.
	restartedAt time.Duration // 0 = not waiting for a catch-up
	vcatchup    []float64
}

func (w *simWatch) observe(id sft.ReplicaID, ev sft.CommitEvent) {
	if ev.Regular {
		bid := ev.Block.ID()
		if prev, ok := w.canon[ev.Height]; !ok {
			w.canon[ev.Height] = bid
		} else if prev != bid {
			w.forks++
		}
	}
	switch id {
	case 0:
		w.observeZero(ev)
	case simCrashed:
		if ev.Regular && w.restartedAt != 0 && ev.Height+1 >= w.height {
			w.vcatchup = append(w.vcatchup, float64(ev.Time-w.restartedAt)/1e6)
			w.restartedAt = 0
		}
	}
}

func (w *simWatch) observeZero(ev sft.CommitEvent) {
	bid := ev.Block.ID()
	measured := ev.Time >= w.measureFrom
	if ev.Regular {
		w.height = max(w.height, ev.Height)
		if measured {
			if w.lastCommit >= w.measureFrom {
				w.stall = max(w.stall, ev.Time-w.lastCommit)
			}
			w.blocks++
			w.vcommit = append(w.vcommit, float64(ev.Time-time.Duration(ev.Block.Timestamp))/1e6)
			for _, tx := range ev.Block.Payload.Txns {
				key := uint64(tx.Sender)<<40 | tx.Seq
				if _, dup := w.seenTx[key]; dup {
					w.dupTx++
					continue
				}
				w.seenTx[key] = struct{}{}
				w.txns++
			}
		}
		w.lastCommit = ev.Time
		return
	}
	prev := w.strength[bid]
	if ev.Strength < prev {
		w.nonMono++
	}
	if ev.Strength >= simTopLevel && prev < simTopLevel && measured {
		w.vstrong = append(w.vstrong, float64(ev.Time-time.Duration(ev.Block.Timestamp))/1e6)
	}
	w.strength[bid] = max(prev, ev.Strength)
}

// runSimulation builds the n=100 world, runs the warm-up inside set-up, then
// measures `periods` fault periods.
func runSimulation(o runOpts, periods int) (*simOutcome, error) {
	dir, err := scratchDir(o.outDir, "sim100_fault")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       simN,
		Latency: sft.SymmetricLatency(simN, 3, simIntra, simDelta, simJitter),
		Seed:    o.seed,
	})
	if err != nil {
		return nil, err
	}
	defer world.Close()
	ring, err := sft.NewKeyRing(simN, pkiSeed, sft.SchemeSim)
	if err != nil {
		return nil, err
	}
	watch := &simWatch{
		measureFrom: simWarmup,
		canon:       make(map[sft.Height]sft.BlockID),
		strength:    make(map[sft.BlockID]int),
		seenTx:      make(map[uint64]struct{}),
	}
	// One generator feeds whichever replica leads: the simulator calls it
	// from one goroutine in a deterministic order.
	rng := rand.New(rand.NewSource(o.seed))
	var issued uint64
	payload := func(sft.Round, time.Duration) sft.Payload {
		txns := make([]sft.Transaction, simTxns)
		for i := range txns {
			data := make([]byte, 64)
			rng.Read(data)
			txns[i] = sft.Transaction{Sender: uint32(issued % orderClients), Seq: issued/orderClients + 1, Data: data}
			issued++
		}
		return sft.Payload{Txns: txns}
	}
	nodes := make([]*sft.Node, simN)
	for i := range nodes {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(sft.DiemBFT),
			sft.WithScheme(sft.SchemeSim),
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(simTimeout),
			sft.WithPayloadNow(payload),
			sft.WithPruneKeep(512),
			sft.WithObserver(func(ev sft.CommitEvent) { watch.observe(id, ev) }),
		}
		if id == simCrashed {
			opts = append(opts, sft.WithWAL(filepath.Join(dir, "wal-7")))
		}
		if o.trace {
			opts = append(opts, sft.WithObservability(sft.ObsConfig{}))
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: simN, Seed: pkiSeed}, opts...)
		if err != nil {
			return nil, err
		}
	}
	cut := make([]sft.ReplicaID, 0, simN/3)
	for id := simN - simN/3; id < simN; id++ {
		cut = append(cut, sft.ReplicaID(id))
	}
	for p := 0; p < periods; p++ {
		base := simWarmup + time.Duration(p)*simPeriod
		world.CrashAt(simCrashed, base+simCrashAt)
		restart := base + simRestart
		if err := world.RestartAt(simCrashed, restart, func(sft.RecoveryInfo) { watch.restartedAt = restart }); err != nil {
			return nil, err
		}
		world.PartitionAt(base+simPartAt, cut)
		world.HealAt(base + simHealAt)
	}

	world.Run(simWarmup)
	out := &simOutcome{setup: time.Since(processStart)}
	var lc *layerCapture
	if o.trace {
		lc = newSimLayerCapture(nodes, o.outDir, "sim100_fault")
		if err := lc.begin(); err != nil {
			return nil, err
		}
	}
	// The measured span runs in steps of simStep virtual time, each timed on
	// its own, for the same reason the real workloads are cut into slices.
	events0, msgs0, t0 := world.Events(), world.Stats(), time.Now()
	until := simWarmup + time.Duration(periods)*simPeriod
	runtime.LockOSThread() // the kernel must time the thread the simulator runs on
	defer runtime.UnlockOSThread()
	k := newKernel()
	var slow []float64
	for p := 0; p < periods; p++ {
		var wall, cpu []float64
		for at := simWarmup + time.Duration(p)*simPeriod; len(wall) < int(simPeriod/simStep); at += simStep {
			c0, start := cpuNow(), time.Now()
			world.Run(at + simStep)
			w, c := time.Since(start).Seconds(), (cpuNow() - c0).Seconds()
			f := kernelFactor(k)
			wall, cpu, slow = append(wall, w/f), append(cpu, c/f), append(slow, f)
		}
		out.stepWall, out.stepCPU = append(out.stepWall, wall), append(out.stepCPU, cpu)
	}
	out.wall, out.hostSlow = time.Since(t0), midmean(slow)
	out.liveHeapMB = liveHeapMB() // while the world is still reachable
	if lc != nil {
		lc.end()
		out.layers = lc
	}
	out.events = world.Events() - events0
	msgs := world.Stats()
	out.msgs = sft.MsgStats{Count: msgs.Count - msgs0.Count, Bytes: msgs.Bytes - msgs0.Bytes}
	out.virtualNs = int64(until - simWarmup)

	out.txns, out.blocks = watch.txns, watch.blocks
	out.vcommit, out.vstrong = newSample(watch.vcommit), newSample(watch.vstrong)
	out.vcatchup = newSample(watch.vcatchup)
	out.vstallMs = float64(watch.stall) / 1e6
	if watch.forks > 0 {
		out.oracle = append(out.oracle, fmt.Sprintf("%d commits disagreed with another replica's block at the same height", watch.forks))
	}
	if watch.nonMono > 0 {
		out.oracle = append(out.oracle, fmt.Sprintf("%d strength events went down", watch.nonMono))
	}
	if watch.dupTx > 0 {
		out.oracle = append(out.oracle, fmt.Sprintf("%d transactions committed more than once", watch.dupTx))
	}
	if out.vcatchup.n() != periods {
		out.oracle = append(out.oracle, fmt.Sprintf("replica %d caught up after %d of %d restarts", simCrashed, out.vcatchup.n(), periods))
	}
	if out.txns == 0 {
		out.oracle = append(out.oracle, "nothing committed in the measured span")
	}
	return out, nil
}

// kernelFactor runs the calibration kernel nine times on this thread and
// returns the median time over the nominal one.
func kernelFactor(k *kernel) float64 {
	took := make([]float64, 9)
	for i := range took {
		took[i] = float64(k.run())
	}
	if f := newSample(took).q(0.5) / float64(nominalKernel); f > 0 {
		return f
	}
	return 1
}

// typicalTotal returns what all periods would have cost had each step taken
// its median over the periods.
func typicalTotal(steps [][]float64) float64 {
	total := 0.0
	for j := range steps[0] {
		across := make([]float64, len(steps))
		for p := range steps {
			across[p] = steps[p][j]
		}
		_, med, _ := quartiles(across)
		total += med
	}
	return total * float64(len(steps))
}

// runSim is the sim100_fault workload.
func runSim(o runOpts) (*runResult, error) {
	periods := max(1, int(float64(o.seconds)*simPeriodsPerSecond))
	out, err := runSimulation(o, periods)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Correct:   len(out.oracle) == 0,
		Attempted: max(out.txns, 1),
		Metrics:   map[string]metricValue{},
	}
	for _, v := range out.oracle {
		res.notes = append(res.notes, "ORACLE: "+v)
	}
	wall := out.wall.Seconds()
	steadyWall, steadyCPU := typicalTotal(out.stepWall), typicalTotal(out.stepCPU)
	e2e := map[string]float64{
		"setup_s":       out.setup.Seconds(),
		"tps":           float64(out.txns) / steadyWall,
		"commit_ms_p50": out.vcommit.q(0.50),
		"commit_ms_p90": out.vcommit.q(0.90),
		"strong_ms_p50": out.vstrong.q(0.50),
		"cpu_ms_per_tx": steadyCPU * 1e3 / float64(max(out.txns, 1)),
		"live_heap_mb":  out.liveHeapMB,
	}
	res.notes = append(res.notes,
		fmt.Sprintf("sim100_fault seed=%d periods=%d virtual=%.0fs wall=%.3fs (%.3fs at nominal host speed, factor %.4f, %d periods of %d steps) txns=%d blocks=%d events=%d (%.0f events/s)",
			o.seed, periods, float64(out.virtualNs)/1e9, wall, steadyWall, out.hostSlow, len(out.stepWall), len(out.stepWall[0]), out.txns, out.blocks, out.events, float64(out.events)/wall),
		fmt.Sprintf("virtual: commit_ms p50=%.3f p90=%.3f (n=%d) strong_ms p50=%.3f (n=%d) stall_ms=%.3f catchup_ms p50=%.3f (n=%d)",
			out.vcommit.q(0.5), out.vcommit.q(0.9), out.vcommit.n(), out.vstrong.q(0.5), out.vstrong.n(), out.vstallMs, out.vcatchup.q(0.5), out.vcatchup.n()),
	)
	if !o.trace {
		fillEndToEnd(res, e2e)
		return res, nil
	}
	layers, err := simLayers(out, e2e, o)
	if err != nil {
		return nil, err
	}
	fillPerLayer(res, layers)
	return res, nil
}
