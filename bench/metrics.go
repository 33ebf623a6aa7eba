package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// runSeconds is the measured window the driver asks for. The driver makes
// 4 + 22 x 4 = 92 runs and two builds inside 3420 s, so one run — process
// start, set-up, window, drain, oracle — has to fit in about 33 s.
const runSeconds = 20

// metricDef is one row of BENCHMARK.json. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. moves (README, "How the metrics interact") is not part of the
// driver's schema and stays out of the manifest.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// endToEnd is what a user of the system would see. Every workload reports
// every one of them. On sim100_fault the three latencies are virtual time
// under the modelled 100 ms network — its `why` says so — while tps,
// cpu_ms_per_tx, live_heap_mb and setup_s are wall-clock on every workload.
// On the three CPU-bound workloads the wall-clock rates and latencies are
// scaled to the nominal host speed (calib.go). A bound is set by the
// noisiest workload for that metric: bank_paced, which is not scaled, for
// the latencies.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tps", unit: "1/s", better: "higher", bound: 0.15},
	{name: "commit_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "commit_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "strong_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_tx", unit: "ms", better: "lower", bound: 0.20},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.25},
}

// workloadDef names a workload, says why it exists, and runs it.
type workloadDef struct {
	name string
	why  string
	run  func(o runOpts) (*runResult, error)
}

var workloads = []workloadDef{
	{
		name: "bank_paced",
		why:  "n=4 real stack, rounds paced 2 ms apart, open loop 1000 tx/s: small blocks, nothing queues, latency is rounds x per-block blocking steps, CPU is per-round cost",
		run: func(o runOpts) (*runResult, error) {
			return realResult("bank_paced", realWorkload{
				cluster:    clusterSpec{n: 4, batch: 256, bank: true, extraWait: pacedExtraWait},
				load:       loadSpec{rate: pacedRate, warmup: realWarmup, drain: realDrain},
				poolRate:   pacedRate,
				makeSource: newBankSource,
			}, o)
		},
	},
	{
		name: "bank_sat",
		why:  "same n=4 cluster plus WAL with fsync, closed loop 2048 outstanding: both cores saturated, per-transaction CPU (app, tx signatures, gob) sets tps; scaled to nominal host speed",
		run: func(o runOpts) (*runResult, error) {
			return realResult("bank_sat", realWorkload{
				cluster:    clusterSpec{n: 4, batch: 512, bank: true, wal: true},
				load:       loadSpec{outstanding: 2048, warmup: realWarmup, drain: realDrain},
				poolRate:   bankSatPoolRate,
				makeSource: newBankSource,
				cpuBound:   true,
			}, o)
		},
	},
	{
		name: "order_sat",
		why:  "n=7 real stack, no app, unsigned 64-byte txns, closed loop 8192 outstanding: tcpnet, gob, aggregation and diembft only; an app change must not move it; scaled to nominal host speed",
		run: func(o runOpts) (*runResult, error) {
			return realResult("order_sat", realWorkload{
				cluster:    clusterSpec{n: 7, batch: 1024},
				load:       loadSpec{outstanding: 8192, warmup: realWarmup, drain: realDrain, clockEvery: 16},
				poolRate:   orderSatPoolRate,
				makeSource: newOrderSource,
				cpuBound:   true,
			}, o)
		},
	},
	{
		name: "sim100_fault",
		why:  "simnet n=100 at delta=100ms with crash, restart, partition and heal: tracker, pacemaker, statesync, simnet only; latencies are virtual time, the rest scaled to nominal host speed",
		run:  runSim,
	},
}

// Frozen load constants; README "Calibrated constants" records the date and
// CPU they were chosen on.
const (
	pacedRate        = 1000.0
	pacedExtraWait   = 2 * time.Millisecond
	bankSatPoolRate  = 12800.0
	orderSatPoolRate = 400000.0
	realWarmup       = 3 * time.Second
	realDrain        = 5 * time.Second
)

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// realResult runs a real-stack workload and names what it measured.
func realResult(name string, w realWorkload, o runOpts) (*runResult, error) {
	out, err := runReal(name, w, o)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Correct:   len(out.oracle) == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, v := range out.oracle {
		res.notes = append(res.notes, "ORACLE: "+v)
	}
	secs := out.window.Seconds()
	e2e := map[string]float64{
		"setup_s":       out.setup.Seconds(),
		"tps":           midmean(out.sliceTPS),
		"commit_ms_p50": midmean(out.sliceCommitP50),
		"commit_ms_p90": midmean(out.sliceCommitP90),
		"strong_ms_p50": midmean(out.sliceStrongP50),
		"cpu_ms_per_tx": midmean(out.sliceCPUPerTx),
		"live_heap_mb":  out.liveHeapMB,
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%s seed=%d window=%.0fs ops=%d failed=%d committed_in_window=%d (%.1f/s) blocks=%d", name, o.seed, secs, out.attempted, out.failed, out.inWindow, float64(out.inWindow)/secs, out.blocks),
		fmt.Sprintf("whole window: commit_ms p50=%.3f p90=%.3f p99=%.3f max=%.3f (n=%d)", out.commitMs.q(0.5), out.commitMs.q(0.9), out.commitMs.q(0.99), out.commitMs.max(), out.commitMs.n()),
		fmt.Sprintf("whole window: strong_ms p50=%.3f p90=%.3f (n=%d)", out.strongMs.q(0.5), out.strongMs.q(0.9), out.strongMs.n()),
		fmt.Sprintf("metrics below are midmeans over %d one-second slices of %d commit and %d strong latency samples, scaled to nominal host speed by %.4f (1 = as measured)", len(out.sliceTPS), out.commitMs.n(), out.strongMs.n(), out.hostSlow),
	)
	for _, sl := range []struct {
		name   string
		values []float64
	}{{"tps", out.sliceTPS}, {"commit_ms_p50", out.sliceCommitP50}, {"commit_ms_p90", out.sliceCommitP90}, {"strong_ms_p50", out.sliceStrongP50}, {"cpu_ms_per_tx", out.sliceCPUPerTx}} {
		s := newSample(sl.values)
		res.notes = append(res.notes, fmt.Sprintf("slices of %-14s min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g (n=%d)", sl.name, s.q(0), s.q(0.25), s.q(0.5), s.q(0.75), s.max(), s.n()))
	}
	if out.lateMs.n() > 0 {
		res.notes = append(res.notes, fmt.Sprintf("gen_late_ms p50=%.4f p99=%.4f max=%.3f (n=%d)", out.lateMs.q(0.5), out.lateMs.q(0.99), out.lateMs.max(), out.lateMs.n()))
	}
	if !o.trace {
		fillEndToEnd(res, e2e)
		return res, nil
	}
	layers, err := realLayers(name, out, e2e, o)
	if err != nil {
		return nil, err
	}
	fillPerLayer(res, layers)
	return res, nil
}

// fillEndToEnd copies exactly the end-to-end metrics into the result, with
// their units, and prints each by name.
func fillEndToEnd(res *runResult, values map[string]float64) {
	for _, m := range endToEnd {
		v, ok := values[m.name]
		if !ok {
			panic("bench: workload did not measure " + m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		res.notes = append(res.notes, fmt.Sprintf("%-16s %14.4f %s", m.name, v, m.unit))
	}
}

// fillPerLayer copies exactly the per-layer metrics into the result. A layer
// that does not run on this workload reports 0.
func fillPerLayer(res *runResult, values map[string]float64) {
	for _, m := range perLayer {
		v := values[m.name]
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		res.notes = append(res.notes, fmt.Sprintf("%-40s %16.4f %s", m.name, v, m.unit))
	}
}

// printManifest writes BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart.
func printManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}
