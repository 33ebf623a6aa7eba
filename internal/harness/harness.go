// Package harness is a scenario library over sft.Simnet: a Scenario names a
// cluster, a latency model, a fault schedule and the facade options every
// replica runs with; Run builds one sft.Node per replica on one simulated
// world, exactly as a user of the facade would, and aggregates the
// measurements the paper's evaluation reports: regular-commit latency,
// x-strong-commit latency per resilience level, throughput, and message
// complexity. The per-figure experiments (Figure 7a/7b, Figure 8,
// message complexity, the liveness theorems) live in experiments.go.
package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/pacemaker"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/sft"
)

// Scenario describes one experiment run.
type Scenario struct {
	Name string

	// Cluster shape. N must be 3f+1; F derives f.
	N int

	// Latency is the network model; required. PreGST wraps one for partial
	// synchrony.
	Latency sft.LatencyModel
	// Seed makes runs reproducible: it seeds the simulation, derives the
	// cluster PKI and, through Config.Seed, every Byzantine replica's
	// behaviour.
	Seed int64
	// Duration is the virtual run length.
	Duration time.Duration
	// Warmup and TailMargin clip measurement to blocks created inside
	// [Warmup, Duration-TailMargin], removing start-up transients and
	// blocks whose strength could not have saturated before the run ends.
	Warmup, TailMargin time.Duration

	// Scheme selects the signature implementation: crypto.SchemeSim (the
	// default, fast and deterministic, signatures unchecked unless
	// sft.WithReference asks), the aggregate schemes for compact
	// certificates, or crypto.SchemeEd25519 for real crypto (always checked).
	Scheme string

	// Options configure every replica through the facade: engine, commit
	// rule, pacemaker, timeouts, payload, execution layer, and the reference
	// arms (sft.WithReference). They apply after the harness defaults, which
	// withDefaults prepends, so a scenario's option wins; an sft.CommitRule
	// replaces the default one whole, so it restates Horizon: horizon(n).
	// Run applies the key ring, transport and observer after them, so no
	// option can rewire a node away from the run's world; a WithScheme that
	// contradicts the ring's scheme fails the run.
	Options []sft.Option

	// Faults: crash times and Byzantine behavior chains per replica. Each
	// listed replica runs sft.WithAdversary with its chain, uniformly for
	// both protocols.
	Crash       map[types.ReplicaID]time.Duration
	Adversaries map[types.ReplicaID][]sft.AdversarySpec

	// Partitions schedules network splits on the simulator (see
	// sft.Simnet.PartitionAt): each plan installs its groups at At and — when
	// Heal > 0 — restores full connectivity at Heal. Later plans replace
	// earlier ones.
	Partitions []PartitionPlan

	// Crashes are kill/restart schedules: each plan's replica runs with a
	// write-ahead log, is killed at Crash, and (when Restart > 0) comes
	// back restored from that log and re-joins via state sync. Replicas
	// listed here must not also appear in Crash/Byzantine.
	Crashes []CrashPlan
	// DataDir roots the per-replica WAL directories for Crashes (and, when
	// set with no Crashes, gives EVERY replica a journal). Empty means a
	// temporary directory that is removed when Run returns.
	DataDir string
	// RecordChains makes Result.Chains hold every replica's committed block
	// per height — the crash-recovery consistency checks read it — and, for
	// replicas running sft.WithApp, Result.AppHashes their state roots.
	RecordChains bool
	// RecordStrengths makes Result.Strengths hold every replica's maximum
	// observed strength per block (regular commits folded in at x = F) and
	// Result.Blocks the blocks those observations refer to — the invariant
	// checkers of the scenario fuzzer read them.
	RecordStrengths bool

	// Levels are the strength values x (in replicas tolerated) whose
	// first-reach latency is recorded. Defaults to the 1.0f..2.0f sweep.
	Levels []int

	// LevelObservers restricts strength-latency sampling to these replicas
	// (nil = all). Figure 7b uses it to exclude the outcast region, whose
	// replicas see their own never-chained QCs and hence privately observe
	// levels the chain never certifies.
	LevelObservers map[types.ReplicaID]bool

	// Workload shape: modeled transactions and bytes per block (defaults
	// to the paper's ~1000 txns / ~450KB). sft.WithPayloadNow in Options
	// replaces the synthetic payload.
	PayloadTxns  int
	PayloadBytes int
}

// PartitionPlan schedules one network split: Groups install at At (replicas
// not listed form one implicit final group) and the split heals at Heal
// (0 = never).
type PartitionPlan struct {
	At, Heal time.Duration
	Groups   [][]types.ReplicaID
}

// CrashPlan schedules one replica's kill and (optional) restart. The
// replica runs journal-backed; at Crash it stops processing events (its WAL
// retains everything flushed — i.e. everything, since engines flush per
// event); at Restart a fresh engine is recovered from the WAL, re-joins via
// state sync, and resumes voting under its pre-crash marker obligations.
type CrashPlan struct {
	Replica types.ReplicaID
	Crash   time.Duration
	// Restart of 0 means the replica stays down.
	Restart time.Duration
}

// Result aggregates one scenario run.
type Result struct {
	Scenario *Scenario

	// CommittedBlocks/Txns are counted at the observer (first honest,
	// non-crashed replica).
	CommittedBlocks int
	CommittedTxns   int64
	ThroughputTPS   float64
	BlocksPerSec    float64

	// RegularLatency is block-creation-to-commit over all blocks over all
	// replicas (the paper's measurement), window-clipped.
	RegularLatency Summary
	// LevelLatency maps strength level x to creation-to-x-strong latency.
	LevelLatency map[int]Summary
	// LevelCommitDelay maps strength level x to the delay between a
	// replica's regular (f-strong) commit of a block and the block reaching
	// x-strong at that replica — the operator-facing "how much longer for
	// more resilience" number. Rises observed in the same engine event as
	// the commit (or, in DiemBFT, microseconds before it: strength outputs
	// precede commit outputs within one event) count as zero.
	LevelCommitDelay map[int]Summary

	Msgs          sft.MsgStats
	MsgsPerCommit float64
	BytesPerBlock float64
	FinalRound    types.Round
	Events        int64

	// Observer is the replica whose commits the scalar counters use (the
	// first one that is neither crashed, Byzantine, nor under a CrashPlan).
	Observer types.ReplicaID
	// Chains maps replica -> height -> committed block when
	// Scenario.RecordChains is set.
	Chains map[types.ReplicaID]map[types.Height]types.BlockID

	// Strengths maps replica -> block -> maximum observed strength (regular
	// commits folded in at x = F) when Scenario.RecordStrengths is set;
	// Blocks indexes every block those observations mention. The scenario
	// fuzzer's Definition 1 and monotonicity checkers read them.
	Strengths map[types.ReplicaID]map[types.BlockID]int
	Blocks    map[types.BlockID]*types.Block
	// StrengthViolations lists monotonicity/bounds breaches observed live
	// (strength must rise, stay within (0, 2F], per replica per block).
	StrengthViolations []string
	// PartitionDrops counts deliveries discarded by scheduled partitions.
	PartitionDrops int64

	// AppHashes maps replica -> height -> the execution-layer state root the
	// replica committed there, recorded at commit time for replicas running
	// sft.WithApp when Scenario.RecordChains is set. The fuzzer's
	// execution-agreement invariant reads it.
	AppHashes map[types.ReplicaID]map[types.Height][32]byte
	// AppExecutedBlocks is the number of blocks the observer's replica ran
	// through its state machine (sft.WithApp runs only).
	AppExecutedBlocks int64

	// Pacemakers holds each replica's final timeout-buffer
	// accounting (buffered entries, per-peer high-watermark, cap drops) —
	// the evidence the liveness-attack A/B uses to prove bounded memory
	// under timeout-spam. Replicas under a CrashPlan report their final
	// incarnation; Streamlet replicas report zero.
	Pacemakers map[types.ReplicaID]pacemaker.Stats
}

// DefaultLevels returns the paper's x sweep {1.0f, 1.1f, ..., 2.0f} as
// integer strength values.
func DefaultLevels(f int) []int {
	out := make([]int, 0, 11)
	seen := make(map[int]bool)
	for i := 0; i <= 10; i++ {
		x := f + i*f/10
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// LevelLabel renders a strength value as a multiple of f ("1.3f").
func LevelLabel(x, f int) string {
	return fmt.Sprintf("%.1ff", float64(x)/float64(f))
}

// horizon is the endorsement-walk depth every scenario runs with: deep
// enough for strength to reach 2f, bounded so one walk stays O(n). A scenario
// that sets its own sft.CommitRule passes it explicitly
// (TestEveryCommitRuleSetsHorizon).
func horizon(n int) int { return 2*n + 16 }

// F is the scenario's fault tolerance f = (N-1)/3.
func (s *Scenario) F() int { return (s.N - 1) / 3 }

func (s *Scenario) withDefaults() *Scenario {
	c := *s
	if c.Duration == 0 {
		c.Duration = time.Minute
	}
	if c.Levels == nil {
		c.Levels = DefaultLevels(c.F())
	}
	if c.PayloadTxns == 0 {
		c.PayloadTxns = workload.PaperTxnsPerBlock
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = workload.PaperBlockBytes
	}
	if c.TailMargin == 0 {
		c.TailMargin = c.Duration / 5
	}
	if c.Scheme == "" {
		c.Scheme = crypto.SchemeSim
	}
	c.Options = append([]sft.Option{
		sft.WithRoundTimeout(time.Second),
		sft.WithDelta(100 * time.Millisecond),
		sft.WithCommitRule(sft.CommitRule{Horizon: horizon(c.N)}),
		sft.WithPruneKeep(types.Height(3*c.N + 64)),
		sft.WithPayloadNow(workload.PaperPayload(c.Seed, c.PayloadTxns, c.PayloadBytes)),
	}, s.Options...)
	return &c
}

// PreGST wraps a latency model for partial synchrony: a message sent before
// virtual time gst arrives extra later than inner says, after which inner
// alone applies. Run binds the wrapper to the clock of the world it builds, so
// it works only as Scenario.Latency itself.
func PreGST(inner sft.LatencyModel, gst, extra time.Duration) sft.LatencyModel {
	return &preGST{inner: inner, gst: gst, extra: extra}
}

type preGST struct {
	inner      sft.LatencyModel
	gst, extra time.Duration
	clock      interface{ Now() time.Duration }
}

// Delay implements sft.LatencyModel: inner's delay (which draws the jitter),
// plus extra while the clock is before GST.
func (p *preGST) Delay(from, to types.ReplicaID, size int, rng *rand.Rand) time.Duration {
	if p.clock == nil {
		panic("harness: a PreGST model must be Scenario.Latency itself, where Run binds it to the world's clock")
	}
	d := p.inner.Delay(from, to, size, rng)
	if p.clock.Now() < p.gst {
		d += p.extra
	}
	return d
}

// collector accumulates measurements during a run.
type collector struct {
	sc       *Scenario
	levels   []int
	regular  Series
	byLevel  map[int]*Series
	reached  map[types.ReplicaID]map[types.BlockID]int
	commits  map[types.ReplicaID]int
	chains   map[types.ReplicaID]map[types.Height]types.BlockID
	observer types.ReplicaID

	// Commit→x-strong delay accounting (in-window blocks only). commitAt
	// holds each replica's regular-commit time per block; delayLevel the
	// per-level delay series. Strength rises can precede the commit within
	// one engine event (DiemBFT emits Strength outputs before Commit), so
	// pre-commit rises buffer in pendingRises and flush at commit with the
	// delay clamped at zero.
	commitAt     map[types.ReplicaID]map[types.BlockID]time.Duration
	delayLevel   map[int]*Series
	pendingRises map[types.ReplicaID]map[types.BlockID][]pendingRise

	// Invariant-checker inputs (Scenario.RecordStrengths). strengths holds
	// the per-replica maximum (commits folded in at F); lastEvent tracks
	// only tracker-reported strength events, the stream the monotonicity
	// invariant constrains.
	strengths  map[types.ReplicaID]map[types.BlockID]int
	lastEvent  map[types.ReplicaID]map[types.BlockID]int
	blocks     map[types.BlockID]*types.Block
	violations []string
}

// pendingRise is one strength rise observed before the block's regular
// commit, awaiting the commit time to resolve into a delay.
type pendingRise struct {
	x  int
	at time.Duration
}

func newCollector(sc *Scenario, observer types.ReplicaID) *collector {
	c := &collector{
		sc:           sc,
		levels:       sc.Levels,
		byLevel:      make(map[int]*Series, len(sc.Levels)),
		reached:      make(map[types.ReplicaID]map[types.BlockID]int),
		commits:      make(map[types.ReplicaID]int),
		observer:     observer,
		commitAt:     make(map[types.ReplicaID]map[types.BlockID]time.Duration),
		delayLevel:   make(map[int]*Series, len(sc.Levels)),
		pendingRises: make(map[types.ReplicaID]map[types.BlockID][]pendingRise),
	}
	for _, lv := range sc.Levels {
		c.byLevel[lv] = &Series{}
		c.delayLevel[lv] = &Series{}
	}
	if sc.RecordChains {
		c.chains = make(map[types.ReplicaID]map[types.Height]types.BlockID)
	}
	if sc.RecordStrengths {
		c.strengths = make(map[types.ReplicaID]map[types.BlockID]int)
		c.lastEvent = make(map[types.ReplicaID]map[types.BlockID]int)
		c.blocks = make(map[types.BlockID]*types.Block)
	}
	return c
}

// noteRestart resets the monotonicity baseline for a replica: a restarted
// incarnation may legitimately re-announce a level the pre-crash one already
// reported (its tracker restores from the journal, then re-observes via
// state sync). Monotonicity is a per-incarnation invariant.
func (c *collector) noteRestart(id types.ReplicaID) {
	if c.lastEvent != nil {
		delete(c.lastEvent, id)
	}
}

// recordStrength folds one strength observation (x = F for regular commits)
// into the checker inputs, flagging monotonicity and bounds breaches.
func (c *collector) recordStrength(rep types.ReplicaID, b *types.Block, x int, fromCommit bool) {
	if c.strengths == nil {
		return
	}
	id := b.ID()
	if _, ok := c.blocks[id]; !ok {
		c.blocks[id] = b
	}
	m, ok := c.strengths[rep]
	if !ok {
		m = make(map[types.BlockID]int)
		c.strengths[rep] = m
	}
	if !fromCommit {
		// Live monotonicity/bounds checks: strength reports must strictly
		// rise per replica per block and stay within (0, 2F].
		le, ok := c.lastEvent[rep]
		if !ok {
			le = make(map[types.BlockID]int)
			c.lastEvent[rep] = le
		}
		if x <= 0 || x > 2*c.sc.F() {
			c.violations = append(c.violations,
				fmt.Sprintf("replica %d reported out-of-range strength %d for %s (f=%d)", rep, x, id, c.sc.F()))
		} else if prev, seen := le[id]; seen && x <= prev {
			c.violations = append(c.violations,
				fmt.Sprintf("replica %d strength for %s did not rise: %d after %d", rep, id, x, prev))
		}
		if x > le[id] {
			le[id] = x
		}
	}
	if prev, seen := m[id]; !seen || x > prev {
		m[id] = x
	}
}

// inWindow reports whether a block's creation time falls inside the
// measurement window.
func (c *collector) inWindow(b *types.Block) bool {
	ts := time.Duration(b.Timestamp)
	return ts >= c.sc.Warmup && ts <= c.sc.Duration-c.sc.TailMargin
}

func (c *collector) onCommit(rep types.ReplicaID, now time.Duration, b *types.Block) {
	c.commits[rep]++
	if c.chains != nil {
		m, ok := c.chains[rep]
		if !ok {
			m = make(map[types.Height]types.BlockID)
			c.chains[rep] = m
		}
		m[b.Height] = b.ID()
	}
	c.recordStrength(rep, b, c.sc.F(), true)
	if c.inWindow(b) {
		c.regular.AddDuration(now - time.Duration(b.Timestamp))
	}
	if c.inWindow(b) && (c.sc.LevelObservers == nil || c.sc.LevelObservers[rep]) {
		id := b.ID()
		m, ok := c.commitAt[rep]
		if !ok {
			m = make(map[types.BlockID]time.Duration)
			c.commitAt[rep] = m
		}
		m[id] = now
		// Rises the tracker reported ahead of this commit resolve now.
		if pend := c.pendingRises[rep][id]; len(pend) > 0 {
			for _, p := range pend {
				c.addLevelDelay(p.x, p.at-now)
			}
			delete(c.pendingRises[rep], id)
		}
	}
}

// addLevelDelay folds one commit→x-strong delay into the per-level series,
// clamping at zero (a rise reported in, or just ahead of, the commit's own
// engine event costs the operator nothing extra).
func (c *collector) addLevelDelay(lv int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	if s, ok := c.delayLevel[lv]; ok {
		s.AddDuration(d)
	}
}

func (c *collector) onStrength(rep types.ReplicaID, now time.Duration, b *types.Block, x int) {
	c.recordStrength(rep, b, x, false)
	if c.sc.LevelObservers != nil && !c.sc.LevelObservers[rep] {
		return
	}
	if !c.inWindow(b) {
		return
	}
	m, ok := c.reached[rep]
	if !ok {
		m = make(map[types.BlockID]int)
		c.reached[rep] = m
	}
	prev := m[b.ID()]
	if x <= prev {
		return
	}
	m[b.ID()] = x
	lat := now - time.Duration(b.Timestamp)
	id := b.ID()
	committed, hasCommit := c.commitAt[rep][id]
	for _, lv := range c.levels {
		if lv > prev && lv <= x {
			c.byLevel[lv].AddDuration(lat)
			if hasCommit {
				c.addLevelDelay(lv, now-committed)
			} else {
				// Strength outputs precede the commit output within one
				// DiemBFT event; park the rise until the commit lands.
				pm, ok := c.pendingRises[rep]
				if !ok {
					pm = make(map[types.BlockID][]pendingRise)
					c.pendingRises[rep] = pm
				}
				pm[id] = append(pm[id], pendingRise{x: lv, at: now})
			}
		}
	}
}

// Run executes the scenario and returns its measurements.
func Run(sc *Scenario) (*Result, error) {
	s := sc.withDefaults()
	if s.N < 4 || (s.N-1)%3 != 0 {
		return nil, fmt.Errorf("harness: n=%d must be 3f+1 with f >= 1", s.N)
	}
	if s.Latency == nil {
		return nil, fmt.Errorf("harness: latency model required")
	}
	ring, err := sft.NewKeyRing(s.N, s.Seed, sft.Scheme(s.Scheme))
	if err != nil {
		return nil, err
	}

	// Observer: first replica that is neither crashed nor Byzantine nor
	// scheduled for a kill/restart.
	planned := make(map[types.ReplicaID]bool, len(s.Crashes))
	for _, plan := range s.Crashes {
		planned[plan.Replica] = true
	}
	observer := types.ReplicaID(0)
	for id := types.ReplicaID(0); int(id) < s.N; id++ {
		_, crashed := s.Crash[id]
		_, byz := s.Adversaries[id]
		if !crashed && !byz && !planned[id] {
			observer = id
			break
		}
	}
	col := newCollector(s, observer)

	// A pre-GST wrapper reads this run's clock; bind a copy, so one scenario
	// can run in several worlds at once.
	latency := s.Latency
	gst, delayed := latency.(*preGST)
	if delayed {
		bound := *gst
		gst, latency = &bound, &bound
	}
	world, err := sft.NewSimnet(sft.SimnetConfig{N: s.N, Latency: latency, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	if delayed {
		gst.clock = world
	}

	// Durability: replicas under a CrashPlan (or every replica, when a
	// DataDir is pinned) run journal-backed so restarts can recover.
	durable := make(map[types.ReplicaID]bool)
	for _, plan := range s.Crashes {
		durable[plan.Replica] = true
	}
	dataDir := s.DataDir
	if len(durable) > 0 || dataDir != "" {
		if dataDir == "" {
			tmp, err := os.MkdirTemp("", "sft-wal-")
			if err != nil {
				return nil, fmt.Errorf("harness: wal dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			dataDir = tmp
		} else if len(s.Crashes) == 0 {
			for i := 0; i < s.N; i++ {
				durable[types.ReplicaID(i)] = true
			}
		}
	}
	defer world.Close() // the error paths; the run's end checks Close itself

	// The coalition: every Byzantine replica knows the others.
	coalition := make([]types.ReplicaID, 0, len(s.Adversaries))
	for rep := range s.Adversaries {
		coalition = append(coalition, rep)
	}
	sort.Slice(coalition, func(i, j int) bool { return coalition[i] < coalition[j] })

	nodes := make([]*sft.Node, s.N)
	hasApp := make([]bool, s.N)
	var appHashes map[types.ReplicaID]map[types.Height][32]byte
	for i := range nodes {
		id := types.ReplicaID(i)
		observe := func(ev sft.CommitEvent) {
			if !ev.Regular {
				col.onStrength(id, ev.Time, ev.Block, ev.Strength)
				return
			}
			col.onCommit(id, ev.Time, ev.Block)
			if !s.RecordChains || !hasApp[id] {
				return
			}
			// The executor holds a committed block's root until far below
			// the committed height, so it is always there at commit time.
			if root, ok := nodes[id].AppHashAt(ev.Block.ID()); ok {
				if appHashes == nil {
					appHashes = make(map[types.ReplicaID]map[types.Height][32]byte)
				}
				m := appHashes[id]
				if m == nil {
					m = make(map[types.Height][32]byte)
					appHashes[id] = m
				}
				m[ev.Height] = root
			}
		}
		opts := append(append([]sft.Option(nil), s.Options...),
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithObserver(observe),
		)
		if specs := s.Adversaries[id]; len(specs) > 0 {
			opts = append(opts, sft.WithAdversary(specs...), sft.WithAdversaryPeers(coalition...))
		}
		if durable[id] {
			// Simulated crashes stop event dispatch, not the host process, so
			// a Simnet node's page-cache journal models the kill faithfully.
			opts = append(opts, sft.WithWAL(filepath.Join(dataDir, fmt.Sprintf("replica-%d", id))))
		}
		if nodes[i], err = sft.New(sft.Config{ID: id, N: s.N, Seed: s.Seed}, opts...); err != nil {
			return nil, err
		}
		// A restart rebuilds the engine from the same options, so whether
		// the node executes blocks never changes after this.
		hasApp[i] = nodes[i].AppState() != nil
	}
	for id, at := range s.Crash {
		world.CrashAt(id, at)
	}
	for _, plan := range s.Partitions {
		world.PartitionAt(plan.At, plan.Groups...)
		if plan.Heal > 0 {
			world.HealAt(plan.Heal)
		}
	}
	for _, plan := range s.Crashes {
		world.CrashAt(plan.Replica, plan.Crash)
		if plan.Restart <= 0 {
			continue
		}
		id := plan.Replica
		if err := world.RestartAt(id, plan.Restart, func(sft.RecoveryInfo) { col.noteRestart(id) }); err != nil {
			return nil, err
		}
	}
	world.Run(s.Duration)
	if err := world.Close(); err != nil {
		return nil, fmt.Errorf("harness: close: %w", err)
	}

	res := &Result{
		Scenario:           s,
		Observer:           observer,
		CommittedBlocks:    col.commits[observer],
		LevelLatency:       make(map[int]Summary, len(s.Levels)),
		LevelCommitDelay:   make(map[int]Summary, len(s.Levels)),
		Msgs:               world.Stats(),
		Events:             world.Events(),
		Chains:             col.chains,
		AppHashes:          appHashes,
		AppExecutedBlocks:  nodes[observer].AppExecuted(),
		Strengths:          col.strengths,
		Blocks:             col.blocks,
		StrengthViolations: col.violations,
		PartitionDrops:     world.PartitionDrops(),
		Pacemakers:         make(map[types.ReplicaID]pacemaker.Stats, s.N),
	}
	res.CommittedTxns = int64(res.CommittedBlocks) * int64(s.PayloadTxns)
	res.ThroughputTPS = float64(res.CommittedTxns) / s.Duration.Seconds()
	res.BlocksPerSec = float64(res.CommittedBlocks) / s.Duration.Seconds()
	res.RegularLatency = col.regular.Summarize()
	for lv, series := range col.byLevel {
		res.LevelLatency[lv] = series.Summarize()
	}
	for lv, series := range col.delayLevel {
		res.LevelCommitDelay[lv] = series.Summarize()
	}
	if res.CommittedBlocks > 0 {
		res.MsgsPerCommit = float64(res.Msgs.Count) / float64(res.CommittedBlocks)
		res.BytesPerBlock = float64(res.Msgs.Bytes) / float64(res.CommittedBlocks)
	}
	for i, n := range nodes {
		res.Pacemakers[types.ReplicaID(i)] = n.PacemakerStats()
	}
	return res, nil
}
