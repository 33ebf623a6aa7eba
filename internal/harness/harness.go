// Package harness builds clusters, runs scenarios on the discrete-event
// simulator, and aggregates the measurements the paper's evaluation reports:
// regular-commit latency, x-strong-commit latency per resilience level,
// throughput, and message complexity. The per-figure experiment drivers
// (Figure 7a/7b, Figure 8, message complexity, the liveness theorems) live
// in experiments.go.
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/app"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/pacemaker"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// Protocol selects the consensus engine for a scenario.
type Protocol int

// Supported protocols.
const (
	ProtoDiemBFT Protocol = iota + 1
	ProtoStreamlet
)

// Scenario describes one experiment run.
type Scenario struct {
	Name     string
	Protocol Protocol // default ProtoDiemBFT

	// Cluster shape. N must be 3F+1.
	N, F int

	// Latency is the network model; required.
	Latency simnet.LatencyModel
	// Seed makes runs reproducible.
	Seed int64
	// Duration is the virtual run length.
	Duration time.Duration
	// Warmup and TailMargin clip measurement to blocks created inside
	// [Warmup, Duration-TailMargin], removing start-up transients and
	// blocks whose strength could not have saturated before the run ends.
	Warmup, TailMargin time.Duration

	// DiemBFT engine knobs.
	RoundTimeout   time.Duration
	ExtraWait      time.Duration
	ExtraWaitFor   func(r types.Round) time.Duration
	SFT            bool
	FBFT           bool
	VoteMode       diembft.VoteMode
	IntervalWindow types.Round
	Horizon        int
	PruneKeep      types.Height

	// Active pacemaker knobs (DiemBFT; see diembft.Config). The zero values
	// are the passive paper baseline.
	ActivePacemaker        bool
	TimeoutWindow          types.Round
	PerPeerTimeoutCap      int
	LeaderReputationWindow types.Round

	// Streamlet engine knobs.
	Delta       time.Duration
	DisableEcho bool
	// ProposalWindow bounds how far ahead of the lock-step round a
	// Streamlet proposal may claim to be (0 = unbounded baseline).
	ProposalWindow types.Round

	VerifySignatures bool
	// Scheme selects the signature implementation: crypto.SchemeSim (the
	// default, fast and deterministic), crypto.SchemeSimAgg /
	// crypto.SchemeEd25519Agg for the compact aggregated-certificate
	// variants (ed25519-agg implies verification), or crypto.SchemeEd25519 for real
	// crypto. An ed25519 scenario implies VerifySignatures — running real
	// signatures without checking them measures nothing.
	Scheme string
	// DisableQCCache turns off the per-replica verified-QC memo (DiemBFT
	// engines), forcing every delivery to re-verify. The determinism tests
	// use it to assert cache-on and cache-off runs are bit-identical.
	DisableQCCache bool

	// Partial synchrony: before GST every delivery gets PreGSTExtra added
	// to its delay (GST 0 = synchronous from the start).
	GST         time.Duration
	PreGSTExtra time.Duration

	// Faults: crash times and Byzantine behavior chains per replica. Each
	// listed replica's engine is wrapped with the composed adversary
	// behaviors (internal/adversary), uniformly for both protocols.
	Crash       map[types.ReplicaID]time.Duration
	Adversaries map[types.ReplicaID][]adversary.Spec

	// Partitions schedules network splits on the simulator (see
	// simnet.PartitionAt): each plan installs its groups at At and — when
	// Heal > 0 — restores full connectivity at Heal. Later plans replace
	// earlier ones.
	Partitions []PartitionPlan

	// NaiveEndorsements runs every replica's SFT tracker with the UNSAFE
	// marker-free counting of Appendix C. Only the scenario fuzzer's
	// weakened-rule canary sets it — to prove its Definition 1 checker
	// catches the violation.
	NaiveEndorsements bool

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
	// per height — the crash-recovery consistency checks read it.
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
	// to the paper's ~1000 txns / ~450KB).
	PayloadTxns  int
	PayloadBytes int

	// PayloadNow, when non-nil, replaces the default synthetic payload
	// source with a time-aware one (see compose.Spec.PayloadNow); the bank
	// workload uses it so submit timestamps equal block creation times.
	PayloadNow func(r types.Round, now time.Duration) types.Payload

	// App, when non-nil, attaches the execution layer: every replica runs a
	// fresh instance from this factory (fresh again on restart, so recovery
	// re-executes the restored chain — see compose.Spec.App) and votes carry
	// the resulting AppHash. Result.AppHashes records each replica's
	// committed state root per height when RecordChains is also set.
	App func() app.StateMachine
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

	Msgs          simnet.MsgStats
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
	// replica committed there, recorded at commit time when Scenario.App and
	// Scenario.RecordChains are both set. The fuzzer's execution-agreement
	// invariant and the bank-workload experiment read it.
	AppHashes map[types.ReplicaID]map[types.Height][32]byte
	// AppExecutedBlocks is the number of blocks the observer's replica ran
	// through its state machine (Scenario.App runs only).
	AppExecutedBlocks int64

	// Pacemakers holds each DiemBFT replica's final timeout-buffer
	// accounting (buffered entries, per-peer high-watermark, cap drops) —
	// the evidence the liveness-attack A/B uses to prove bounded memory
	// under timeout-spam. Replicas under a CrashPlan report their final
	// incarnation; Streamlet scenarios leave it empty.
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

func (s *Scenario) withDefaults() *Scenario {
	c := *s
	if c.Protocol == 0 {
		c.Protocol = ProtoDiemBFT
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = time.Second
	}
	if c.Delta == 0 {
		c.Delta = 100 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = time.Minute
	}
	if c.Levels == nil {
		c.Levels = DefaultLevels(c.F)
	}
	if c.PayloadTxns == 0 {
		c.PayloadTxns = workload.PaperTxnsPerBlock
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = workload.PaperBlockBytes
	}
	if c.Horizon == 0 {
		c.Horizon = 2*c.N + 16
	}
	if c.PruneKeep == 0 {
		c.PruneKeep = types.Height(3*c.N + 64)
	}
	if c.TailMargin == 0 {
		c.TailMargin = c.Duration / 5
	}
	if c.Scheme == "" {
		c.Scheme = crypto.SchemeSim
	}
	if c.Scheme == crypto.SchemeEd25519 || c.Scheme == crypto.SchemeEd25519Agg {
		c.VerifySignatures = true
	}
	return &c
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
		if x <= 0 || x > 2*c.sc.F {
			c.violations = append(c.violations,
				fmt.Sprintf("replica %d reported out-of-range strength %d for %s (f=%d)", rep, x, id, c.sc.F))
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
	c.recordStrength(rep, b, c.sc.F, true)
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
	if s.N != 3*s.F+1 {
		return nil, fmt.Errorf("harness: n=%d must be 3f+1 (f=%d)", s.N, s.F)
	}
	if s.Latency == nil {
		return nil, fmt.Errorf("harness: latency model required")
	}
	ring, err := crypto.NewKeyRing(s.N, s.Seed, s.Scheme)
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
	for i := 0; i < s.N; i++ {
		id := types.ReplicaID(i)
		if _, crashed := s.Crash[id]; crashed {
			continue
		}
		if _, byz := s.Adversaries[id]; byz {
			continue
		}
		if planned[id] {
			continue
		}
		observer = id
		break
	}
	col := newCollector(s, observer)

	// Keep the engine handles: the commit observer reads committed AppHashes
	// out of them, and after the run the harness harvests per-replica
	// pacemaker stats (restarted replicas overwrite their slot, so the map
	// always points at the final incarnation).
	engines := make(map[types.ReplicaID]engine.Engine, s.N)

	onCommit := col.onCommit
	var appHashes map[types.ReplicaID]map[types.Height][32]byte
	if s.App != nil && s.RecordChains {
		// Record each replica's committed state root at commit time — the
		// executor is guaranteed to still hold the root then (it prunes only
		// far below the committed height).
		appHashes = make(map[types.ReplicaID]map[types.Height][32]byte)
		onCommit = func(rep types.ReplicaID, now time.Duration, b *types.Block) {
			col.onCommit(rep, now, b)
			if exec := engineExecutor(engines[rep]); exec != nil {
				if root, ok := exec.Root(b.ID()); ok {
					m := appHashes[rep]
					if m == nil {
						m = make(map[types.Height][32]byte)
						appHashes[rep] = m
					}
					m[b.Height] = root
				}
			}
		}
	}

	simCfg := simnet.Config{
		N:          s.N,
		Latency:    s.Latency,
		Seed:       s.Seed,
		OnCommit:   onCommit,
		OnStrength: col.onStrength,
	}
	if s.GST > 0 {
		gst, extra := s.GST, s.PreGSTExtra
		simCfg.ExtraDelay = func(from, to types.ReplicaID, now time.Duration) time.Duration {
			if now < gst {
				return extra
			}
			return 0
		}
	}
	sim := simnet.New(simCfg)

	payload := workload.PaperPayload(s.Seed, s.PayloadTxns, s.PayloadBytes)

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
	walDir := func(id types.ReplicaID) string {
		return filepath.Join(dataDir, fmt.Sprintf("replica-%d", id))
	}
	// NoSync (fsync=false): simulated crashes stop event dispatch, not the
	// host process, so page-cache durability models the kill faithfully and
	// scenario runs stay fast. Real deployments (cmd/sftnode) fsync.
	openJournal := func(id types.ReplicaID) (*core.Journal, *core.Recovery, error) {
		return compose.OpenWAL(walDir(id), false)
	}

	for i := 0; i < s.N; i++ {
		id := types.ReplicaID(i)
		var journal *core.Journal
		if durable[id] {
			j, _, err := openJournal(id)
			if err != nil {
				return nil, err
			}
			journal = j
		}
		eng, err := compose.Engine(engineSpec(s, id, ring, payload, journal))
		if err != nil {
			return nil, err
		}
		engines[id] = eng
		sim.SetEngine(id, eng)
	}
	for id, at := range s.Crash {
		sim.CrashAt(id, at)
	}
	for _, plan := range s.Partitions {
		sim.PartitionAt(plan.At, plan.Groups...)
		if plan.Heal > 0 {
			sim.HealAt(plan.Heal)
		}
	}
	for _, plan := range s.Crashes {
		sim.CrashAt(plan.Replica, plan.Crash)
		if plan.Restart <= 0 {
			continue
		}
		id := plan.Replica
		sim.RestartAt(id, plan.Restart, func() engine.Engine {
			// Runs at virtual time plan.Restart: recover the WAL as of the
			// crash and build a fresh engine around it.
			col.noteRestart(id)
			journal, rec, err := openJournal(id)
			if err != nil {
				panic(fmt.Sprintf("harness: restart %v: %v", id, err))
			}
			eng, err := compose.Engine(engineSpec(s, id, ring, payload, journal))
			if err != nil {
				panic(fmt.Sprintf("harness: rebuild %v: %v", id, err))
			}
			if err := compose.Restore(eng, rec); err != nil {
				panic(fmt.Sprintf("harness: restore %v: %v", id, err))
			}
			engines[id] = eng
			return eng
		})
	}
	sim.Run(s.Duration)

	res := &Result{
		Scenario:         s,
		Observer:         observer,
		CommittedBlocks:  col.commits[observer],
		LevelLatency:     make(map[int]Summary, len(s.Levels)),
		LevelCommitDelay: make(map[int]Summary, len(s.Levels)),
		Msgs:             sim.Stats(),
		Events:           sim.Events(),
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
	res.Chains = col.chains
	res.AppHashes = appHashes
	if exec := engineExecutor(engines[observer]); exec != nil {
		res.AppExecutedBlocks = exec.Executed()
	}
	res.Strengths = col.strengths
	res.Blocks = col.blocks
	res.StrengthViolations = col.violations
	res.PartitionDrops = sim.PartitionDrops()
	res.Pacemakers = make(map[types.ReplicaID]pacemaker.Stats, len(engines))
	for id, eng := range engines {
		if w, ok := eng.(*adversary.Replica); ok {
			eng = w.Inner()
		}
		if p, ok := eng.(interface{ PacemakerStats() pacemaker.Stats }); ok {
			res.Pacemakers[id] = p.PacemakerStats()
		}
	}
	return res, nil
}

// engineExecutor digs the execution-layer executor out of an engine handle,
// unwrapping an adversary shell first; nil when the engine runs no app.
func engineExecutor(e engine.Engine) *app.Executor {
	if e == nil {
		return nil
	}
	if w, ok := e.(*adversary.Replica); ok {
		e = w.Inner()
	}
	if ax, ok := e.(interface{ AppExecutor() *app.Executor }); ok {
		return ax.AppExecutor()
	}
	return nil
}

// engineSpec maps a scenario onto the shared composition path
// (internal/compose) — the same path the public sft facade builds nodes
// through, so facade runs and harness runs construct identical engines.
func engineSpec(s *Scenario, id types.ReplicaID, ring *crypto.KeyRing, payload func(types.Round) types.Payload, journal *core.Journal) compose.Spec {
	spec := compose.Spec{
		Protocol:          compose.DiemBFT,
		ID:                id,
		N:                 s.N,
		F:                 s.F,
		Signer:            ring.Signer(id),
		Verifier:          ring,
		VerifySignatures:  s.VerifySignatures,
		SFT:               s.SFT,
		Horizon:           s.Horizon,
		Payload:           payload,
		PayloadNow:        s.PayloadNow,
		App:               s.App,
		NaiveEndorsements: s.NaiveEndorsements,
		Journal:           journal,
	}
	if s.Protocol == ProtoStreamlet {
		spec.Protocol = compose.Streamlet
		spec.Delta = s.Delta
		spec.DisableEcho = s.DisableEcho
		spec.ProposalWindow = s.ProposalWindow
	} else {
		spec.DisableQCCache = s.DisableQCCache
		spec.FBFT = s.FBFT
		spec.VoteMode = s.VoteMode
		spec.IntervalWindow = s.IntervalWindow
		spec.RoundTimeout = s.RoundTimeout
		spec.ExtraWait = s.ExtraWait
		spec.ExtraWaitFor = s.ExtraWaitFor
		spec.PruneKeep = s.PruneKeep
		spec.ActivePacemaker = s.ActivePacemaker
		spec.TimeoutWindow = s.TimeoutWindow
		spec.PerPeerTimeoutCap = s.PerPeerTimeoutCap
		spec.LeaderReputationWindow = s.LeaderReputationWindow
	}
	applyAdversary(&spec, s, id)
	return spec
}

// applyAdversary attaches the replica's Byzantine behavior chain, seeding
// its randomness from the scenario seed and the replica identity so every
// corrupted replica misbehaves differently but reproducibly.
func applyAdversary(spec *compose.Spec, s *Scenario, id types.ReplicaID) {
	specs, ok := s.Adversaries[id]
	if !ok || len(specs) == 0 {
		return
	}
	spec.Adversary = specs
	spec.AdversarySeed = s.Seed*1000003 + int64(id)
	peers := make([]types.ReplicaID, 0, len(s.Adversaries))
	for rep := range s.Adversaries {
		peers = append(peers, rep)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	spec.AdversaryPeers = peers
}
