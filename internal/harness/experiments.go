package harness

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/pacemaker"
	"repro/internal/reference"
	"repro/internal/types"
	"repro/sft"
)

// This file contains one driver per table/figure of the paper's evaluation
// (doc.go's "Paper claims and their oracles" maps each to its claim). Every
// driver takes a Scale so the same experiment runs at paper scale (n=100,
// ≥5 virtual minutes) from cmd/sftbench and at reduced scale from the tests.

// Scale controls the cost of an experiment run.
type Scale struct {
	// N and F give the cluster size (N = 3F+1). 0 means paper scale
	// (n=100, f=33).
	N, F int
	// Duration is the virtual run length; 0 means the paper's 5 minutes.
	Duration time.Duration
	// Seed defaults to 1.
	Seed int64
	// Scheme selects the signature implementation for every scenario the
	// experiment builds: "" or crypto.SchemeSim for the fast deterministic
	// scheme, crypto.SchemeEd25519 for real crypto (which implies signature
	// verification; see Scenario.Scheme).
	Scheme string
}

func (s Scale) withDefaults() Scale {
	if s.N == 0 {
		s.N, s.F = 100, 33
	}
	if s.Duration == 0 {
		s.Duration = 5 * time.Minute
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Experiment timing constants. Absolute values differ from the paper's EC2
// testbed by design; DESIGN.md §2 explains why only the shapes must match.
const (
	intraDelay = 1 * time.Millisecond
	symJitter  = 25 * time.Millisecond
	asymJitter = 4 * time.Millisecond
	// stragglerPenalty delays a straggler's traffic enough that its votes
	// miss every QC formed at network speed (paper §4.1's out-of-sync
	// replicas) while staying far below the round timeout.
	stragglerPenalty = 80 * time.Millisecond
)

// stragglerSet spreads k stragglers evenly over the replica ID space.
func stragglerSet(n, k int) map[types.ReplicaID]time.Duration {
	out := make(map[types.ReplicaID]time.Duration, k)
	for i := 0; i < k; i++ {
		out[types.ReplicaID((i*n+n/2)/k%n)] = stragglerPenalty
	}
	return out
}

// symmetricScenario builds the Figure 6 (left) setting: 3 equal regions,
// delta between regions, with a few stragglers.
func symmetricScenario(sc Scale, delta time.Duration) *Scenario {
	sc = sc.withDefaults()
	model := sft.SymmetricLatency(sc.N, 3, intraDelay, delta, symJitter)
	model.Penalty = stragglerSet(sc.N, max(1, sc.N/33))
	return &Scenario{
		Name:     "symmetric",
		N:        sc.N,
		F:        sc.F,
		Latency:  model,
		Seed:     sc.Seed,
		Duration: sc.Duration,
		Scheme:   sc.Scheme,
		// Rounds take ~2*delta (+straggler-led slack); never time out.
		Options: []sft.Option{sft.WithRoundTimeout(4*delta + 4*stragglerPenalty)},
	}
}

// Figure7a measures x-strong commit latency in the symmetric setting for
// one delta (the paper sweeps delta ∈ {100ms, 200ms}).
func Figure7a(sc Scale, delta time.Duration) (*Result, error) {
	s := symmetricScenario(sc, delta)
	s.Name = "fig7a"
	return Run(s)
}

// asymmetricLatency is the paper's asymmetric setting (Figure 6, right):
// region sizes sizes[0..2] (paper: 45, 45, 10), delay ab between regions 0
// and 1 (paper: 20ms) and delta between region 2 and the others.
func asymmetricLatency(sizes [3]int, intra, ab, delta, jitter time.Duration) *sft.RegionLatency {
	regionOf := make([]int, 0, sizes[0]+sizes[1]+sizes[2])
	for r, sz := range sizes {
		for i := 0; i < sz; i++ {
			regionOf = append(regionOf, r)
		}
	}
	return &sft.RegionLatency{RegionOf: regionOf, Intra: intra, Jitter: jitter, Inter: [][]time.Duration{
		{intra, ab, delta},
		{ab, intra, delta},
		{delta, delta, intra},
	}}
}

// Figure7b measures x-strong commit latency in the asymmetric setting
// (Figure 6 right): regions A and B hold 90% of replicas 20ms apart, region
// C holds 10% at distance delta. At delta=200ms region C's leaders time out
// (RoundTimeout below C's ~2*delta round trip), so C never contributes
// strong-votes and levels above ~1.7f become unreachable — the paper's
// "outcast replicas".
func Figure7b(sc Scale, delta time.Duration) (*Result, error) {
	sc = sc.withDefaults()
	szC := sc.N / 10
	szA := (sc.N - szC + 1) / 2
	szB := sc.N - szC - szA
	model := asymmetricLatency([3]int{szA, szB, szC}, intraDelay, 20*time.Millisecond, delta, asymJitter)
	// Sample strength at regions A and B only: region C replicas privately
	// form QCs for their timed-out rounds that never enter the chain, so
	// their local view reports levels the blockchain never certifies.
	observers := make(map[types.ReplicaID]bool, szA+szB)
	for i := 0; i < szA+szB; i++ {
		observers[types.ReplicaID(i)] = true
	}
	return Run(&Scenario{
		Name:           "fig7b",
		N:              sc.N,
		F:              sc.F,
		Latency:        model,
		Seed:           sc.Seed,
		Duration:       sc.Duration,
		LevelObservers: observers,
		Scheme:         sc.Scheme,
		// 150ms: far above A/B's ~40ms rounds, below region C's round trip
		// at delta=200ms (~400ms), above it at delta=100ms (~200ms...240ms
		// reach the voters before their round timer expires).
		Options: []sft.Option{sft.WithRoundTimeout(150 * time.Millisecond)},
	})
}

// Figure8Point is one point of the regular-vs-strong latency trade-off.
type Figure8Point struct {
	ExtraWait time.Duration
	Result    *Result
}

// Figure8 sweeps the leader extra-wait knob in the symmetric delta=100ms
// setting: leaders hold the QC open for `wait` after reaching 2f+1 votes
// and fold late (straggler) votes into a larger strong-QC, trading regular
// commit latency for strong commit latency.
func Figure8(sc Scale, waits []time.Duration) ([]Figure8Point, error) {
	out := make([]Figure8Point, 0, len(waits))
	for _, w := range waits {
		s := symmetricScenario(sc, 100*time.Millisecond)
		s.Name = "fig8"
		s.Options = append(s.Options, sft.WithExtraWait(w))
		res, err := Run(s)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Point{ExtraWait: w, Result: res})
	}
	return out, nil
}

// ThroughputComparison runs the symmetric setting with SFT off (DiemBFT
// baseline) and on (SFT-DiemBFT), supporting the paper's §4 claim that
// throughput and regular commit latency are essentially unchanged.
func ThroughputComparison(sc Scale, delta time.Duration) (baseline, strengthened *Result, err error) {
	base := symmetricScenario(sc, delta)
	base.Name = "throughput-diembft"
	base.Options = append(base.Options, sft.WithReference(reference.Arms{Rule: reference.RulePlain}))
	baseline, err = Run(base)
	if err != nil {
		return nil, nil, err
	}
	s := symmetricScenario(sc, delta)
	s.Name = "throughput-sft-diembft"
	strengthened, err = Run(s)
	if err != nil {
		return nil, nil, err
	}
	return baseline, strengthened, nil
}

// ComplexityPoint is one cluster size of the message-complexity comparison.
type ComplexityPoint struct {
	N             int
	SFTMsgsPerDec float64
	FBFTMsgsPer   float64
}

// MessageComplexity compares messages per block decision between
// SFT-DiemBFT (linear, §3.2) and the FBFT adaptation (quadratic, Appendix
// B) as n grows (sc supplies duration, seed, and crypto scheme; its cluster
// size is ignored in favor of the fs sweep). About f replicas are stragglers
// whose votes arrive after the QC forms; FBFT's leaders multicast each such
// late vote.
func MessageComplexity(sc Scale, fs []int) ([]ComplexityPoint, error) {
	duration := sc.Duration
	if duration == 0 {
		duration = time.Minute
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	out := make([]ComplexityPoint, 0, len(fs))
	for _, f := range fs {
		n := 3*f + 1
		mk := func(arms reference.Arms) *Scenario {
			model := sft.SymmetricLatency(n, 3, intraDelay, 100*time.Millisecond, 10*time.Millisecond)
			model.Penalty = stragglerSet(n, f) // f stragglers -> f late votes/round
			return &Scenario{
				Name:     "msgcomplexity",
				N:        n,
				F:        f,
				Latency:  model,
				Seed:     seed,
				Duration: duration,
				Scheme:   sc.Scheme,
				Options:  []sft.Option{sft.WithReference(arms)},
			}
		}
		sft, err := Run(mk(reference.Arms{}))
		if err != nil {
			return nil, err
		}
		fb, err := Run(mk(reference.Arms{Rule: reference.RuleFBFT}))
		if err != nil {
			return nil, err
		}
		out = append(out, ComplexityPoint{
			N:             n,
			SFTMsgsPerDec: sft.MsgsPerCommit,
			FBFTMsgsPer:   fb.MsgsPerCommit,
		})
	}
	return out, nil
}

// Theorem2 runs the benign-fault liveness experiment: c crash faults from
// the start; Theorem 2 promises every block is (2f-c)-strong committed
// within n+2 rounds. Returns the run plus the target level 2f-c.
func Theorem2(sc Scale, c int) (*Result, int, error) {
	sc = sc.withDefaults()
	crash := make(map[types.ReplicaID]time.Duration, c)
	for i := 0; i < c; i++ {
		// Crash a consecutive block of replicas 1ns after start. Spreading
		// the crashes over the ID space would leave no run of 4 consecutive
		// alive leaders at c = f, and the 3-chain commit rule would never
		// fire — Theorem 2 bounds strength accumulation on committed
		// blocks, not leader-rotation liveness.
		crash[types.ReplicaID((sc.N/2+i)%sc.N)] = time.Nanosecond
	}
	target := 2*sc.F - c
	model := sft.SymmetricLatency(sc.N, 3, intraDelay, 20*time.Millisecond, 5*time.Millisecond)
	res, err := Run(&Scenario{
		Name:            "theorem2",
		N:               sc.N,
		F:               sc.F,
		Latency:         model,
		Seed:            sc.Seed,
		Duration:        sc.Duration,
		Scheme:          sc.Scheme,
		Levels:          []int{sc.F, target},
		Crash:           crash,
		RecordStrengths: true,
		Options:         []sft.Option{sft.WithRoundTimeout(250 * time.Millisecond)},
	})
	if err != nil {
		return nil, 0, err
	}
	// Benign scenario: the fuzzer's checkers must hold with zero Byzantine
	// replicas (crash faults never excuse a safety breach).
	if vs := CheckInvariants(res, 0); len(vs) > 0 {
		return nil, 0, fmt.Errorf("theorem2: invariant violated: %s", vs[0])
	}
	return res, target, nil
}

// Theorem3 runs the Byzantine-fault liveness experiment: t equivocating
// Byzantine replicas (built through the adversary subsystem's Equivocate
// behavior), comparing marker strong-votes (Section 3.2, liveness only under
// benign faults) against interval strong-votes (Section 3.4, Theorem 3:
// (2f-t)-strong within n+2 rounds despite Byzantine faults). Both runs pass
// through the scenario fuzzer's invariant checkers; a Definition 1 or
// monotonicity breach fails the experiment outright.
func Theorem3(sc Scale, t int) (marker, interval *Result, target int, err error) {
	sc = sc.withDefaults()
	byz := make(map[types.ReplicaID][]adversary.Spec, t)
	for i := 0; i < t; i++ {
		byz[types.ReplicaID((i*sc.N+sc.N/2)/max(1, t)%sc.N)] = []adversary.Spec{{Kind: adversary.Equivocate}}
	}
	target = 2*sc.F - t
	mk := func(votes sft.VoteFlavor) *Scenario {
		model := sft.SymmetricLatency(sc.N, 3, intraDelay, 20*time.Millisecond, 5*time.Millisecond)
		return &Scenario{
			Name:            "theorem3",
			N:               sc.N,
			F:               sc.F,
			Latency:         model,
			Seed:            sc.Seed,
			Duration:        sc.Duration,
			Adversaries:     byz,
			Scheme:          sc.Scheme,
			Levels:          []int{sc.F, target},
			RecordStrengths: true,
			Options: []sft.Option{
				sft.WithRoundTimeout(250 * time.Millisecond),
				sft.WithCommitRule(sft.CommitRule{Votes: votes, Horizon: horizon(sc.N)}),
			},
		}
	}
	check := func(res *Result) error {
		if vs := CheckInvariants(res, len(byz)); len(vs) > 0 {
			return fmt.Errorf("theorem3: invariant violated: %s", vs[0])
		}
		return nil
	}
	marker, err = Run(mk(sft.VoteMarkers))
	if err != nil {
		return nil, nil, 0, err
	}
	if err = check(marker); err != nil {
		return nil, nil, 0, err
	}
	interval, err = Run(mk(sft.VoteIntervals))
	if err != nil {
		return nil, nil, 0, err
	}
	if err = check(interval); err != nil {
		return nil, nil, 0, err
	}
	return marker, interval, target, nil
}

// LivenessAttackResult pairs the two arms of the pacemaker A/B: the same
// seed, cluster and adversary coalition run once with the per-peer timeout
// cap effectively removed, as before the hardening, and once with the
// default pacemaker: the per-peer cap at its default plus leader-reputation
// rotation.
type LivenessAttackResult struct {
	Uncapped, Default *Result
	// UncappedPeak / DefaultPeak are the worst single-peer timeout-buffer
	// high-watermarks across replicas — the memory-exhaustion evidence.
	UncappedPeak, DefaultPeak int
	// UncappedDropped / DefaultDropped count timeouts the per-peer cap shed.
	UncappedDropped, DefaultDropped uint64
	// Cap is the default arm's per-peer bound (DefaultPeak must stay <= Cap).
	Cap int
}

// PacemakerPeak returns the worst single-peer timeout-buffer high-watermark
// across replicas and the timeouts the per-peer caps shed in total.
func (r *Result) PacemakerPeak() (peak int, dropped uint64) {
	for _, st := range r.Pacemakers {
		peak = max(peak, st.PeakPerPeer)
		dropped += st.Dropped
	}
	return peak, dropped
}

// LivenessAttack runs the liveness-under-attack experiment: f colluders
// spamming timeouts at full cadence against an otherwise healthy cluster.
// The experiment asserts the hardening claim outright — both arms must stay
// safe (the attack forges no protocol content, so the invariant checkers run
// at t=0), the default arm must keep committing with its worst per-peer
// timeout buffer bounded by the cap, and the uncapped arm must exhibit the
// unbounded buffer growth the cap removes. Defaults to the acceptance shape
// (n=7, f=2, 10 virtual seconds) rather than paper scale.
func LivenessAttack(sc Scale) (*LivenessAttackResult, error) {
	if sc.N == 0 {
		sc.N, sc.F = 7, 2
	}
	if sc.Duration == 0 {
		sc.Duration = 10 * time.Second
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	byz := make(map[types.ReplicaID][]adversary.Spec, sc.F)
	for i := 0; i < sc.F; i++ {
		// Consecutive trailing IDs: adjacent leader slots maximize the rounds
		// the coalition fronts.
		byz[types.ReplicaID(sc.N-1-i)] = []adversary.Spec{{Kind: adversary.TimeoutSpam, Every: 1}}
	}
	mk := func(uncapped bool) *Scenario {
		return &Scenario{
			Name:            "livenessattack",
			N:               sc.N,
			F:               sc.F,
			Latency:         sft.SymmetricLatency(sc.N, 3, intraDelay, 20*time.Millisecond, 5*time.Millisecond),
			Seed:            sc.Seed,
			Duration:        sc.Duration,
			Scheme:          sc.Scheme,
			Adversaries:     byz,
			RecordStrengths: true,
			RecordChains:    true,
			Options: []sft.Option{
				sft.WithRoundTimeout(250 * time.Millisecond),
				sft.WithReference(reference.Arms{VerifySignatures: true, UncappedTimeouts: uncapped}),
			},
		}
	}
	out := &LivenessAttackResult{Cap: pacemaker.DefaultPerPeerCap}
	var err error
	if out.Uncapped, err = Run(mk(true)); err != nil {
		return nil, err
	}
	if out.Default, err = Run(mk(false)); err != nil {
		return nil, err
	}
	t := adversary.ForgingReplicas(byz)
	for arm, res := range map[string]*Result{"uncapped": out.Uncapped, "default": out.Default} {
		if vs := CheckInvariants(res, t); len(vs) > 0 {
			return nil, fmt.Errorf("livenessattack: %s arm safety violated: %s", arm, vs[0])
		}
	}
	out.UncappedPeak, out.UncappedDropped = out.Uncapped.PacemakerPeak()
	out.DefaultPeak, out.DefaultDropped = out.Default.PacemakerPeak()
	if out.Default.CommittedBlocks < 3 {
		return nil, fmt.Errorf("livenessattack: default arm stalled (%d commits)", out.Default.CommittedBlocks)
	}
	if out.DefaultPeak > out.Cap {
		return nil, fmt.Errorf("livenessattack: default arm's per-peer buffer peaked at %d > cap %d", out.DefaultPeak, out.Cap)
	}
	if out.UncappedPeak <= out.Cap {
		return nil, fmt.Errorf("livenessattack: uncapped arm peaked at only %d — the attack demonstrated nothing", out.UncappedPeak)
	}
	return out, nil
}

// CrashRecoveryResult aggregates the kill/restart/state-sync-rejoin
// experiment (the durability layer's workload class).
type CrashRecoveryResult struct {
	// Baseline is the same scenario without the kill; Faulty is the run
	// where Victim is killed at CrashAt and restored at RestartAt.
	Baseline, Faulty *Result
	Victim           types.ReplicaID
	CrashAt          time.Duration
	RestartAt        time.Duration

	// SharedPrefix is the height up to which the two runs' observers agree
	// (the runs are event-identical until the kill, so this is at least the
	// chain height reached by the crash; afterwards they may diverge).
	SharedPrefix types.Height
	// Consistent is the safety verdict: within the faulty run the victim's
	// committed chain agrees with the observer's at every shared height,
	// and it recommitted nothing below SharedPrefix that contradicts the
	// no-crash baseline.
	Consistent bool
	// VictimHeight and ObserverHeight are the final committed heights in
	// the faulty run; their gap shows how far the rejoined replica caught
	// up.
	VictimHeight, ObserverHeight types.Height
}

// CrashRecovery runs the durability scenario: a symmetric cluster where one
// replica is killed a third of the way in and restarted from its
// write-ahead log at the halfway point, re-joining via state sync. It also
// runs the identical scenario without the kill and checks that the
// recovered replica's commits are consistent with both the faulty run's
// observer and the no-crash baseline's committed prefix.
func CrashRecovery(sc Scale, delta time.Duration) (*CrashRecoveryResult, error) {
	sc = sc.withDefaults()
	// The symmetric model penalizes replica n/2 as its straggler; pick the
	// last replica so the kill/restart story is not confounded with it.
	victim := types.ReplicaID(sc.N - 1)
	crashAt := sc.Duration / 3
	restartAt := sc.Duration / 2

	base := symmetricScenario(sc, delta)
	base.Name = "crashrecovery-baseline"
	base.RecordChains = true
	// Disable pruning so full chains stay comparable across the run.
	base.Options = append(base.Options, sft.WithPruneKeep(1<<30))
	baseline, err := Run(base)
	if err != nil {
		return nil, err
	}

	faulty := symmetricScenario(sc, delta)
	faulty.Name = "crashrecovery"
	faulty.RecordChains = true
	faulty.Options = append(faulty.Options, sft.WithPruneKeep(1<<30))
	faulty.Crashes = []CrashPlan{{Replica: victim, Crash: crashAt, Restart: restartAt}}
	res, err := Run(faulty)
	if err != nil {
		return nil, err
	}

	out := &CrashRecoveryResult{
		Baseline: baseline,
		Faulty:   res,
		Victim:   victim,
		CrashAt:  crashAt, RestartAt: restartAt,
	}
	baseChain := baseline.Chains[baseline.Observer]
	obsChain := res.Chains[res.Observer]
	victimChain := res.Chains[victim]

	// Shared prefix of the two runs at their observers: identical until the
	// kill perturbs the event sequence.
	for h := types.Height(1); ; h++ {
		a, okA := baseChain[h]
		b, okB := obsChain[h]
		if !okA || !okB || a != b {
			break
		}
		out.SharedPrefix = h
	}

	out.Consistent = true
	for h, id := range victimChain {
		if out.VictimHeight < h {
			out.VictimHeight = h
		}
		// Within-run agreement: every honest replica commits the same block
		// per height — the property a recovery bug would break first.
		if ref, ok := obsChain[h]; ok && ref != id {
			out.Consistent = false
		}
		// Cross-run: nothing recommitted below the shared prefix may
		// contradict the no-crash baseline.
		if h <= out.SharedPrefix {
			if ref, ok := baseChain[h]; ok && ref != id {
				out.Consistent = false
			}
		}
	}
	for h := range obsChain {
		if out.ObserverHeight < h {
			out.ObserverHeight = h
		}
	}
	return out, nil
}

// StreamletLatency runs SFT-Streamlet (Appendix D) in a uniform-delay
// setting and reports strong commit latencies per level, the Appendix D
// counterpart of Figure 7a.
func StreamletLatency(sc Scale, delta time.Duration) (*Result, error) {
	sc = sc.withDefaults()
	s := &Scenario{
		Name:     "streamlet",
		N:        sc.N,
		F:        sc.F,
		Latency:  sft.SymmetricLatency(sc.N, 3, intraDelay, delta/2, delta/8),
		Seed:     sc.Seed,
		Duration: sc.Duration,
		Scheme:   sc.Scheme,
		// Streamlet's lock-step parameter must bound the actual network
		// delay: delta/2 base + jitter + margin.
		Options: []sft.Option{sft.WithEngine(sft.Streamlet), sft.WithDelta(delta)},
	}
	if sc.N > 31 {
		// Echo is O(n^3); keep it for small clusters only.
		s.Options = append(s.Options, sft.WithoutEcho())
	}
	return Run(s)
}
