package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/app"
	"repro/internal/reference"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/sft"
)

// This file is the randomized adversarial scenario fuzzer: a seeded
// generator samples cluster shapes, engines, commit-rule modes, crash and
// restart plans, network partitions and per-replica Byzantine behavior
// compositions (internal/adversary), runs each scenario through Run like
// every other experiment, and checks the paper's invariants on the result:
//
//   - Definition 1 safety: no two conflicting blocks may both be observed at
//     strength >= t by honest replicas, where t is the number of Byzantine
//     replicas in the scenario (any x-strong commit with x >= t is final).
//   - Strength monotonicity: per honest replica per block, reported
//     strength strictly rises and stays within (0, 2f].
//   - Chain consistency: with t <= f, honest replicas agree on the
//     committed block at every height.
//   - Liveness under benign faults (Theorem 2): scenarios with no Byzantine
//     replicas, healed partitions and at most f crashes keep committing,
//     and fault-free runs reach the 2f-strong ceiling.
//
// Every scenario is reproducible from (Seed, Index) alone; violations are
// reported with the full generated spec so one line of output replays them.

// FuzzOptions configures a fuzzing sweep.
type FuzzOptions struct {
	// Seed drives scenario generation AND each scenario's simulation; the
	// pair (Seed, Index) identifies one scenario forever.
	Seed int64
	// Scenarios is the number of scenarios to run (default 50).
	Scenarios int
	// N fixes the cluster size (must be 3f+1); 0 samples from {4, 7}.
	N int
	// Duration is the per-scenario virtual run length (default 6s).
	Duration time.Duration
	// Naive runs every scenario with the UNSAFE marker-free endorsement
	// counting of Appendix C — the weakened-rule canary that the checkers
	// must catch.
	Naive bool
	// Scheme fixes the signature scheme for every scenario ("" = the
	// generator's default, crypto.SchemeSim). The aggregate schemes exercise
	// compact certificates under the full adversary mix.
	Scheme string
	// Workers bounds the number of scenarios run concurrently: 1 runs the
	// sweep on the calling goroutine exactly as before, 0 selects
	// GOMAXPROCS. Each (Seed, Index) replay is an independent deterministic
	// simulation and results merge in index order, so the report is
	// identical at any worker count.
	Workers int
}

func (o FuzzOptions) withDefaults() FuzzOptions {
	if o.Scenarios == 0 {
		o.Scenarios = 50
	}
	if o.Duration == 0 {
		o.Duration = 6 * time.Second
	}
	return o
}

// FuzzScenario is one generated scenario, fully self-describing: the fields
// below (all plain data) rebuild the exact run.
type FuzzScenario struct {
	Index   int
	SubSeed int64

	Protocol sft.Engine
	N        int // 3f+1; F derives f
	Duration time.Duration

	// Engine knobs sampled by the generator.
	VoteMode     sft.VoteFlavor // DiemBFT only
	RoundTimeout time.Duration
	Delta        time.Duration // Streamlet only
	Verify       bool
	Naive        bool
	Scheme       string // "" = crypto.SchemeSim
	// Uncapped lifts the pacemaker's per-peer timeout cap (DiemBFT only),
	// the liveness canary's unhardened arm.
	Uncapped bool

	// BankApp attaches the execution layer: every replica runs a small bank
	// state machine (signature verification off for sweep speed), leaders
	// propose bank-transfer payloads, and votes carry AppHashes — so the
	// execute-before-vote path faces the same adversary mix as consensus
	// itself, and the execution-agreement invariant below gets checked.
	BankApp bool

	// Network model (uniform latency keeps specs compact).
	LatencyBase, LatencyJitter time.Duration

	// Faults.
	Adversaries map[types.ReplicaID][]adversary.Spec
	Crashes     []CrashPlan
	Partitions  []PartitionPlan
}

// subSeed mixes the sweep seed and scenario index into an independent
// per-scenario seed (splitmix64 finalizer).
func subSeed(seed int64, index int) int64 {
	z := uint64(seed) + uint64(index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// GenFuzzScenario deterministically generates scenario `index` of the sweep
// (seed, opts): calling it again with the same arguments replays the exact
// same scenario.
func GenFuzzScenario(seed int64, index int, opts FuzzOptions) FuzzScenario {
	opts = opts.withDefaults()
	sub := subSeed(seed, index)
	rng := rand.New(rand.NewSource(sub))

	n := opts.N
	if n == 0 {
		n = []int{4, 7}[rng.Intn(2)]
	}
	f := (n - 1) / 3
	s := FuzzScenario{
		Index:         index,
		SubSeed:       sub,
		N:             n,
		Duration:      opts.Duration,
		RoundTimeout:  250 * time.Millisecond,
		Delta:         25 * time.Millisecond,
		LatencyBase:   5 * time.Millisecond,
		LatencyJitter: 2 * time.Millisecond,
		Naive:         opts.Naive,
		Scheme:        opts.Scheme,
	}
	if rng.Float64() < 0.6 {
		s.Protocol = sft.DiemBFT
		s.VoteMode = sft.VoteMarkers
		if rng.Float64() < 0.3 {
			s.VoteMode = sft.VoteIntervals
		}
		// Unused since leader reputation is always on; drawn so every later
		// draw, and with it each scenario's composition, stays the same.
		_ = rng.Float64()
	} else {
		s.Protocol = sft.Streamlet
	}

	// Byzantine replicas: up to 2f of them, each composing 1-2 behaviors.
	t := rng.Intn(2*f + 1)
	if t > 0 {
		s.Adversaries = make(map[types.ReplicaID][]adversary.Spec, t)
		for _, id := range pickReplicas(rng, n, t, nil) {
			s.Adversaries[id] = sampleBehaviors(rng)
		}
	}
	// Forged-content behaviors (bad signatures, garbage) are only a
	// meaningful attack against verifying receivers; scenarios containing
	// them always verify.
	s.Verify = rng.Float64() < 0.3
	for _, specs := range s.Adversaries {
		for _, b := range specs {
			if b.Kind == adversary.CorruptSigs || b.Kind == adversary.Garbage {
				s.Verify = true
			}
		}
	}

	// Crash/restart plans on non-Byzantine replicas.
	if rng.Float64() < 0.5 && f > 0 {
		c := 1 + rng.Intn(f)
		for _, id := range pickReplicas(rng, n, c, s.Adversaries) {
			plan := CrashPlan{
				Replica: id,
				Crash:   time.Duration(float64(s.Duration) * (0.2 + 0.4*rng.Float64())),
			}
			if rng.Float64() < 0.5 {
				plan.Restart = plan.Crash + time.Duration(float64(s.Duration)*(0.1+0.2*rng.Float64()))
			}
			s.Crashes = append(s.Crashes, plan)
		}
		sort.Slice(s.Crashes, func(i, j int) bool { return s.Crashes[i].Replica < s.Crashes[j].Replica })
	}

	// A third of the scenarios run the execution layer, so AppHash-carrying
	// votes and vote filtering face every behavior composition above.
	s.BankApp = rng.Float64() < 0.35

	// One partition window: a random split installed mid-run, usually
	// healed.
	if rng.Float64() < 0.4 {
		size := 1 + rng.Intn(n-1)
		group := pickReplicas(rng, n, size, nil)
		plan := PartitionPlan{
			At:     time.Duration(float64(s.Duration) * (0.2 + 0.3*rng.Float64())),
			Groups: [][]types.ReplicaID{group},
		}
		if rng.Float64() < 0.85 {
			plan.Heal = plan.At + time.Duration(float64(s.Duration)*(0.1+0.25*rng.Float64()))
		}
		s.Partitions = append(s.Partitions, plan)
	}
	return s
}

// pickReplicas samples k distinct replicas from [0, n), skipping `exclude`.
func pickReplicas(rng *rand.Rand, n, k int, exclude map[types.ReplicaID][]adversary.Spec) []types.ReplicaID {
	pool := make([]types.ReplicaID, 0, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		if _, skip := exclude[id]; skip {
			continue
		}
		pool = append(pool, id)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if k > len(pool) {
		k = len(pool)
	}
	out := append([]types.ReplicaID(nil), pool[:k]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sampleBehaviors draws a 1-2 element behavior composition.
func sampleBehaviors(rng *rand.Rand) []adversary.Spec {
	count := 1 + rng.Intn(2)
	seen := make(map[adversary.Kind]bool, count)
	out := make([]adversary.Spec, 0, count)
	for len(out) < count {
		spec := sampleBehavior(rng)
		if seen[spec.Kind] {
			continue
		}
		seen[spec.Kind] = true
		out = append(out, spec)
	}
	return out
}

func sampleBehavior(rng *rand.Rand) adversary.Spec {
	switch adversary.Kinds[rng.Intn(len(adversary.Kinds))] {
	case adversary.Equivocate:
		return adversary.Spec{Kind: adversary.Equivocate}
	case adversary.Withhold:
		return adversary.Spec{Kind: adversary.Withhold}
	case adversary.DoubleVote:
		return adversary.Spec{Kind: adversary.DoubleVote}
	case adversary.LieMarkers:
		return adversary.Spec{Kind: adversary.LieMarkers}
	case adversary.ForkRevive:
		return adversary.Spec{Kind: adversary.ForkRevive}
	case adversary.CorruptSigs:
		return adversary.Spec{Kind: adversary.CorruptSigs, Every: 2 + rng.Intn(4)}
	case adversary.Garbage:
		return adversary.Spec{Kind: adversary.Garbage, Every: 3 + rng.Intn(5)}
	case adversary.ReplayStale:
		return adversary.Spec{Kind: adversary.ReplayStale, Every: 3 + rng.Intn(5)}
	case adversary.TimeoutSpam:
		return adversary.Spec{Kind: adversary.TimeoutSpam, Every: 2 + rng.Intn(4)}
	case adversary.WrongAppHash:
		return adversary.Spec{Kind: adversary.WrongAppHash}
	case adversary.Drop:
		return adversary.Spec{Kind: adversary.Drop, P: 0.1 + 0.4*rng.Float64()}
	case adversary.Delay:
		return adversary.Spec{
			Kind:   adversary.Delay,
			Delay:  time.Duration(1+rng.Intn(20)) * time.Millisecond,
			Jitter: time.Duration(1+rng.Intn(10)) * time.Millisecond,
		}
	default:
		return adversary.Spec{Kind: adversary.Duplicate, P: 0.1 + 0.4*rng.Float64()}
	}
}

// F is the scenario's fault tolerance f = (N-1)/3.
func (s FuzzScenario) F() int { return (s.N - 1) / 3 }

// Scenario lowers the generated spec onto the harness scenario type — the
// same structure every other experiment runs through.
func (s FuzzScenario) Scenario() *Scenario {
	arms := reference.Arms{VerifySignatures: s.Verify, UncappedTimeouts: s.Uncapped}
	if s.Naive {
		arms.Rule = reference.RuleNaive
	}
	sc := &Scenario{
		Name:     fmt.Sprintf("fuzz-%d", s.Index),
		N:        s.N,
		Latency:  &sft.UniformLatency{Base: s.LatencyBase, Jitter: s.LatencyJitter},
		Seed:     s.SubSeed,
		Duration: s.Duration,
		Scheme:   s.Scheme,

		Adversaries: s.Adversaries,
		Crashes:     s.Crashes,
		Partitions:  s.Partitions,

		RecordChains:    true,
		RecordStrengths: true,

		Options: []sft.Option{
			sft.WithEngine(s.Protocol),
			sft.WithRoundTimeout(s.RoundTimeout),
			sft.WithDelta(s.Delta),
			sft.WithCommitRule(sft.CommitRule{Votes: s.VoteMode, Horizon: horizon(s.N)}),
			sft.WithReference(arms),
		},
	}
	if s.BankApp {
		cfg := app.BankConfig{Seed: s.SubSeed, Accounts: 128, InitialBalance: 1 << 20, DisableSigVerify: true}
		// One shared generator models one client population submitting to
		// whoever leads; batches stay small to keep sweep cost flat.
		sc.Options = append(sc.Options,
			sft.WithApp(func() sft.StateMachine { return app.NewBank(cfg) }),
			sft.WithPayloadNow(workload.NewBank(s.SubSeed, cfg, 24).Payload))
	}
	return sc
}

// String renders the spec as one replayable line.
func (s FuzzScenario) String() string {
	var b strings.Builder
	proto := "diembft"
	if s.Protocol == sft.Streamlet {
		proto = "streamlet"
	}
	fmt.Fprintf(&b, "scenario %d (subseed %d): %s n=%d f=%d dur=%v verify=%v",
		s.Index, s.SubSeed, proto, s.N, s.F(), s.Duration, s.Verify)
	if s.Scheme != "" {
		fmt.Fprintf(&b, " scheme=%s", s.Scheme)
	}
	if s.Protocol == sft.DiemBFT && s.VoteMode == sft.VoteIntervals {
		b.WriteString(" votes=intervals")
	}
	if s.BankApp {
		b.WriteString(" bank-app")
	}
	if s.Naive {
		b.WriteString(" NAIVE-RULE")
	}
	if s.Uncapped {
		b.WriteString(" UNCAPPED-TIMEOUTS")
	}
	ids := make([]types.ReplicaID, 0, len(s.Adversaries))
	for id := range s.Adversaries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		names := make([]string, 0, len(s.Adversaries[id]))
		for _, spec := range s.Adversaries[id] {
			names = append(names, spec.String())
		}
		fmt.Fprintf(&b, " byz[%d]={%s}", id, strings.Join(names, ","))
	}
	for _, c := range s.Crashes {
		if c.Restart > 0 {
			fmt.Fprintf(&b, " crash[%d]=%v..%v", c.Replica, c.Crash.Round(time.Millisecond), c.Restart.Round(time.Millisecond))
		} else {
			fmt.Fprintf(&b, " crash[%d]=%v", c.Replica, c.Crash.Round(time.Millisecond))
		}
	}
	for _, p := range s.Partitions {
		heal := "never"
		if p.Heal > 0 {
			heal = p.Heal.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, " partition=%v..%s groups=%v", p.At.Round(time.Millisecond), heal, p.Groups)
	}
	return b.String()
}

// RunFuzzScenario executes one generated scenario and returns the raw run
// result plus every invariant violation found. The Definition 1 threshold
// counts only forging adversaries: a composition of pure timing behaviors
// (drop/delay/duplicate) cannot fabricate conflicting commits, so safety is
// checked around such replicas as if they were honest.
func RunFuzzScenario(spec FuzzScenario) (*Result, []string, error) {
	res, err := Run(spec.Scenario())
	if err != nil {
		return nil, nil, err
	}
	violations := CheckInvariants(res, adversary.ForgingReplicas(spec.Adversaries))
	violations = append(violations, checkLiveness(spec, res)...)
	return res, violations, nil
}

// CheckInvariants runs the safety checkers over a recorded result: the
// collector's live monotonicity findings, Definition 1 (no two conflicting
// blocks both at strength >= t in honest observations; pass t = the number
// of forging Byzantine replicas), and cross-replica chain consistency when
// t <= f. The scenario must have run with RecordStrengths (and, for chain
// consistency, RecordChains). Replicas whose behavior chains cannot forge
// (timing-only adversaries) count as honest observers.
func CheckInvariants(res *Result, byz int) []string {
	var out []string
	out = append(out, res.StrengthViolations...)
	honest := func(rep types.ReplicaID) bool {
		specs, bad := res.Scenario.Adversaries[rep]
		if !bad {
			return true
		}
		for _, s := range specs {
			if s.Kind.Forges() {
				return false
			}
		}
		return true
	}

	// Definition 1: collect the maximum honest-observed strength per block,
	// keep blocks at >= t, and verify they all lie on one chain.
	best := make(map[types.BlockID]int)
	for rep, m := range res.Strengths {
		if !honest(rep) {
			continue
		}
		for id, x := range m {
			if x > best[id] {
				best[id] = x
			}
		}
	}
	strong := make([]*types.Block, 0, len(best))
	for id, x := range best {
		if x >= byz && res.Blocks[id] != nil {
			strong = append(strong, res.Blocks[id])
		}
	}
	sort.Slice(strong, func(i, j int) bool {
		a, b := strong[i], strong[j]
		if a.Height != b.Height {
			return a.Height < b.Height
		}
		ai, bi := a.ID(), b.ID()
		return string(ai[:]) < string(bi[:])
	})
	// Pairwise-conflict freedom over a height-sorted list reduces to each
	// consecutive pair chaining: same height twice is an immediate
	// conflict, and if every block's ancestor at the previous block's
	// height is that block, the whole set lies on one chain.
	for i := 1; i < len(strong); i++ {
		lo, hi := strong[i-1], strong[i]
		if lo.Height == hi.Height {
			out = append(out, fmt.Sprintf(
				"Definition 1 violated: conflicting blocks %s and %s at height %d both reached strength >= %d with %d byzantine",
				lo.ID(), hi.ID(), lo.Height, byz, byz))
			continue
		}
		if anc, known := ancestorAt(res.Blocks, hi, lo.Height); known && anc != lo.ID() {
			out = append(out, fmt.Sprintf(
				"Definition 1 violated: conflicting blocks %s (h%d) and %s (h%d) both reached strength >= %d with %d byzantine",
				lo.ID(), lo.Height, hi.ID(), hi.Height, byz, byz))
		}
	}

	// Chain consistency: with at most f Byzantine replicas the classical
	// guarantee holds — honest committed chains agree at every height.
	if byz <= res.Scenario.F() && res.Chains != nil {
		agreed := make(map[types.Height]types.BlockID)
		owner := make(map[types.Height]types.ReplicaID)
		reps := make([]types.ReplicaID, 0, len(res.Chains))
		for rep := range res.Chains {
			reps = append(reps, rep)
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
		for _, rep := range reps {
			if !honest(rep) {
				continue
			}
			for h, id := range res.Chains[rep] {
				if ref, ok := agreed[h]; !ok {
					agreed[h] = id
					owner[h] = rep
				} else if ref != id {
					out = append(out, fmt.Sprintf(
						"chain consistency violated at height %d: replica %d committed %s, replica %d committed %s",
						h, owner[h], ref, rep, id))
				}
			}
		}
	}

	// Execution agreement: with at most f Byzantine replicas, honest replicas
	// running the execution layer must commit the SAME state root at every
	// height — the fork-detection property the AppHash-in-vote design exists
	// for (a wrong-apphash coalition at t <= f must never split the committed
	// state).
	if byz <= res.Scenario.F() && res.AppHashes != nil {
		agreed := make(map[types.Height][32]byte)
		owner := make(map[types.Height]types.ReplicaID)
		reps := make([]types.ReplicaID, 0, len(res.AppHashes))
		for rep := range res.AppHashes {
			reps = append(reps, rep)
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
		for _, rep := range reps {
			if !honest(rep) {
				continue
			}
			for h, root := range res.AppHashes[rep] {
				if ref, ok := agreed[h]; !ok {
					agreed[h] = root
					owner[h] = rep
				} else if ref != root {
					out = append(out, fmt.Sprintf(
						"execution agreement violated at height %d: replica %d committed state root %x, replica %d committed %x",
						h, owner[h], ref[:8], rep, root[:8]))
				}
			}
		}
	}
	return out
}

// ancestorAt walks hi's parent links down to the target height. known is
// false when the walk leaves the recorded block set (pruned or unobserved
// ancestry) — the checker then stays conservative and reports nothing.
func ancestorAt(blocks map[types.BlockID]*types.Block, hi *types.Block, h types.Height) (types.BlockID, bool) {
	cur := hi
	for cur.Height > h {
		p, ok := blocks[cur.Parent]
		if !ok {
			return types.BlockID{}, false
		}
		cur = p
	}
	return cur.ID(), true
}

// checkLiveness applies the Theorem 2 class of checks to benign scenarios:
// with no Byzantine replicas, healed partitions and at most f permanent
// crashes the cluster must keep committing, every replica that is up at the
// end — healed, restarted or never disturbed — must have rejoined the front
// (a 2f-strong commit takes all 3f+1 endorsers), and undisturbed runs must
// reach the 2f-strong ceiling on some block.
func checkLiveness(spec FuzzScenario, res *Result) []string {
	if len(spec.Adversaries) > 0 {
		return nil // liveness bounds only bind under benign faults
	}
	down := make(map[types.ReplicaID]bool)
	for _, c := range spec.Crashes {
		if c.Restart <= 0 {
			down[c.Replica] = true
		}
	}
	if len(down) > spec.F() {
		return nil
	}
	for _, p := range spec.Partitions {
		if p.Heal <= 0 || p.Heal > spec.Duration*3/5 {
			return nil // an unhealed (or late-healing) partition voids the bound
		}
	}
	var out []string
	if res.CommittedBlocks < 3 {
		out = append(out, fmt.Sprintf(
			"liveness violated: benign scenario committed only %d blocks at the observer", res.CommittedBlocks))
	}
	front := committedTip(res.Chains[res.Observer])
	for i := 0; i < spec.N; i++ {
		rep := types.ReplicaID(i)
		if h := committedTip(res.Chains[rep]); !down[rep] && h+front/4+8 < front {
			out = append(out, fmt.Sprintf(
				"liveness violated: replica %d never rejoined, it ends at height %d with the observer at %d", rep, h, front))
		}
	}
	if len(spec.Partitions) == 0 && len(spec.Crashes) == 0 {
		target := 2 * spec.F()
		reached := 0
		for _, m := range res.Strengths {
			for _, x := range m {
				if x >= target {
					reached++
				}
			}
		}
		if reached == 0 {
			out = append(out, fmt.Sprintf(
				"liveness violated: fault-free scenario never reached the %d-strong ceiling", target))
		}
	}
	return out
}

// committedTip is the highest height in one replica's recorded chain.
func committedTip(chain map[types.Height]types.BlockID) types.Height {
	var tip types.Height
	for h := range chain {
		tip = max(tip, h)
	}
	return tip
}

// FuzzFailure pairs a violating scenario with its findings.
type FuzzFailure struct {
	Spec       FuzzScenario
	Violations []string
}

// FuzzReport aggregates one fuzzing sweep.
type FuzzReport struct {
	Options   FuzzOptions
	Scenarios int
	// Failures lists every scenario with at least one invariant violation.
	Failures []FuzzFailure
	// ByzantineScenarios / PartitionScenarios / CrashScenarios count how
	// much of the space the sweep actually touched.
	ByzantineScenarios, PartitionScenarios, CrashScenarios int
	// TotalEvents and TotalBlocks aggregate simulation work; Elapsed is
	// host wall time (scenarios/min = Scenarios / Elapsed.Minutes()).
	TotalEvents int64
	TotalBlocks int
	Elapsed     time.Duration
}

// fuzzOutcome is the per-index result of one scenario, small enough to hold
// for the whole sweep so concurrent runs can be merged in index order.
type fuzzOutcome struct {
	spec       FuzzScenario
	events     int64
	blocks     int
	violations []string
	err        error
}

func runFuzzIndex(opts FuzzOptions, i int) fuzzOutcome {
	spec := GenFuzzScenario(opts.Seed, i, opts)
	res, violations, err := RunFuzzScenario(spec)
	if err != nil {
		return fuzzOutcome{spec: spec, err: fmt.Errorf("fuzz scenario %d: %w", i, err)}
	}
	return fuzzOutcome{spec: spec, events: res.Events, blocks: res.CommittedBlocks, violations: violations}
}

// RunFuzz executes the sweep: Scenarios generated scenarios, each run and
// invariant-checked. The returned report carries every violating spec; a
// violation is reproduced by re-running its (Seed, Index) pair.
//
// Scenarios are independent deterministic simulations keyed by (Seed, Index),
// so with Options.Workers > 1 they run on a worker pool and are merged back
// in ascending index order — the report is identical at every worker count,
// and Workers == 1 runs the sweep on the calling goroutine exactly as the
// serial implementation did.
func RunFuzz(opts FuzzOptions) (*FuzzReport, error) {
	opts = opts.withDefaults()
	report := &FuzzReport{Options: opts, Scenarios: opts.Scenarios}
	start := time.Now()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Scenarios {
		workers = opts.Scenarios
	}

	outcomes := make([]fuzzOutcome, opts.Scenarios)
	if workers <= 1 {
		for i := 0; i < opts.Scenarios; i++ {
			outcomes[i] = runFuzzIndex(opts, i)
			if outcomes[i].err != nil {
				// Match the serial contract: stop at the first failing
				// scenario rather than finishing the sweep.
				return nil, outcomes[i].err
			}
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					outcomes[i] = runFuzzIndex(opts, i)
				}
			}()
		}
		for i := 0; i < opts.Scenarios; i++ {
			indices <- i
		}
		close(indices)
		wg.Wait()
	}

	// Merge strictly in index order so the report — counters, failure list,
	// everything except Elapsed — is independent of scheduling.
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, o.err
		}
		if len(o.spec.Adversaries) > 0 {
			report.ByzantineScenarios++
		}
		if len(o.spec.Partitions) > 0 {
			report.PartitionScenarios++
		}
		if len(o.spec.Crashes) > 0 {
			report.CrashScenarios++
		}
		report.TotalEvents += o.events
		report.TotalBlocks += o.blocks
		if len(o.violations) > 0 {
			report.Failures = append(report.Failures, FuzzFailure{Spec: o.spec, Violations: o.violations})
		}
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// WeakenedRuleCanary runs the directed Appendix C attack — 2f colluders at
// consecutive leader slots composing round starvation, double-signing,
// fork revival and marker lying — against the deliberately weakened naive
// commit rule (endorsements counted without markers). It returns the
// generated spec and the checker's findings: a healthy checker reports a
// Definition 1 violation here, and the identical collusion under the real
// marker rule reports none. Different seeds start the colluder window at
// different slots and reshuffle timing; callers scan a few seeds and pin
// the first that fires (the spec line makes it replayable).
func WeakenedRuleCanary(seed int64, n int, naive bool) (FuzzScenario, []string, error) {
	f := (n - 1) / 3
	sub := subSeed(seed, 1<<20) // outside any sweep's index space
	rng := rand.New(rand.NewSource(sub))
	spec := FuzzScenario{
		Index:         1 << 20,
		SubSeed:       sub,
		Protocol:      sft.DiemBFT,
		N:             n,
		VoteMode:      sft.VoteMarkers,
		Duration:      12 * time.Second,
		RoundTimeout:  250 * time.Millisecond,
		Delta:         25 * time.Millisecond,
		LatencyBase:   5 * time.Millisecond,
		LatencyJitter: 2 * time.Millisecond,
		Naive:         naive,
		Adversaries:   make(map[types.ReplicaID][]adversary.Spec, f+1),
	}
	// 2f colluders on consecutive leader slots give the coalition runs of
	// adjacent rounds — what a revived branch needs to grow its own
	// 3-chain. The chain order matters: the starver releases votes for
	// contested rounds, the double-voter signs the conflicting copy, and
	// the reviver (seeing both votes pass through) knows which branches can
	// still be completed.
	start := rng.Intn(n)
	for i := 0; i < 2*f; i++ {
		id := types.ReplicaID((start + i) % n)
		spec.Adversaries[id] = []adversary.Spec{
			{Kind: adversary.WithholdUncontested},
			{Kind: adversary.DoubleVote},
			{Kind: adversary.ForkRevive},
			{Kind: adversary.LieMarkers},
		}
	}
	_, violations, err := RunFuzzScenario(spec)
	return spec, violations, err
}

// PacemakerCanary runs the directed liveness attack — f colluders spamming
// timeouts at full cadence — under one seed and returns the run plus the
// safety checker's findings. With uncapped true the scenario models the
// unhardened baseline: the per-peer timeout cap effectively removed, so the
// spam accumulates in the timeout buffer without bound (watch
// Result.Pacemakers' PeakPerPeer climb with the run length). With uncapped
// false the same seed runs the default pacemaker — the default per-peer cap
// plus leader-reputation rotation — which must keep committing with
// PeakPerPeer bounded by the cap. Callers compare the two arms; both must
// stay CheckInvariants-clean, because this is a liveness/resource attack,
// not a safety one.
func PacemakerCanary(seed int64, n int, uncapped bool) (FuzzScenario, *Result, []string, error) {
	f := (n - 1) / 3
	sub := subSeed(seed, 1<<21) // outside sweep index space and the weakened-rule canary's slot
	rng := rand.New(rand.NewSource(sub))
	spec := FuzzScenario{
		Index:         1 << 21,
		SubSeed:       sub,
		Protocol:      sft.DiemBFT,
		N:             n,
		VoteMode:      sft.VoteMarkers,
		Duration:      10 * time.Second,
		RoundTimeout:  250 * time.Millisecond,
		Delta:         25 * time.Millisecond,
		LatencyBase:   5 * time.Millisecond,
		LatencyJitter: 2 * time.Millisecond,
		Verify:        true,
		Uncapped:      uncapped,
		Adversaries:   make(map[types.ReplicaID][]adversary.Spec, f),
	}
	start := rng.Intn(n)
	for i := 0; i < f; i++ {
		spec.Adversaries[types.ReplicaID((start+i)%n)] = []adversary.Spec{{Kind: adversary.TimeoutSpam, Every: 1}}
	}
	res, violations, err := RunFuzzScenario(spec)
	return spec, res, violations, err
}
