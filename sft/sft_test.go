package sft_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reference"
	"repro/sft"
)

func mustNodeErr(t *testing.T, wantSub string, cfg sft.Config, opts ...sft.Option) {
	t.Helper()
	_, err := sft.New(cfg, opts...)
	if err == nil {
		t.Fatalf("New succeeded; want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestNewValidation(t *testing.T) {
	world, err := sft.NewSimnet(sft.SimnetConfig{N: 4, Latency: &sft.UniformLatency{Base: time.Millisecond}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := sft.Config{ID: 0, N: 4, Seed: 1}

	mustNodeErr(t, "3f+1", sft.Config{ID: 0, N: 5, Seed: 1})
	mustNodeErr(t, "outside", sft.Config{ID: 9, N: 4, Seed: 1})
	mustNodeErr(t, "transport is required", ok)
	mustNodeErr(t, "unknown engine", ok, sft.WithEngine(sft.Engine(9)), sft.WithTransport(world.Transport(0)))
	mustNodeErr(t, "unknown scheme", ok, sft.WithScheme("rsa"), sft.WithTransport(world.Transport(0)))
	mustNodeErr(t, "DiemBFT-only", ok,
		sft.WithEngine(sft.Streamlet),
		sft.WithCommitRule(sft.CommitRule{Votes: sft.VoteIntervals}),
		sft.WithTransport(world.Transport(0)))
	// An unknown behavior kind fails construction under either engine.
	for _, eng := range []sft.Engine{sft.DiemBFT, sft.Streamlet} {
		mustNodeErr(t, "unknown behavior kind", ok,
			sft.WithEngine(eng),
			sft.WithAdversary(sft.AdversarySpec{Kind: "no-such-behavior"}),
			sft.WithTransport(world.Transport(0)))
	}
	mustNodeErr(t, "negative pipeline workers", ok,
		sft.WithVerifyPipeline(-1),
		sft.WithTransport(world.Transport(0)))
	// Slot/identity mismatches.
	mustNodeErr(t, "slot 1 attached to node 0", ok, sft.WithTransport(world.Transport(1)))
	// A shared key ring must cover the whole cluster.
	simRing, err := sft.NewKeyRing(4, 1, sft.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	mustNodeErr(t, "key ring holds 4 keys", sft.Config{ID: 0, N: 7, Seed: 1},
		sft.WithKeyRing(simRing), sft.WithTransport(world.Transport(0)))
	// The ring names the scheme: a WithScheme naming another fails, so an
	// ed25519 ring under SchemeSim cannot build a node that checks no
	// signature on real keys.
	edRing, err := sft.NewKeyRing(4, 1, sft.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	mustNodeErr(t, "WithScheme(sim) contradicts the key ring's scheme ed25519", ok,
		sft.WithScheme(sft.SchemeSim), sft.WithKeyRing(edRing), sft.WithTransport(world.Transport(0)))
	mustNodeErr(t, "WithScheme(ed25519) contradicts the key ring's scheme sim", ok,
		sft.WithScheme(sft.SchemeEd25519), sft.WithKeyRing(simRing), sft.WithTransport(world.Transport(0)))

	// A valid node attaches (a batch-worker override is accepted on every
	// transport, and a WithScheme that agrees with the ring is too); the
	// same slot cannot be attached twice.
	if _, err := sft.New(ok, sft.WithScheme(sft.SchemeSim), sft.WithKeyRing(simRing), sft.WithVerifyPipeline(2), sft.WithTransport(world.Transport(0))); err != nil {
		t.Fatal(err)
	}
	mustNodeErr(t, "already attached", ok, sft.WithScheme(sft.SchemeSim), sft.WithTransport(world.Transport(0)))
}

// TestReferenceRuleConflicts: a replica runs one commit rule, so two
// WithReference calls naming different rules fail New with both named,
// while the same rule named twice, or a rule beside the switches that
// combine with any rule, builds. A rule the engine cannot run fails too.
func TestReferenceRuleConflicts(t *testing.T) {
	arms := func(each ...reference.Arms) []sft.Option {
		var opts []sft.Option
		for _, a := range each {
			opts = append(opts, sft.WithReference(a))
		}
		return opts
	}
	plain := reference.Arms{Rule: reference.RulePlain}
	fbft := reference.Arms{Rule: reference.RuleFBFT}
	naive := reference.Arms{Rule: reference.RuleNaive}
	for _, tc := range []struct {
		name string
		opts []sft.Option
		want []string // error substrings; nil means New succeeds
	}{
		{"plain then naive", arms(plain, naive), []string{"plain", "naive"}},
		{"naive then plain", arms(naive, plain), []string{"naive", "plain"}},
		{"fbft then naive", arms(fbft, naive), []string{"fbft", "naive"}},
		{"plain then fbft", arms(plain, fbft), []string{"plain", "fbft"}},
		{"plain twice", arms(plain, plain), nil},
		{"naive beside verification", arms(naive, reference.Arms{VerifySignatures: true, DisableQCCache: true}), nil},
		{"fbft under streamlet", append(arms(fbft), sft.WithEngine(sft.Streamlet)), []string{"FBFT", "DiemBFT-only"}},
		{"plain under streamlet", append(arms(plain), sft.WithEngine(sft.Streamlet)), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world, err := sft.NewSimnet(sft.SimnetConfig{N: 4, Latency: &sft.UniformLatency{Base: time.Millisecond}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			opts := append([]sft.Option{sft.WithScheme(sft.SchemeSim), sft.WithTransport(world.Transport(0))}, tc.opts...)
			_, err = sft.New(sft.Config{ID: 0, N: 4, Seed: 1}, opts...)
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatalf("New succeeded; want an error naming %q", tc.want)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not name %q", err, sub)
				}
			}
		})
	}
}

// TestLocalNetSubscriptions runs a real (goroutine-per-replica) cluster over
// in-process channels and exercises the subscription API end to end:
// Commits ordering, WaitStrength, and close-on-shutdown semantics.
func TestLocalNetSubscriptions(t *testing.T) {
	const (
		n    = 4
		f    = 1
		seed = 17
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	lan := sft.NewLocalNet(n)
	defer lan.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	nodes := make([]*sft.Node, n)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed},
			sft.WithKeyRing(ring),
			sft.WithTransport(lan.Transport(id)),
			sft.WithRoundTimeout(200*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	events := nodes[0].Commits()

	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(ctx); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}

	// First regular commit from the stream, then wait for it to strengthen
	// to 2f.
	var first sft.BlockID
	var prevHeight sft.Height
	deadline := time.After(30 * time.Second)
	for first == (sft.BlockID{}) {
		select {
		case ev := <-events:
			if ev.Regular {
				if ev.Height != prevHeight+1 {
					t.Fatalf("regular commits out of order: height %d after %d", ev.Height, prevHeight)
				}
				prevHeight = ev.Height
				first = ev.Block.ID()
			}
		case <-deadline:
			t.Fatal("no commit within 30s")
		}
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := nodes[0].WaitStrength(wctx, first, 2*f); err != nil {
		t.Fatalf("WaitStrength: %v", err)
	}
	if got := nodes[0].Strength(first); got < 2*f {
		t.Fatalf("Strength(first) = %d after WaitStrength(2f)", got)
	}

	// Shutdown closes the stream.
	cancel()
	wg.Wait()
	for range events {
	}
	snap := nodes[0].Metrics()
	if snap.Commits == 0 || snap.MaxStrength < 2*f {
		t.Fatalf("metrics snapshot %+v lacks commits or strength", snap)
	}
}

// TestLocalNetAggregateScheme runs a real goroutine-per-replica cluster
// with the aggregating ed25519 scheme: every certificate formed on the wire
// is a compact (bitmap + aggregate signature) QC, verification is on, and
// commits must still flow and strengthen to 2f.
func TestLocalNetAggregateScheme(t *testing.T) {
	const (
		n    = 4
		f    = 1
		seed = 23
	)
	ring, err := sft.NewKeyRing(n, seed, sft.Ed25519Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	lan := sft.NewLocalNet(n)
	defer lan.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	nodes := make([]*sft.Node, n)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed},
			sft.WithKeyRing(ring),
			sft.WithTransport(lan.Transport(id)),
			sft.WithRoundTimeout(200*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	events := nodes[0].Commits()

	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(ctx); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}

	var first sft.BlockID
	deadline := time.After(30 * time.Second)
	for first == (sft.BlockID{}) {
		select {
		case ev := <-events:
			if ev.Regular {
				first = ev.Block.ID()
			}
		case <-deadline:
			t.Fatal("no commit within 30s under the aggregate scheme")
		}
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := nodes[0].WaitStrength(wctx, first, 2*f); err != nil {
		t.Fatalf("WaitStrength under aggregate scheme: %v", err)
	}

	cancel()
	wg.Wait()
	for range events {
	}
}

// TestMinStrengthFilter pins the commit rule's client-side threshold: a
// subscriber under MinStrength 2f sees only 2f-strong events.
func TestMinStrengthFilter(t *testing.T) {
	const (
		n    = 4
		f    = 1
		seed = 23
	)
	world, err := sft.NewSimnet(sft.SimnetConfig{N: n, Latency: &sft.UniformLatency{Base: 2 * time.Millisecond}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var got []sft.CommitEvent
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithScheme(sft.SchemeSim),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(200 * time.Millisecond),
		}
		if id == 0 {
			opts = append(opts,
				sft.WithCommitRule(sft.CommitRule{MinStrength: 2 * f}),
				sft.WithObserver(func(ev sft.CommitEvent) { got = append(got, ev) }),
			)
		}
		if _, err := sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...); err != nil {
			t.Fatal(err)
		}
	}
	world.Run(3 * time.Second)
	if len(got) == 0 {
		t.Fatal("no events at MinStrength 2f in a fault-free run")
	}
	for _, ev := range got {
		if ev.Strength < 2*f {
			t.Fatalf("event below threshold leaked: %+v", ev)
		}
	}
}

// TestCrashedReplicaDoesNotStall: with one replica crashed, the others keep
// committing with no option set. Under round-robin leaders the round before a
// dead leader's never gets its certificate, so at n=4 the 3-chain rule
// committed nothing more after the crash; reputation rotation skips the dead
// leader once its slot has failed.
func TestCrashedReplicaDoesNotStall(t *testing.T) {
	const seed = 5
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			world, err := sft.NewSimnet(sft.SimnetConfig{N: n, Latency: &sft.UniformLatency{Base: 8 * time.Millisecond, Jitter: 4 * time.Millisecond}, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var probe *sft.Node
			for i := 0; i < n; i++ {
				id := sft.ReplicaID(i)
				node, err := sft.New(sft.Config{ID: id, N: n, Seed: seed},
					sft.WithScheme(sft.SchemeSim),
					sft.WithTransport(world.Transport(id)),
					sft.WithRoundTimeout(200*time.Millisecond),
					sft.WithPruneKeep(512))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					probe = node
				}
			}
			world.CrashAt(sft.ReplicaID(n-1), 2*time.Second)
			world.Run(10 * time.Second)
			at10 := probe.CommittedHeight()
			world.Run(30 * time.Second)
			t.Logf("replica 0: height %d at 10 s, %d at 30 s", at10, probe.CommittedHeight())
			if got := probe.CommittedHeight() - at10; got < 200 {
				t.Fatalf("replica 0 committed %d blocks between 10 s and 30 s (height %d to %d), want at least 200", got, at10, probe.CommittedHeight())
			}
		})
	}
}

// TestSimnetCrashRestartWAL exercises the facade's durability path: a
// WAL-backed victim is killed mid-run, restored via Simnet.RestartAt, and
// must catch back up without ever contradicting the observer's chain.
func TestSimnetCrashRestartWAL(t *testing.T) {
	const (
		n      = 4
		seed   = 31
		victim = sft.ReplicaID(2)
	)
	world, err := sft.NewSimnet(sft.SimnetConfig{N: n, Latency: &sft.UniformLatency{Base: 2 * time.Millisecond, Jitter: time.Millisecond}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[sft.ReplicaID]map[sft.Height]sft.BlockID)
	observer := func(id sft.ReplicaID) sft.Option {
		chains[id] = make(map[sft.Height]sft.BlockID)
		return sft.WithObserver(func(ev sft.CommitEvent) {
			if ev.Regular {
				chains[id][ev.Height] = ev.Block.ID()
			}
		})
	}
	nodes := make([]*sft.Node, n)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithScheme(sft.SchemeSim),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(200 * time.Millisecond),
			observer(id),
		}
		if id == victim {
			opts = append(opts, sft.WithWAL(t.TempDir()))
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed}, opts...)
		if err != nil {
			t.Fatal(err)
		}
	}
	// RestartAt on a WAL-less node is refused.
	if err := world.RestartAt(0, time.Second, nil); err == nil {
		t.Fatal("RestartAt without WAL succeeded")
	}

	world.CrashAt(victim, 2*time.Second)
	var restored sft.RecoveryInfo
	if err := world.RestartAt(victim, 4*time.Second, func(rec sft.RecoveryInfo) { restored = rec }); err != nil {
		t.Fatal(err)
	}
	world.Run(8 * time.Second)

	if restored.Blocks == 0 || restored.Votes == 0 {
		t.Fatalf("restart recovered nothing: %+v", restored)
	}
	obs, vic := chains[0], chains[victim]
	if len(vic) == 0 {
		t.Fatal("victim committed nothing")
	}
	for h, id := range vic {
		if other, ok := obs[h]; ok && other != id {
			t.Fatalf("height %d: victim committed %v, observer %v", h, id, other)
		}
	}
	// The restored victim must have caught back up with the cluster.
	if nodes[victim].CommittedHeight() < nodes[0].CommittedHeight()-5 {
		t.Fatalf("victim height %d lags observer %d", nodes[victim].CommittedHeight(), nodes[0].CommittedHeight())
	}
	if err := world.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPFacade runs a small wall-clock cluster over real sockets with the
// verification pipeline on, using the ephemeral-port + SetPeers pattern.
func TestTCPFacade(t *testing.T) {
	const (
		n    = 4
		seed = 47
	)
	ring, err := sft.NewKeyRing(n, seed, sft.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*sft.Node, n)
	peers := make(map[sft.ReplicaID]string, n)
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		nodes[i], err = sft.New(sft.Config{ID: id, N: n, Seed: seed},
			sft.WithKeyRing(ring),
			sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: "127.0.0.1:0"})),
			sft.WithVerifyPipeline(0),
			sft.WithRoundTimeout(500*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = nodes[i].Addr().String()
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(ctx); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}
	wg.Wait()
	snap := nodes[0].Metrics()
	if snap.Commits == 0 {
		t.Fatal("TCP cluster committed nothing in 3s")
	}
	if snap.SpoofedFrames != 0 || snap.MalformedFrames != 0 || snap.VerifyDroppedFrames != 0 {
		t.Fatalf("honest cluster dropped frames: %+v", snap)
	}
}
