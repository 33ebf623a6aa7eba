package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/gateway"
	"repro/internal/types"
	"repro/sft"
)

// This file is the access-tier scale experiment: the read path must scale to
// many clients without touching the write path. A committee of N voting
// replicas runs twice over real sockets — once bare, once with a non-voting
// observer feeding a gateway that serves Subscribers concurrent
// proof-verified strength subscriptions — and the commit cadence of the two
// runs is compared. A third arm serves fabricated proofs from a lying
// gateway; every subscriber must reject them.

// GatewayScale parameterizes the experiment. Unlike the simulated
// experiments, Duration here is wall-clock time per arm: the cluster, the
// observer, the gateway and every subscriber are real processes-in-miniature
// exchanging bytes over loopback TCP.
type GatewayScale struct {
	// N is the committee size (3f+1).
	N int
	// Seed derives the cluster PKI.
	Seed int64
	// Scheme is the signature scheme (crypto.SchemeSim et al).
	Scheme string
	// Duration is the wall-clock run time per arm.
	Duration time.Duration
	// Subscribers is the concurrent verified-subscription count (default
	// 1000 — the "client-scale" claim under test).
	Subscribers int
	// QueueBound is the gateway's per-subscriber queue depth (default 1024
	// here: the experiment measures scale, not eviction, which
	// internal/gateway tests directly).
	QueueBound int
	// ExtraWait paces leaders (the Figure 8 knob), bounding the event rate
	// so the fan-out load is the controlled variable (default 50ms; applied
	// to both arms so the comparison stays fair).
	ExtraWait time.Duration
}

// GatewayArm measures one cluster run.
type GatewayArm struct {
	// Commits counts regular commits at replica 0.
	Commits int
	// Interval summarizes the inter-commit interval at replica 0, in
	// seconds — the cadence the gateway arm must not disturb.
	Interval Summary
}

// GatewayScaleResult is the experiment outcome.
type GatewayScaleResult struct {
	// Subscribers is the resolved concurrent-subscription count.
	Subscribers int
	// Baseline is the bare cluster; WithGateway adds the observer, the
	// gateway and Subscribers verified subscriptions.
	Baseline    GatewayArm
	WithGateway GatewayArm
	// SlowdownP50 is WithGateway's p50 inter-commit interval over
	// Baseline's — the read path's tax on the write path (1.0 = none).
	SlowdownP50 float64
	// EventsVerified counts proof-verified events across all subscribers;
	// MinEventsPerSubscriber is the worst subscriber's count and
	// SubscribersServed how many verified at least one event.
	EventsVerified         int64
	MinEventsPerSubscriber int
	SubscribersServed      int
	// ProofFailures counts honest-arm proof rejections (must be 0).
	ProofFailures int
	// ProvenBlocks is how many distinct blocks the gateway proved strength
	// for.
	ProvenBlocks int
	// LyingSubscribers dialed the lying gateway; LyingRejected is how many
	// rejected its fabricated proof (the two must be equal).
	LyingSubscribers int
	LyingRejected    int
}

// Verdict summarizes pass/fail: every subscriber served, no honest-arm proof
// failures, every lying-arm subscriber rejecting.
func (r *GatewayScaleResult) Verdict() error {
	if r.SubscribersServed < r.Subscribers {
		return fmt.Errorf("only %d/%d subscribers verified an event", r.SubscribersServed, r.Subscribers)
	}
	if r.ProofFailures > 0 {
		return fmt.Errorf("%d proof failures against an honest gateway", r.ProofFailures)
	}
	if r.LyingRejected != r.LyingSubscribers {
		return fmt.Errorf("only %d/%d subscribers rejected the lying gateway", r.LyingRejected, r.LyingSubscribers)
	}
	return nil
}

// GatewayScaleExperiment runs all three arms.
func GatewayScaleExperiment(cfg GatewayScale) (*GatewayScaleResult, error) {
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = 1000
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 1024
	}
	if cfg.ExtraWait <= 0 {
		cfg.ExtraWait = 50 * time.Millisecond
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	res := &GatewayScaleResult{Subscribers: cfg.Subscribers}

	base, _, err := runGatewayArm(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("baseline arm: %w", err)
	}
	res.Baseline = base

	arm, stats, err := runGatewayArm(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("gateway arm: %w", err)
	}
	res.WithGateway = arm
	res.EventsVerified = stats.events
	res.MinEventsPerSubscriber = stats.minPerSub
	res.SubscribersServed = stats.served
	res.ProofFailures = stats.proofFailures
	res.ProvenBlocks = stats.proven
	if base.Interval.P50 > 0 {
		res.SlowdownP50 = arm.Interval.P50 / base.Interval.P50
	}

	dialed, rejected, err := runLyingGateway(cfg)
	if err != nil {
		return nil, fmt.Errorf("lying-gateway arm: %w", err)
	}
	res.LyingSubscribers = dialed
	res.LyingRejected = rejected
	return res, nil
}

// subscriberStats aggregates the gateway arm's subscriber-side accounting.
type subscriberStats struct {
	events        int64
	minPerSub     int
	served        int
	proofFailures int
	proven        int
}

// runGatewayArm runs one cluster for cfg.Duration, with or without the
// access tier attached, and reports the commit cadence at replica 0.
func runGatewayArm(cfg GatewayScale, withGateway bool) (GatewayArm, subscriberStats, error) {
	var arm GatewayArm
	var stats subscriberStats
	ring, err := sft.NewKeyRing(cfg.N, cfg.Seed, sft.Scheme(cfg.Scheme))
	if err != nil {
		return arm, stats, err
	}

	nodes := make([]*sft.Node, cfg.N)
	peers := map[sft.ReplicaID]string{}
	for i := 0; i < cfg.N; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithScheme(sft.Scheme(cfg.Scheme)),
			sft.WithKeyRing(ring),
			sft.WithTransport(sft.TCP(sft.TCPConfig{Listen: "127.0.0.1:0"})),
			sft.WithRoundTimeout(time.Second),
			sft.WithExtraWait(cfg.ExtraWait),
			sft.WithCommitLog(16),
		}
		nodes[i], err = sft.New(sft.Config{ID: id, N: cfg.N, Seed: cfg.Seed}, opts...)
		if err != nil {
			return arm, stats, err
		}
		peers[id] = nodes[i].Addr().String()
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			return arm, stats, err
		}
	}

	// Attach the read path — and register every subscriber — before the
	// first proposal, so "events per subscriber" counts the full stream.
	var gw *sft.GatewayService
	var obs *sft.ObserverNode
	var subs []*sft.Subscriber
	if withGateway {
		gw, err = sft.NewGateway(sft.GatewayConfig{
			N: cfg.N, Seed: cfg.Seed, Scheme: sft.Scheme(cfg.Scheme),
			Ring: ring, QueueBound: cfg.QueueBound,
		})
		if err != nil {
			return arm, stats, err
		}
		defer gw.Close()
		addr, err := gw.Listen("127.0.0.1:0")
		if err != nil {
			return arm, stats, err
		}
		obs, err = sft.NewObserver(sft.ObserverConfig{
			N: cfg.N, Seed: cfg.Seed, Scheme: sft.Scheme(cfg.Scheme),
			Ring: ring, Gateway: gw,
		}, sft.ObserverTCP(peers))
		if err != nil {
			return arm, stats, err
		}
		subs = make([]*sft.Subscriber, cfg.Subscribers)
		for i := range subs {
			subs[i], err = sft.Subscribe(addr.String(), sft.SubscriberConfig{
				N: cfg.N, Seed: cfg.Seed, Scheme: sft.Scheme(cfg.Scheme), Ring: ring,
			})
			if err != nil {
				return arm, stats, fmt.Errorf("subscriber %d: %w", i, err)
			}
		}
	}

	// Drain each subscriber concurrently, counting verified events.
	counts := make([]int64, len(subs))
	var drains sync.WaitGroup
	for i, sub := range subs {
		drains.Add(1)
		go func(i int, sub *sft.Subscriber) {
			defer drains.Done()
			for range sub.Events() {
				atomic.AddInt64(&counts[i], 1)
			}
		}(i, sub)
	}

	// Commit cadence at replica 0, stamped on receipt.
	commitTimes := make(chan time.Time, 4096)
	commits := nodes[0].Commits()
	go func() {
		for ev := range commits {
			if ev.Regular {
				select {
				case commitTimes <- time.Now():
				default:
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	var wg sync.WaitGroup
	runErr := make(chan error, cfg.N+1)
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *sft.Node) {
			defer wg.Done()
			if err := nd.Run(ctx); err != nil {
				runErr <- err
			}
		}(node)
	}
	if obs != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := obs.Run(ctx); err != nil {
				runErr <- err
			}
		}()
	}
	wg.Wait()
	if gw != nil {
		stats.proven = gw.Proven()
		gw.Close() // closes every subscription; the drains then finish
	}
	drains.Wait()
	select {
	case err := <-runErr:
		return arm, stats, err
	default:
	}

	var proofErr *sft.ErrProofInvalid
	stats.minPerSub = int(^uint(0) >> 1)
	for i, sub := range subs {
		c := int(atomic.LoadInt64(&counts[i]))
		stats.events += int64(c)
		if c > 0 {
			stats.served++
		}
		if c < stats.minPerSub {
			stats.minPerSub = c
		}
		if errors.As(sub.Err(), &proofErr) {
			stats.proofFailures++
		}
		sub.Close()
	}
	if len(subs) == 0 {
		stats.minPerSub = 0
	}

	close(commitTimes)
	var last time.Time
	intervals := &Series{}
	for ts := range commitTimes {
		arm.Commits++
		if !last.IsZero() {
			intervals.AddDuration(ts.Sub(last))
		}
		last = ts
	}
	if arm.Commits == 0 {
		return arm, stats, fmt.Errorf("cluster committed nothing in %v", cfg.Duration)
	}
	arm.Interval = intervals.Summarize()
	return arm, stats, nil
}

// runLyingGateway serves a fabricated proof — a genuinely certified carrier
// whose claimed strength record is inflated past what its commit log proves —
// to a pool of subscribers. Every one must reject it client-side.
func runLyingGateway(cfg GatewayScale) (dialed, rejected int, err error) {
	ring, err := crypto.NewKeyRing(cfg.N, cfg.Seed, cfg.Scheme)
	if err != nil {
		return 0, 0, err
	}
	f := (cfg.N - 1) / 3

	genesis := types.Genesis()
	var subject types.BlockID
	subject[0] = 0xEE
	honest := types.StrengthRecord{Block: subject, Height: 3, Round: 3, X: f}
	carrier := types.NewBlock(genesis.ID(), types.NewGenesisQC(genesis.ID()),
		5, 5, 0, 0, types.Payload{}, []types.StrengthRecord{honest})
	votes := make([]types.Vote, 2*f+1)
	for i := range votes {
		v := types.Vote{Block: carrier.ID(), Round: carrier.Round, Height: carrier.Height, Voter: types.ReplicaID(i)}
		v.Signature = ring.Signer(v.Voter).Sign(v.SigningPayload())
		votes[i] = v
	}
	qc := &types.QC{Block: carrier.ID(), Round: carrier.Round, Height: carrier.Height, Votes: votes}
	lie := honest
	lie.X = 2 * f // claims maximum strength; the log only proves f

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := gateway.ReadFrame(c); err != nil {
					return
				}
				frame := gateway.AppendEventFrame(nil, gateway.Event{Record: lie, Carrier: carrier, QC: qc})
				_ = gateway.WriteFrame(c, frame)
			}(conn)
		}
	}()

	dialed = cfg.Subscribers
	if dialed > 128 {
		dialed = 128
	}
	sftRing, err := sft.NewKeyRing(cfg.N, cfg.Seed, sft.Scheme(cfg.Scheme))
	if err != nil {
		return 0, 0, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < dialed; i++ {
		sub, err := sft.Subscribe(ln.Addr().String(), sft.SubscriberConfig{
			N: cfg.N, Seed: cfg.Seed, Scheme: sft.Scheme(cfg.Scheme), Ring: sftRing,
		})
		if err != nil {
			return 0, 0, fmt.Errorf("lying-arm subscriber %d: %w", i, err)
		}
		wg.Add(1)
		go func(sub *sft.Subscriber) {
			defer wg.Done()
			defer sub.Close()
			deadline := time.After(30 * time.Second)
			for {
				select {
				case _, ok := <-sub.Events():
					if ok {
						return // accepted the lie: not rejected
					}
					var proofErr *sft.ErrProofInvalid
					if errors.As(sub.Err(), &proofErr) {
						mu.Lock()
						rejected++
						mu.Unlock()
					}
					return
				case <-deadline:
					return
				}
			}
		}(sub)
	}
	wg.Wait()
	return dialed, rejected, nil
}
