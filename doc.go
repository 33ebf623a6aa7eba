// Package repro is a from-scratch Go reproduction of "Strengthened Fault
// Tolerance in Byzantine Fault Tolerant Replication" (Xiang, Malkhi, Nayak,
// Ren — ICDCS 2021, arXiv:2101.03715).
//
// The repository implements SFT-DiemBFT and SFT-Streamlet — chain-based BFT
// SMR protocols whose committed blocks gain resilience from f up to 2f (out
// of n = 3f+1) as the chain extends them — together with every substrate the
// paper's evaluation depends on: the DiemBFT and Streamlet baselines, the
// Appendix B FBFT adaptation, a deterministic discrete-event network
// simulator with the paper's geo-distributed latency models, a real TCP
// runtime, Byzantine adversaries, a light-client proof system, and a
// benchmark harness regenerating every figure of the evaluation section.
//
// Start with README.md (architecture map and performance notes). The
// benchmarks in bench_test.go regenerate each figure at reduced scale;
// cmd/sftbench runs them at paper scale (n = 100, five virtual minutes).
//
// # Public API: the sft facade
//
// PR 4 added the top-level sft package, the stable public surface every
// consumer builds on: sft.New(cfg, opts...) composes an engine, commit
// rule, signature scheme, transport, write-ahead log, verification
// pipeline and metrics sink into one Node, and all four commands plus all
// seven examples are wired through it (zero direct imports of
// internal/runtime, internal/diembft or internal/streamlet outside the
// facade). Engine construction itself is one unexported builder inside
// sft.New, and fixed-seed facade runs are pinned bit-identical to
// hand-wired runs (sft/determinism_test.go).
//
// The experiment harness (internal/harness) is a scenario library over
// sft.Simnet. A Scenario names a cluster, a latency model (harness.PreGST
// adds partial synchrony), a fault schedule — crashes, kill/restart plans,
// partitions, Byzantine behavior chains — and the facade options every
// replica runs with; harness.Run builds one sft.New node per replica on one
// Simnet, feeds its collector through WithObserver, and drives crashes,
// restarts and partitions through Simnet.CrashAt/RestartAt/PartitionAt/HealAt
// with WithWAL. The paper's figures and theorems (experiments.go), the
// scenario fuzzer and the golden-trace pins all run through it, so every
// measurement is of the path users run (TestHarnessBuildsThroughFacade
// keeps it that way).
//
// The option matrix:
//
//   - WithEngine(DiemBFT | Streamlet) — the consensus protocol.
//   - WithCommitRule(CommitRule{Mode, Votes, IntervalWindow, Horizon,
//     MinStrength}) — the paper's strengthened commit rule as a value:
//     round-keyed (DiemBFT, §3.2) or height-keyed (Streamlet, Appendix D)
//     markers, marker vs interval strong-votes (§3.4), the endorsement
//     horizon, and the x-strong threshold subscribers act on. Mode is
//     validated against the engine: asking DiemBFT for the height rule is
//     an error, not a fallback.
//   - WithScheme(SchemeEd25519 | SchemeSim), WithKeyRing — the PKI layer
//     (ed25519 always verifies; sim is the fast deterministic scheme the
//     large simulations use). A supplied ring must hold exactly N keys.
//   - WithTransport(TCP(...)) / NewLocalNet(n).Transport(id) /
//     NewSimnet(cfg).Transport(id) — real sockets, in-process channels, or
//     the deterministic discrete-event fabric (which adds CrashAt/RestartAt
//     kill-and-recover scheduling). Every transport prevalidates each
//     inbound message exactly once (see "Verification").
//   - WithWAL(dir) — durability: the node write-ahead-logs everything its
//     safety depends on, recovers it on restart (Node.Restored), and
//     flushes/closes the log in Node.Close and on Run's way out.
//   - WithVerifyPipeline(workers) — overrides the derived number of
//     goroutines that batch-check one cold certificate's signatures; it
//     switches nothing on.
//   - WithObservability(ObsConfig{...}) — the operator surface: a
//     per-node obs sink (Prometheus-style registry, block-lifecycle
//     tracer, health monitor) instrumenting every layer — rounds,
//     timeouts, votes, QCs, commit and strength-rise latency histograms
//     per resilience level, WAL fsync and batch-verify timings, per-peer
//     frame/byte counters. Node.Obs() and Node.Health() expose it;
//     obs.NewHandler serves /metrics, /healthz, /tracez and /debug/pprof
//     (cmd/sftnode -obs-addr). Engine-side hooks use the engine clock, so
//     fixed-seed runs stay bit-identical with the sink on or off.
//   - WithMetrics, WithObserver, WithPayload, WithRoundTimeout,
//     WithExtraWait(For), WithDelta, WithoutEcho, WithCommitLog,
//     WithPruneKeep — observation and per-engine knobs.
//   - WithAdversary(specs...) — adversarial testing: the node becomes
//     Byzantine, its honest engine wrapped with the composed behavior
//     chain (Adversary* kinds: equivocation, vote withholding,
//     double-signing, marker lying, fork revival, round starvation,
//     signature corruption, garbage, replay, drop/delay/duplicate,
//     timeout spamming, round-entry lying).
//     WithAdversaryPeers names its coalition — the paper's adversary
//     coordinates, and coalition-aware behaviors (fork revival) use it.
//   - WithPacemaker(PacemakerConfig{Active, PerPeerTimeoutCap,
//     LeaderReputation}) — the attack-hardened pacemaker (DiemBFT only).
//     Active broadcasts justified RoundEntry announcements (a QC or a
//     2f+1-attestation timeout certificate), rejects unjustified round
//     advances, and drops timeouts claiming rounds more than 8 past the
//     local round before any signature work; PerPeerTimeoutCap (default 8,
//     passive mode too) bounds buffered timeouts per peer;
//     LeaderReputation > 0 deterministically skips recently timed-out
//     leaders. With LeaderReputation off, fixed-seed runs pin bit-identical
//     to the passive default. README.md, "Liveness under attack", narrates
//     the A/B (make liveness-attack) and the rejection metrics.
//   - WithApp(factory) — the execute-before-vote layer: every replica
//     builds a StateMachine per engine incarnation (so crash recovery
//     re-executes the restored chain on a fresh instance) and executes each
//     proposal before voting; the 32-byte state root joins the vote's signed
//     payload and every QC, and an honest replica refuses a proposal whose
//     certified parent root disagrees with its own. Apply must be a pure
//     function of (parent root, block). Node.AppState, AppHash and AppHashAt
//     read the state, CommitEvent.Results carries each committed block's
//     per-transaction verdicts. README.md, "Execution layer", covers the
//     wire versioning and the flagship bank.
//   - WithPayloadNow(fn), WithMempool(m) — the workload-side companions:
//     PayloadNow is WithPayload with the node's clock alongside the
//     round (latency-stamping generators); NewMempool wraps the bounded
//     FIFO pool behind the Section 5 conflict gate, so a transaction
//     submitted with a required strength holds the sender's later
//     traffic until its block is that strong — wired synchronously into
//     the commit path of the node carrying WithMempool.
//   - WithReference(reference.Arms{...}) — the one seam for the reference
//     arms the experiments measure against: one commit rule (plain 3-chain,
//     the FBFT baseline or the Appendix C naive count) plus two switches,
//     signature checks under the simulated schemes and the certificate
//     cache off. The parameter type is declared under internal/, so only
//     this module can select an arm; the zero value is the production node,
//     repeated calls add arms, and two calls naming different rules fail.
//
// Commit-strength subscriptions are how clients consume the paper's
// contribution. Node.Commits() returns an independent channel of
// CommitEvents: each block appears once with Regular=true at the classical
// f-strong commit (in height order), then once per strength level x it
// climbs to (Regular=false), up to 2f. CommitRule.MinStrength filters the
// stream — a client that only acts on x-strong commits simply never sees
// weaker events — and Node.WaitStrength(ctx, id, x) blocks until one block
// tolerates x Byzantine faults. Delivery is unbounded-buffered so slow
// consumers never back-pressure consensus; channels close when the node
// closes, and what is still queued then may be cut short (Node.Close).
//
// # Access tier
//
// PR 10 scaled the read path past the committee without adding voting
// weight. Three pieces compose, all through the facade:
//
//   - NewObserver(ObserverConfig, ObserverTCP(...) | Simnet.ObserverTransport(i))
//     — a non-voting follower (internal/observer) with a wire identity
//     outside [0, n). Over TCP it dials upstream replicas with an observer
//     handshake; the replicas mirror their certified-chain traffic
//     (proposals, QCs, round entries, state-sync segments) to it and drop —
//     and count — anything from it that is not a catch-up request, so an
//     observer's vote power is structurally zero and its back-pressure can
//     never stall consensus. The observer verifies every signature and
//     certificate itself through the same engine pipeline replicas use,
//     tracks strength with the paper's marker rule, and serves the Node
//     subscription surface (Commits, Strength, WaitStrength,
//     CommittedHeight). It recovers from restarts via state sync, like a
//     crashed replica re-joining.
//   - NewGateway(GatewayConfig) — a strength-subscription fan-out service
//     (internal/gateway, cmd/sftgateway) fed by observers through
//     ObserverConfig.Gateway, their one certified-pair consumer. Each
//     certified (block, QC) pair is re-verified by the gateway's own light
//     client; fresh strength rises fan out to subscribers as
//     length-delimited frames carrying the Section 5 proof — the carrier
//     block whose CommitLog proves the rise, plus the QC certifying that
//     carrier. Per-subscriber queues are bounded (GatewayConfig.QueueBound);
//     a subscriber that falls further behind is evicted rather than ever
//     back-pressuring the feed.
//     sft_gateway_* metric families expose subscribers, events, evictions
//     and ingest counts on /metrics.
//   - Subscribe(addr, SubscriberConfig) — the client end. Each streamed
//     event is re-verified against the committee's PKI by the subscriber's
//     own lightclient (certificate check + CommitLog membership) before
//     delivery, so the gateway needs no trust: a lying gateway terminates
//     the stream with *ErrProofInvalid instead of being believed
//     (sftclient -subscribe is this as a probe).
//
// `sftbench -experiment gateway` (make gateway-scale) is the acceptance
// experiment: an n=7 cluster serving 1000 concurrent proof-verified
// subscriptions through one gateway, commit cadence compared against a
// no-gateway baseline, plus a lying-gateway arm every subscriber must
// reject. BENCH_PR10.json records the numbers; make gateway-smoke runs the
// live-binary smoke (sftnode cluster + sftgateway + sftclient -subscribe).
//
// # Replica chassis
//
// The paper bolts SFT onto any chained BFT protocol at "marginal bookkeeping
// overhead"; the code has the same shape. internal/replica is the chassis
// both voting engines embed: everything about a certified chain that is the
// same under DiemBFT and Streamlet. The engines keep the rules the paper
// gives per protocol and call into the chassis; the chassis never decides
// when to vote, certify or commit.
//
//	concern            chassis (internal/replica)       DiemBFT (Fig. 2/4)             Streamlet (Fig. 10/11)
//	configuration      replica.Config: identity, PKI,   vote mode, timeouts,            ∆, echo, proposal window
//	                   SFT, payload, app, journal, obs  extra-wait, prune, pacemaker
//	event bracket      Begin / Take: flush, then send   dispatch by message and timer   dispatch; unwrap echoes
//	proposing          Propose: payload, sign, journal  leader + TC bound, commit log    slot leader, longest-chain tip
//	accepting a block  Accept: install, the engine's    stale rounds; what an accepted  first-seen echo; what an
//	                   step, then the parked children;  proposal means: justify, vote,  accepted proposal means: the
//	                   Park: bounded buffer, the first  waiting QC, collected votes     justify when the parent's votes
//	                   orphan of a parent asks its                                      were missed, vote, certify
//	                   sender for the chain
//	voting             CastVote: execute, sign,         rvote / rlock / TC rule,        first proposal of the round on
//	                   journal, record in history       marker or interval set          a longest chain; height marker
//	vote → certificate AddVote, Certify: dedup, root    collector only, extra-wait,     everyone, relay by echo,
//	                   check, sort, aggregate           FBFT late votes, qcFormed       register + journal
//	after a QC         tracker (round or height keyed;  2-chain lock, 3-chain commit    longest-chain height, consecutive-
//	                   its state is on the store's      along the certified node's      round 3-chain commit
//	                   nodes)                           parents, round sync, orphan QCs
//	committing         CommitTo: app, outputs, record   —                               —
//	pruning            PruneBelow: one pass, O(removed) when (PruneKeep); qcFormed      never: Streamlet does not call
//	                   — the store severs and returns   forgets the removed blocks,     PruneBelow and ignores PruneKeep
//	                   the blocks it removed, strength  the per-round maps the rounds   (dropping first-seen marks would
//	                   state going with their nodes;    the floor moved across          re-admit late echoes); neither
//	                   vote sets forget those, history                                  does the observer
//	                   the rounds below the cut's block
//	recovery           Restore: replay skeleton         proposed rounds, rvote, rlock   first-seen marks, voted rounds
//	catch-up           request (Park, or at boot after  what a synced certificate       what a synced certificate means
//	                   Restore), serve, ApplySegment    means (the regular QC path)     (longest chain, commit rule)
//	                   link by link, adopt what was
//	                   parked; Certs (cache, batch
//	                   workers, timing)
//	rounds             EnterRound (snapshot for         pacemaker, TCs, round entry,    2∆ lock-step slots
//	                   Prevalidate)                     leader reputation
//	observer borrows   Certs, Certs.Apply, Orphans,     —                               —
//	                   UnwrapEcho
//
// The non-voting observer (internal/observer) derives commits differently
// (first tracker rise to level f) and has no signer, journal or vote
// history, so it embeds no chassis and borrows only the four pieces that
// need none.
//
// Two contracts live in the chassis and nowhere else. Durability
// (Chassis.Take): every record an event stages — accepted blocks, own votes,
// standalone certificates, lock advances, the commit tip — is flushed under
// one fsync before any of the event's outputs, votes above all, reaches the
// network; an append or flush error crash-stops the replica before the
// outputs are released, because a replica that cannot persist its voted
// history can no longer guarantee its own markers. Execute-before-vote
// (Chassis.CastVote, with an app configured): a replica executes a proposal
// before voting on it, the state root rides inside the vote's signed payload
// so certificates certify state, a collector credits only votes whose root
// matches its own execution, and a proposal whose justify certificate
// disagrees with local execution of the parent gets no vote. Failures the
// chassis tolerates instead of stopping on are counted, never dropped:
// sft_app_execute_failed_total, sft_sync_segments_rejected_total and
// sft_qc_aggregate_failed_total read 0 on a healthy cluster (make obs-smoke
// asserts it).
//
// # TCP wire format
//
// One frame format carries everything between replicas and between replicas
// and observers (internal/tcpnet frames, internal/types/msgcodec.go encodes
// the message). All integers are big-endian.
//
//	frame     uint32 length | uint32 sender | message
//	          length counts everything after itself; at most 64 MiB
//	          (tcpnet.MaxFrame), checked before anything is allocated
//	message   uint8 tag | body
//	opt(x)    uint8 0, or uint8 1 followed by x
//	sig       uint32 length | bytes
//
//	tag  message            body
//	0    hello              uint8 flags (bit 0: the dialer is an observer)
//	1    Proposal           opt(Block) | uint64 round | uint32 sender | sig
//	2    VoteMsg            Vote
//	3    Timeout            uint64 round | opt(QC) | uint64 highRound | uint32 sender | sig
//	4    Echo               uint32 relayer | opt(message), at most 8 deep
//	5    ExtraVote          Vote | uint32 leader
//	6    retired            (a per-block sync request until PR 23) rejected as an
//	7    retired            (its response) unknown tag; neither number is ever reused
//	8    StateSyncRequest   uint64 have | uint32 sender
//	9    StateSyncResponse  uint32 sender | opt(QC) | uint32 count | Block...
//	10   RoundEntry         uint64 round | opt(QC) | opt(TC) | uint32 sender | sig
//
// Block, QC, TC and Vote are the pinned encodings replicas hash, sign and
// journal (Block.AppendEncoding, QC.Encode, TC.Encode, Vote.Encode), so a
// compact certificate travels as its compact bytes. The decoders accept
// non-canonical input and re-encode to a fixpoint; a received block's ID is
// the hash of its re-encoding, never of the bytes that arrived.
//
// The hello is the first frame on every connection and names the dialer; a
// later frame claiming any other sender is dropped and counted as spoofed,
// one that does not decode as malformed. A replica dials each peer for its
// outbound frames and accepts the peer's dial for inbound ones. An observer
// dials with the observer flag under an ID outside the committee; the
// replica then writes on that same connection every Proposal, Echo and
// RoundEntry it broadcasts or accepts from a peer (peer frames relayed as
// the bytes that arrived), plus replies addressed to the observer. An
// observer may send only StateSyncRequest; anything else is dropped and
// counted as restricted.
//
// The client transaction stream (sft.DialTransactions to a node's
// ListenTransactions) is not framed: transactions follow one another in
// their pinned encoding, uint32 sender | uint64 seq | uint32 length | data,
// with data capped at 1 MiB.
//
// # Performance
//
// The simulation hot path is engineered so that fixed-seed experiment
// results are bit-identical to the straightforward implementation while
// steady-state work per event stays allocation-free:
//
//   - crypto.QCCache memoizes verified certificates per replica (signatures
//     are immutable, so entries never invalidate; an LRU bounds memory),
//     turning the O(n²) per-round signature re-checking into one check per
//     distinct QC per replica.
//   - types.Vote.AppendSigningPayload and QC.Encode build signing payloads
//     into caller-owned scratch buffers; engines and verifiers reuse one
//     buffer per replica.
//   - simnet's event queue is a pooled, value-based indexed heap: events
//     live in a recycled slab and the heap orders int32 slot indices, so
//     dispatching an event performs no allocation once the queue size
//     plateaus.
//   - core.Tracker keeps per-block endorser sets as a presence bitset plus a
//     short list of key classes (a key and a member bitset; voters share
//     keys, so a block has one to three) in a record on the block's node in
//     the store. A certificate costs one BlockID lookup; in the common shape
//     (round-keyed markers, no interval vote, each voter in range once) its
//     votes are grouped by marker and unpacked a bitset word at a time, one
//     ancestor walk for all groups, and otherwise one vote at a time.
//     core.VoteHistory computes vote markers with a single indexed ancestor
//     walk instead of one ancestry walk per voted block.
//
// Determinism is the regression oracle for all of the above: see
// internal/harness/determinism_test.go and the allocation guards in
// internal/types, internal/simnet, and internal/core. BENCH_PR1.json
// records the before/after numbers.
//
// # Verification
//
// A message is checked in one stage and applied in another, and each check
// exists once (internal/engine states the contract). Prevalidate is every
// stateless check — structure always, signatures and certificates when
// VerifySignatures is on — and runs where the transport puts it: on tcpnet's
// per-peer reader goroutines (the loop then enters through
// OnVerifiedMessage), or inline in OnMessage under LocalNetwork and simnet.
// OnVerifiedMessage is the state stage and checks no signature; OnMessage is
// the first then the second, skipping the first for loopback. Whoever runs
// Prevalidate counts it once (obs.OnPrevalidate) and keeps per-sender FIFO.
//
// Every certificate check goes through replica.Certs.VerifyQC, which has two
// arms — structure only, or the content-keyed verified-QC cache and the batch
// verifier when signatures are on — and one front for both: an identity memo
// of the last two *QC this replica accepted. The same object delivered again
// is accepted without being read: one high QC rides in every peer's timeout
// of a round, and the simulator hands all of them the same pointer (a TCP
// node decodes a fresh object per frame, so there the content-keyed cache
// does that work). Any other pointer, equal content or not, takes the whole
// arm, and a pointer is remembered only after it did. That is sound
// because a message is immutable after hand-off (internal/engine) and the
// memo's own reference keeps the address from being reused.
//
//	message       stateless (Prevalidate)                          stateful (state stage)
//	Proposal      block and justify present, round/proposer match, reputation leader (reads the store),
//	 (DiemBFT)    round-robin leader, justify certifies parent,    stale round, parent presence /
//	              proposer signature, justify QC                   orphaning
//	Vote,         signature                                        collector, dedup, execution-root
//	ExtraVote                                                      check
//	Timeout       HighRound = HighQC.Round, high QC present        stale round, exact window,
//	              (active pacemaker), window pre-filter, sender    per-peer cap
//	              signature, high QC
//	RoundEntry    exactly one justification, its round + 1 =       stale round, exact window
//	              round, round pre-filter, sender signature,
//	              QC or TC
//	Streamlet     echo unwrap within the nesting cap, round/       first-seen (seenProp) or already
//	              proposer match, round-robin leader, window       stored, exact window, parent
//	              pre-filter, proposal and vote signatures         presence, vote dedup, execution-
//	              (memoized across echoed copies)                  root check
//	Observer      block and justify present, justify certifies     already stored, parent presence
//	              parent, sender inside the committee, proposer
//	              signature, justify QC, round-entry QC
//
// Three things are deliberately not a clean split. The future-window tests
// run twice: Prevalidate compares against the published round snapshot so
// far-future spam is dropped before any signature math, the snapshot may lag
// the loop, and the state stage repeats the exact test. Catch-up segments
// (StateSyncResponse) are prefix-stateful — blocks install link by link up to
// the first bad one — so Prevalidate never judges them; it only warms their
// certificates into the verified-QC cache, and they are verified as they
// install (Chassis.ApplySegment, Certs.Apply, statesync.Applier). And
// Streamlet's state stage verifies one certificate of its own: an accepted
// proposal's justify, only when the store holds the parent uncertified
// because this replica missed its votes (streamlet.certifyParent) — a
// condition no stateless check can see, on a certificate the fault-free path
// never reads. The rejection tables and FuzzOnMessage targets of the three
// engine packages drive every malformed class and arbitrary decoded messages
// through both doors; BENCH_PR3.json holds the original measurements of
// taking verification off the loop.
//
// # Durability
//
// PR 2 added the durability layer: internal/wal (an append-only, segmented,
// CRC-framed log with batched fsync), the core.Journal record schema over
// it (accepted blocks, own votes, standalone certificates, locks, commits —
// in the pinned types encodings), engine Restore hooks that rebuild a
// crashed replica so its next vote cannot contradict its pre-crash markers,
// and internal/statesync, the catch-up protocol a recovered or lagging
// replica uses to re-join. The flush-before-send contract is the chassis's
// (see "Replica chassis"). sft.Simnet kills and restarts WAL-backed nodes
// (Simnet.CrashAt/RestartAt), harness scenarios schedule it
// (harness.CrashPlan), and cmd/sftnode persists across process restarts via
// -data-dir. README.md
// documents the full contract; BENCH_PR2.json records the costs (vote-path
// WAL append: 0 allocs/op; bench-smoke with the WAL disabled: unchanged).
//
// # Compact certificates
//
// PR 6 made the steady-state certificate O(1) in committee size. The
// aggregating schemes (crypto.SchemeSimAgg, crypto.SchemeEd25519Agg;
// sft.SimAggregate / sft.Ed25519Aggregate on the facade) fold a quorum of
// votes into one 32-byte aggregate, and types.QC gained a compact wire
// form — signer bitmap + sparse marker-override table + aggregate
// signature — versioned into the existing encoding by a sentinel vote
// count, so vector certificates decode unchanged and the TCP transport
// ships whichever form the QC carries. A steady-state compact QC is 100
// bytes at n=31 and 108 bytes at n=103 (one extra bitmap word), against
// 2.9 KB and 9.6 KB for the vector form, and verifies in near-constant
// time because votes sharing a marker state share one aggregation payload.
// The scheme is ring-internal like the sim scheme (crypto.Aggregates is
// the swap point for real BLS); vote transit signatures stay genuine
// base-scheme signatures. core.VoteSet (bitmap + dense slice) replaced the
// engines' map-of-maps vote collection, keeping leader-side tracking
// subquadratic and emitting the canonical ascending voter order the
// compact form requires. `sftbench -experiment compactcert` measures the
// n=31 vs n=103 sweep and hard-fails if certificate growth exceeds the
// bitmap-word allowance; TestCompactQCSizeFlat pins the exact byte counts
// in make bench-guard; FuzzDecodeCompactQC fuzzes the decoder; and the
// adversarial fuzzer (now parallel across a worker pool with a
// deterministic index-ordered merge, and scheme-parameterized) runs the
// full Byzantine mix with compact certificates on the wire. BENCH_PR6.json
// records the measurements.
//
// # Adversarial testing
//
// PR 5 made Byzantine behavior a composable subsystem (internal/adversary)
// and put a randomized, invariant-checking scenario fuzzer on top
// (internal/harness.RunFuzz, `sftbench -experiment adversary`). Behaviors
// act on a replica's outbound messages through an engine wrapper, so the
// same implementations corrupt DiemBFT and Streamlet under the simulator
// and the real runtimes alike; the facade (WithAdversary,
// Simnet.PartitionAt/HealAt), and through it every harness scenario, exposes
// them end to end.
//
// The fuzzer samples cluster shape, engine, commit-rule mode, behavior
// compositions up to 2f colluders, crash/restart plans and network
// partitions from a seed, and checks every run against the paper's
// invariants: Definition 1 (no two conflicting blocks both at strength
// >= t, t = number of Byzantine replicas), strength monotonicity per
// replica, chain consistency across honest replicas when t <= f, and
// Theorem 2 liveness under benign faults. Scenarios replay exactly from
// (seed, index); a violation prints the whole generated spec as one line.
//
// The checker's teeth are themselves pinned: harness.WeakenedRuleCanary
// runs the Appendix C collusion — consecutive-slot colluders starving
// uncontested rounds to freeze locks, double-signing both sides of every
// fork, reviving abandoned branches from certificates assembled out of
// gossiped votes, and lying about markers — against the deliberately
// weakened naive endorsement counting, which the Definition 1 checker
// catches with a replayable seed, while the identical collusion against
// the real marker rule stays safe (the paper's central claim, demonstrated
// live; examples/byzantine narrates it). Native go-fuzz targets cover the
// pinned wire decoders and the TCP frame parser (make fuzz-smoke in CI, a
// nightly long-fuzz workflow for depth). BENCH_PR5.json records fuzzer
// throughput and the zero-cost guarantee for honest replicas (an empty
// behavior chain never wraps the engine).
package repro
