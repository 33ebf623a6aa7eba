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
// README.md tells the story; this file is the reference it links to, each
// topic stated here only. cmd/sftbench runs the evaluation's experiments on
// the simulator, the oracles below pin them, and bench/ measures the real
// stack in wall-clock time.
//
// # Paper claims and their oracles
//
// One row per claim: where the paper makes it → the fixed-seed command that
// reproduces it (`go run ./cmd/sftbench -experiment ...` unless a make target
// is named) → the file under testdata/oracles/ that pins its output → what
// that output says. `make oracles` reruns all ten, strips the wall-time
// lines and diffs the rest byte for byte (scripts/oracles.sh holds the exact
// flags; `make oracles-pin` rewrites them for an intended change). Latencies
// are virtual time under the paper's latency models.
//
//   - §4, Figure 7 (symmetric latency) → fig7a -n 100 -duration 1m -seed 3
//     → fig7a.txt → at δ=100ms the regular commit takes 0.773 s, 1.5f-strong
//     1.087 s, 1.9f-strong 1.686 s; 2.0f waits for a full quorum, 12.5 s.
//   - §4, Figure 7 (asymmetric latency) → fig7b -n 100 -duration 1m -seed 3
//     → fig7b.txt → at δ=100ms 1.0f in 0.192 s and 1.7f in 0.476 s; 1.8f
//     and above need the slow region, about 2.3 s.
//   - §4, Figure 8 (extra wait trades regular for strong latency) → fig8 -n
//     100 -duration 1m -seed 3 → fig8.txt → 200 ms of extra wait makes every
//     level up to 2.0f commit with the regular one, at 1.372 s.
//   - Theorem 2 ((2f−c)-strong under c crashes) → theorem2 -n 31 -duration
//     1m → theorem2.txt → c = 0, 5, 10 reach 2.0f, 1.5f, 1.0f in 0.353,
//     0.551 and 0.476 s mean.
//   - Theorem 3 ((2f−t)-strong under t Byzantine) → theorem3 -n 31
//     -duration 1m → theorem3.txt → with t = 5 equivocators 1.5f is reached
//     in 0.454 s with markers (§3.2) and 0.417 s with intervals (§3.4).
//   - §4 and Appendix B (linear vs quadratic messages) → msgcomplexity →
//     msgcomplexity.txt → at n = 100, 201 messages per decision against
//     FBFT's 3,498 (17.4×); the ratio grows with n.
//   - Definition 1 (no two conflicting blocks both t-strong) → make
//     adversary-fuzz → adversary-fuzz.txt → 150 randomized scenarios with up
//     to 2f colluders, crashes and partitions: zero invariant violations.
//   - Definition 1 with compact certificates → make adversary-fuzz-agg →
//     adversary-fuzz-agg.txt → 60 scenarios under ed25519-agg: zero
//     violations.
//   - Appendix C (markers are necessary) → the canary inside both adversary
//     runs → adversary-fuzz*.txt → naive counting is caught violating
//     Definition 1 (replay seed 1); the same collusion against markers is
//     safe.
//   - Figure 2's passive pacemaker under timeout spam → make liveness-attack
//     → liveness-attack.txt → 248 blocks at 0.138 s p50 in both arms; the
//     per-peer cap holds the buffer at 8 where the uncapped one reaches 1148.
//   - Crash recovery (WAL replay and state-sync rejoin) → crashrecovery -n 7
//     -duration 40s -delta 50ms -seed 3 → crashrecovery.txt → the victim
//     rejoins at the observer's height, 254, and the run is CONSISTENT.
//
// # Public API: the sft facade
//
// sft.New(cfg, opts...) composes an engine, commit rule, signature scheme,
// transport, write-ahead log, verification pipeline and metrics sink into
// one Node through one unexported builder. Every command and example builds
// through it, and fixed-seed facade runs are pinned bit-identical to
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
//   - WithCommitRule(CommitRule{Votes, IntervalWindow, Horizon,
//     MinStrength}) — marker vs interval strong-votes (§3.4), the
//     endorsement horizon, and the x-strong threshold subscribers act on.
//     The engine keys the markers: by round under DiemBFT (§3.2), by height
//     under Streamlet (Appendix D).
//   - WithKeyRing(ring), WithScheme(scheme) — the PKI. The ring names the
//     committee, its size and its scheme (ed25519 always verifies; sim is the
//     fast deterministic scheme): it must hold Config.N keys, and a
//     WithScheme naming another scheme fails New. Without a ring New derives
//     one from Config.Seed (ed25519 by default). f is never a field; every
//     layer derives (N-1)/3.
//   - WithTransport(TCP(...)) / NewLocalNet(n).Transport(id) /
//     NewSimnet(cfg).Transport(id) — real sockets, in-process channels, or
//     the deterministic discrete-event fabric (which adds CrashAt/RestartAt
//     kill-and-recover scheduling). Every transport prevalidates each
//     inbound message exactly once (see "Verification").
//   - WithWAL(dir) — durability: the node write-ahead-logs everything its
//     safety depends on, recovers it on restart (Node.Restored), and
//     flushes/closes the log in Node.Close and on Run's way out. With a
//     prune keep the log holds only the kept window (see "Durability").
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
//   - WithObserver, WithRoundTimeout,
//     WithExtraWait(For), WithDelta, WithoutEcho, WithCommitLog,
//     WithPruneKeep — observation and per-engine knobs.
//   - WithAdversary(specs...) — adversarial testing: the node becomes
//     Byzantine, its honest engine wrapped with the composed behavior
//     chain (Adversary* kinds: equivocation, vote withholding,
//     double-signing, marker lying, fork revival, round starvation,
//     signature corruption, garbage, replay, drop/delay/duplicate,
//     timeout spamming).
//     WithAdversaryPeers names its coalition — the paper's adversary
//     coordinates, and coalition-aware behaviors (fork revival) use it.
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
//     fn supplies each led round's transactions, with the node's clock
//     alongside the round (latency-stamping generators; nil proposes empty
//     blocks); NewMempool wraps the bounded
//     FIFO pool behind the Section 5 conflict gate, so a transaction
//     submitted with a required strength holds the sender's later
//     traffic until its block is that strong — wired synchronously into
//     the commit path of the node carrying WithMempool.
//   - WithReference(reference.Arms{...}) — the one seam for the reference
//     arms the experiments measure against: one commit rule (plain 3-chain,
//     the FBFT baseline or the Appendix C naive count) plus three
//     switches, signature checks under the simulated schemes, the
//     certificate cache off and the pacemaker's per-peer timeout cap lifted
//     (the unhardened arm of make liveness-attack; README.md, "Liveness
//     under attack", narrates that A/B). The parameter type is declared under internal/, so only
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
// weight. Three facade pieces compose, and each takes the committee's key
// ring (required, 3f+1 keys) and nothing else about the committee:
//
//   - NewObserver(ObserverConfig, ObserverTCP(...) | Simnet.ObserverTransport(i))
//     — a non-voting follower (internal/observer) with a wire identity
//     outside [0, n). Over TCP it dials upstream replicas with an observer
//     handshake; they mirror their certified-chain traffic (proposals, whose
//     blocks carry the QCs) to it and drop, counted as restricted, anything
//     from it but a catch-up request, so its vote power is structurally zero
//     and its back-pressure never stalls consensus. It verifies every
//     signature and certificate itself through the engines' pipeline, tracks
//     strength with the marker rule, serves the Node subscription surface
//     (Commits, Strength, WaitStrength, CommittedHeight) and re-joins by
//     state sync. SimnetConfig.Observers adds simulated slots; with none the
//     fabric is bit-identical to one without them.
//   - NewGateway(GatewayConfig) — a strength-subscription fan-out service
//     (internal/gateway, cmd/sftgateway) fed by observers through
//     ObserverConfig.Gateway. Each certified (block, QC) pair is re-verified
//     by the gateway's own light client; fresh strength rises fan out as
//     length-delimited frames carrying the Section 5 proof — the carrier
//     block whose CommitLog proves the rise, plus the QC certifying it.
//     Per-subscriber queues are bounded (GatewayConfig.QueueBound), and a
//     subscriber that falls further behind is evicted. sft_gateway_* metric
//     families count subscribers, events, evictions, ingests and rejects.
//   - Subscribe(addr, SubscriberConfig) — the client end. Each event is
//     re-verified against the ring by the subscriber's own light client
//     (certificate check + CommitLog membership) before delivery, so a lying
//     gateway ends the stream with *ErrProofInvalid instead of being
//     believed. sftclient -subscribe <gateway> -n 4 -seed 42 is this as a
//     probe.
//
// sft.TestAccessTierTCP drives a 4-replica committee, an observer, a gateway
// and a proof-verifying subscriber over loopback sockets;
// sft.TestLyingGatewayCaught serves a fabricated proof the subscriber must
// reject; make gateway-smoke runs the live binaries.
//
// # Replica chassis
//
// The paper bolts SFT onto any chained BFT protocol at "marginal bookkeeping
// overhead"; the code has the same shape. internal/replica is the chassis
// all three engines embed: everything about a certified chain that is the
// same under DiemBFT, Streamlet and the non-voting observer. The engines keep
// the rules the paper gives per protocol and call into the chassis; the
// chassis never decides when to vote, certify or commit.
//
//	concern             chassis (internal/replica)        DiemBFT (Fig. 2/4)               Streamlet (Fig. 10/11)              observer (non-voting)
//	configuration       replica.Config: identity, PKI,    vote mode, timeouts,             ∆, echo                             observer.Config: committee,
//	                    SFT, payload, app, journal, obs   extra-wait, prune, pacemaker                                         marker mode, PKI, OnCertified
//	event bracket       Begin / Take: flush, then send    dispatch by message and timer    dispatch; unwrap echoes             dispatch; unwrap echoes
//	proposing           Propose: payload, sign, journal   leader, commit log               slot leader, longest-chain tip      —
//	accepting a block   Accept: install, the engine's     stale rounds; what an accepted   first-seen echo; what an            proposal check (sender, both
//	                    step, then the parked children;   proposal means: justify, vote,   accepted proposal means: the        signatures); what an accepted
//	                    Park: bounded buffer, the first   waiting QC, collected votes      justify when the parent's votes     proposal means: register the
//	                    orphan of a parent asks its                                        were missed, vote, certify          justify, feed the tracker,
//	                    sender for the chain; Hold:                                                                            OnCertified once per block
//	                    the same buffer, asking no one
//	voting              CastVote: execute, sign,          rvote / rlock rule,              first proposal of the round on      never (no signer)
//	                    journal, record in history        marker or interval set           a longest chain; height marker
//	vote → certificate  AddVote, Certify: dedup, root     collector only, extra-wait,      everyone, relay by echo,            —
//	                    check, sort, aggregate            FBFT late votes, qcFormed        register + journal
//	after a QC          tracker (round or height keyed;   2-chain lock, 3-chain commit     longest-chain height, consecutive-  the event's tracker rises, in
//	                    its state is on the store's       along the certified node's       round 3-chain commit                ascending height
//	                    nodes)                            parents, round sync, orphan QCs
//	committing          CommitTo: app, outputs, record;   —                                —                                   a block's first rise (level f)
//	                    refuses a non-extending block
//	pruning             PruneBelow: one pass, O(removed)  when (PruneKeep); qcFormed       never: Streamlet does not call      not yet: it could call
//	                    — the store severs and returns    forgets the removed blocks,      PruneBelow and ignores PruneKeep    PruneBelow, and would forget
//	                    the blocks it removed, strength   the per-round maps the rounds    (dropping first-seen marks would    the removed blocks' certified
//	                    state going with their nodes;     the floor moved across           re-admit late echoes)               marks with them
//	                    vote sets forget those, history
//	                    the rounds below the cut's block
//	recovery            Restore: replay skeleton          proposed rounds, rvote, rlock    first-seen marks, voted rounds      none: a restart syncs afresh
//	catch-up            request (Park, or at boot after   what a synced certificate        what a synced certificate means     its own requests: the next
//	                    Restore), serve, ApplySegment     means (the regular QC path)      (longest chain, commit rule)        upstream in turn, at boot, on
//	                    link by link, adopt what was                                                                           a stalled tip, an orphan or a
//	                    parked; Certs (cache, batch                                                                            full segment
//	                    workers, timing)
//	rounds              EnterRound (reported to obs)      pacemaker, leader reputation     2∆ lock-step slots                  the stall timer
//
// The observer (internal/observer) embeds the same chassis without a signer:
// it never proposes, votes or journals, and of the chassis it uses the store,
// tracker, certificate checks, parking, segment application and CommitTo.
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
//	10   retired            (the round entry of a removed pacemaker mode) rejected
//	                        as an unknown tag; the number is never reused
//
// Block, QC and Vote are the pinned encodings replicas hash, sign and
// journal (Block.AppendEncoding, QC.Encode, Vote.Encode), so a
// compact certificate travels as its compact bytes. The decoders accept
// non-canonical input and re-encode to a fixpoint; a received block's ID is
// the hash of its re-encoding, never of the bytes that arrived.
//
// The hello is the first frame on every connection and names the dialer; a
// later frame claiming any other sender is dropped and counted as spoofed,
// one that does not decode as malformed. A replica dials each peer for its
// outbound frames and accepts the peer's dial for inbound ones. An observer
// dials with the observer flag under an ID outside the committee; the
// replica then writes on that same connection every Proposal and Echo it
// broadcasts or accepts from a peer (peer frames relayed as
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
// Performance work keeps fixed-seed results bit-identical (the oracles,
// internal/harness/determinism_test.go) and steady-state work per event
// allocation-free (the testing.AllocsPerRun guards make bench-guard runs):
//
//   - crypto.QCCache memoizes verified certificates per replica (signatures
//     are immutable, so entries never invalidate; an LRU bounds memory):
//     one check per distinct QC per replica instead of O(n²) per round, a
//     re-delivery ~2.4 µs instead of ~1.1 ms (ed25519, n=31). In front of
//     it replica.Certs answers the last two accepted *QC unread (see
//     "Verification").
//   - Signing payloads and QC encodings are built into caller-owned scratch
//     buffers, one per replica; Block.Size is cached like ID.
//   - simnet's event queue is a pooled indexed heap over a recycled slab,
//     ordered by (time, seq): 0 allocs per dispatch, same pop order.
//   - An engine hands out one output array per event, of engine.Output
//     values: one struct whose Kind names the action, so filling the array
//     allocates nothing (internal/engine: valid until the next event;
//     enginetest.CheckOutputLifetime checks it).
//   - blockstore.Store has one index, the height ring it prunes by. Every
//     lookup names the block's height as well as its ID — a proposal its
//     parent at height − 1, a certificate, a vote and a voted block their
//     own — and walks the few nodes at that height. A height and an ID that
//     disagree miss exactly as an unknown block does (buffered, orphaned or
//     parked, never credited to the block at the other height; a justify
//     naming its parent at another height is refused at the door). A found
//     node moves to the front of its list, so an equivocator's k blocks at
//     one height cost O(k) once. Ancestry follows node pointers.
//     PruneBelow visits only the heights the cut crossed and severs what it
//     removes, O(removed).
//   - Sliding windows follow one rule (internal/window): L live entries
//     hold at most L + max(L/8, 64) slots, compacting the dead front in
//     place. The store's ring, the committed tail and the strength feed use
//     it, so at keep 512 each holds under 576 slots however long the run
//     (sft.TestFootprintFlat).
//   - core.Tracker keeps per-block endorsers as a presence bitset plus one
//     to three key classes (a key and a member bitset) in a record on the
//     block's node. A certificate costs one lookup by height and ID; in the
//     common shape (round-keyed markers, no interval vote) its votes are
//     grouped by marker and unpacked a bitset word at a time over one
//     ancestor walk.
//   - core.VoteHistory is the §3.2 state itself: for every fork, the
//     highest voted block on it, i.e. the voted blocks no other voted block
//     extends (the leaves). A vote replaces the leaves on its chain; a vote
//     that another extends can set no marker or interval the other does not
//     set. Each leaf carries its relation to the last block judged against
//     (on its chain, or a fork), which holds for every block that extends
//     that one, so a marker on the honest path reads one or two flags and a
//     fork switch judges each leaf again with one ancestor lookup. A
//     fork-free run keeps one leaf per replica (core.TestAllocsHistoryFlat),
//     not a window of votes.
//   - The facade's strength feed finds a block by its distance from the
//     window's top, so a rise allocates nothing. DiemBFT's election scores
//     the ancestry into a reused buffer, and above pacemaker.ReputationWindow
//     replicas, where it cannot pass a leader over, skips the walk.
//
// make bench-micro times the bookkeeping; the benchmark spine (bench/)
// measures the real stack wall-clock. BENCH_PR1.json holds PR 1's series.
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
// Prevalidate counts it once (obs.OnPrevalidate and its drops) and keeps
// per-sender FIFO. crypto.BatchVerifier checks a certificate's 2f+1
// signatures in one sharded pass and bisects a failing shard to the signer.
//
// Every certificate check goes through replica.Certs.VerifyQC, which has two
// arms — structure only, or the content-keyed verified-QC cache and the batch
// verifier when signatures are on — and one front for both: a record on the
// certificate itself that it passed (types.QC.PassedDoor), naming its own
// address, the quorum and the verifier (none for structure only). The same
// object delivered again, to any replica of the process, is accepted unread:
// the simulator hands all 100 replicas of an n=100 run one pointer, so each
// certificate is read once per process (a TCP node decodes a fresh object per
// frame; there the content-keyed cache does that work). A copy, a rebuilt
// certificate, another quorum or verifier, a signature check after a
// structure-only record and any check after DisableCache take the whole arm.
// That is sound because a message is immutable after hand-off
// (internal/engine); every other QC check stays full and stateless.
//
//	message       stateless (Prevalidate)                          stateful (state stage)
//	Proposal      block and justify present, round/proposer match, reputation leader (reads the store),
//	 (DiemBFT)    sender holds one of the round's window+1         stale round, parent presence /
//	              candidate slots, justify certifies parent        orphaning
//	              (its ID, at the height below the block),
//	              proposer signature, justify QC
//	Vote,         signature                                        collector, dedup, execution-root
//	ExtraVote                                                      check
//	Timeout       HighRound = HighQC.Round, sender signature,      stale round, per-peer cap
//	              high QC
//	Streamlet     echo unwrap within the nesting cap, block and    first-seen (seenProp) or already
//	              justify present, round/proposer match, justify   stored, parent presence, vote
//	              certifies parent (ID and height), round-robin    dedup, execution-root check
//	              leader, proposal and vote signatures (memoized
//	              across echoed copies), justify QC
//	Observer      block and justify present, justify certifies     already stored, parent presence
//	              parent (ID and height), sender inside the
//	              committee, proposer signature, justify QC
//
// One thing is deliberately not a clean split. Catch-up segments
// (StateSyncResponse) are prefix-stateful — blocks install link by link up to
// the first bad one — so Prevalidate never judges them; it only warms their
// certificates into the verified-QC cache, and they are verified as they
// install (Chassis.ApplySegment, statesync.Applier). Every engine verifies a
// proposal's justify at the door, Streamlet included although it reads the
// justify only when it missed the parent's votes (streamlet.certifyParent):
// an accepted block is journaled, and a restart registers its justify
// unread. The rejection tables and FuzzOnMessage targets of the three
// engine packages drive every malformed class and arbitrary decoded messages
// through both doors; BENCH_PR3.json holds the original measurements of
// taking verification off the loop.
//
// # Durability
//
// A vote is a claim about the voter's whole history, so a replica that
// forgets it can void the f→2f ladder. PR 2 added internal/wal (an
// append-only, segmented, CRC-framed log with batched fsync), the
// core.Journal record schema over it (accepted blocks — height, then the
// SHA-256 preimage of the ID, so recovery is self-verifying — own votes,
// standalone certificates, locks, commits, in the pinned types encodings),
// engine Restore hooks that rebuild a crashed replica so its next vote
// cannot contradict its pre-crash markers, and internal/statesync, the
// catch-up a recovered, lagging or partitioned replica re-joins by: it asks
// for the chain at boot or when a proposal's parent is missing, and
// installs certified segments link by link. The flush-before-send contract
// is the chassis's (see "Replica chassis"). The simulator's log does not
// fsync (a simulated crash stops dispatch, not the process); cmd/sftnode
// -data-dir does. Simnet.CrashAt/RestartAt and harness.CrashPlan kill and
// restart WAL-backed nodes, and the vote-path append is 0 allocs/op
// (BENCH_PR2.json).
//
// The journal is bounded by the store's keep (WithPruneKeep). Once the
// prune cut passes whole sealed segments (256 KiB each), the journal opens a
// new segment with one checkpoint record and deletes them. A checkpoint
// holds the floor (the cut), the lock round, the highest voted round, the
// last commit, the high QC and, with an app, app.Executor.Checkpoint: the
// state machine's Snapshot of the committed base plus the executed roots at
// or below the commit. core.Journal.Recover reads the newest checkpoint
// first, then each segment once through one reused buffer, skipping block
// records below the floor undecoded; the store restores onto the floor with
// its blocks as parentless roots, so a restart rebuilds what a full replay
// followed by PruneBelow(floor) would, and costs the kept window, not the
// chain (TestJournalFlat, TestCheckpointCrashPoints). A block above the
// floor whose parent the log lacks fails the restart. Streamlet never
// prunes, so its journal stays whole, and a peer that fell below a
// responder's floor is not served a checkpoint (ROADMAP item 10's
// state-sync half).
//
// # Compact certificates
//
// A vector QC carries 2f+1 votes with a 64-byte ed25519 signature each:
// ~2.9 KB at n=31, ~9.6 KB at n=103, paid by every block, timeout, WAL
// record and sync segment. PR 6 made the steady-state certificate O(1). The
// aggregating schemes (sft.SimAggregate / sft.Ed25519Aggregate) fold a
// quorum of votes into one 32-byte aggregate, and types.QC has a compact
// form, versioned in by a sentinel vote count so vector certificates decode
// unchanged:
//
//	header (block 32 B, round 8 B, height 8 B) | uint32 0xFFFFFFFF |
//	uint32 w (1..16) | signer bitmap, 8·w bytes |
//	override table (uint32 count, 13+ bytes per non-default vote) | aggregate, 32 bytes
//
// Decoding rebuilds the vote list from the bitmap in ascending voter order,
// so nothing downstream sees the form. A steady-state compact QC is 100
// bytes at n=31 and 108 at n=103, and verifies in near-constant time
// because votes sharing a marker state share one aggregation payload. The
// scheme is ring-internal like the sim scheme (any key holder could forge;
// crypto.Aggregates is the swap point for real BLS), vote transit
// signatures stay genuine, and an aggregation failure is charged to the
// aggregator. It pays at n ≳ 64; below that, vector QCs keep per-signer
// evidence. core.VoteSet (bitmap + dense slice) collects votes in O(n) and
// yields the ascending order the form requires. make compactcert hard-fails
// on growth beyond the bitmap word, TestCompactQCSizeFlat pins the bytes,
// FuzzDecodeCompactQC fuzzes the decoder and make adversary-fuzz-agg runs
// the Byzantine mix on compact certificates (BENCH_PR6.json).
//
// # Adversarial testing
//
// PR 5 made Byzantine behavior a composable subsystem (internal/adversary)
// under a randomized, invariant-checking scenario fuzzer
// (internal/harness.RunFuzz, `sftbench -experiment adversary -seed 1 -n 7`).
// Behaviors act on a replica's outbound messages through an engine
// wrapper, so the same implementations corrupt both engines under every
// transport, through WithAdversary and Simnet.PartitionAt/HealAt; an
// honest replica is never wrapped.
//
// The fuzzer samples cluster shape, engine, vote flavor, behavior
// compositions up to 2f colluders, crash/restart plans and partitions from
// a seed, and checks every run against Definition 1 (no two conflicting
// blocks both at strength >= t, t Byzantine replicas), strength
// monotonicity, chain consistency across honest replicas when t <= f, and
// Theorem 2 liveness under benign faults. A scenario replays exactly from
// (seed, index) (harness.GenFuzzScenario), a violation prints its spec as
// one line, and -workers merges in index order, so reports are identical
// at any worker count.
//
// The checker's teeth are pinned: harness.WeakenedRuleCanary runs the
// Appendix C collusion — consecutive-slot colluders starving uncontested
// rounds, double-signing both sides of every fork, reviving abandoned
// branches, lying about markers — against the naive endorsement count,
// which the Definition 1 checker catches, while the same collusion against
// the marker rule stays safe (examples/byzantine narrates it). It fires at
// n = 7 and at n = 4, the smallest committee (TestWeakenedRuleCaught,
// TestWeakenedRuleCaughtAtFour). The n = 4 counterexample is
// WeakenedRuleCanary(1, 4, true), whose replay spec is
//
//	scenario 1048576 (subseed -3538066283662136455): diembft n=4 f=1
//	dur=12s verify=false NAIVE-RULE
//	byz[2]={withhold-uncontested,double-vote,fork-revive,lie-markers}
//	byz[3]={withhold-uncontested,double-vote,fork-revive,lie-markers}
//
// Under the naive count two conflicting blocks at height 9 both reach
// 2-strong with those 2 Byzantine replicas, the first of 79 Definition 1
// findings in that run; under markers the same run has none. make
// fuzz-smoke runs the native go-fuzz targets (wire decoders, compact QCs,
// TCP frames, engine doors) in CI, and the nightly workflow fuzzes each for
// 10 minutes and sweeps 500 scenarios at a fresh seed. BENCH_PR5.json
// records fuzzer throughput.
package repro
