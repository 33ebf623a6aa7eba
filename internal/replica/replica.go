// Package replica is the chassis all three engines embed: the certified-
// chain bookkeeping that is the same under DiemBFT, Streamlet and the
// non-voting observer — block store, vote history, strength tracker, vote
// sets, the event bracket with its durability ordering, journal staging and
// replay, the execution-layer hookup, vote-to-certificate assembly, commit
// emission and catch-up (parking a proposal whose parent is missing,
// requesting the chain, serving and applying segments, adopting what was
// parked). The engines (internal/diembft, internal/streamlet,
// internal/observer) keep the protocol rules and call in here; the chassis
// never decides when to vote, certify or commit. The voting engines use all
// of it; the observer, which never signs, uses the store, tracker,
// certificate checks, catch-up and commit emission.
// The root doc.go's "Replica chassis" section tabulates which side owns what.
package replica

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/statesync"
	"repro/internal/types"
	"repro/internal/window"
)

// Config is the configuration every replica engine shares; diembft.Config
// and streamlet.Config embed it and add their protocol knobs.
type Config struct {
	// ID is this replica; N = 3f+1 replicas total (F derives f).
	ID types.ReplicaID
	N  int

	// Signer/Verifier provide the PKI. VerifySignatures enables full
	// signature checking (structure checks always run); large simulations
	// may disable it since all traffic is generated by trusted engines.
	Signer           crypto.Signer
	Verifier         crypto.Verifier
	VerifySignatures bool
	// BatchWorkers bounds how many goroutines check one cold certificate's
	// 2f+1 vote signatures (crypto.BatchVerifyQC). 0 or 1 keeps verification
	// on the calling goroutine — the mode the deterministic simulator uses;
	// real-crypto nodes on multi-core hosts set it to GOMAXPROCS.
	BatchWorkers int

	// Rule is the commit rule the replica runs; the zero value is the
	// paper's strengthened rule.
	Rule Rule
	// Horizon bounds the endorsement walk depth (see core.Config).
	Horizon int

	// PayloadNow supplies a proposal's transactions; nil means empty
	// blocks. It receives the engine's virtual time, which workload
	// generators need to model arrival times (submit→commit latency
	// accounting).
	PayloadNow func(r types.Round, now time.Duration) types.Payload

	// App, if non-nil, turns on the execution layer and with it the
	// execute-before-vote contract (CastVote). With App nil, votes carry no
	// AppHash and the wire bytes are exactly the pre-execution-layer form.
	App *app.Executor

	// Journal, if non-nil, write-ahead-logs the state the replica's safety
	// depends on — accepted blocks, own votes, standalone certificates, lock
	// advances, commits — under the durability contract (Take). Pair with
	// Restore to rebuild the replica after a crash.
	Journal *core.Journal

	// Obs, if non-nil, receives lifecycle and latency observations. Hooks
	// never feed back into the state machine, so runs are bit-identical with
	// Obs set or nil.
	Obs *obs.Obs
}

// Rule selects which of the paper's four commit rules a replica runs. Only
// RuleSFT is a configuration to deploy; the others are the reference arms
// the experiments measure it against (see internal/reference).
type Rule int

const (
	// RuleSFT is strengthened fault tolerance: strong-votes, endorsement
	// tracking and Strength outputs.
	RuleSFT Rule = iota
	// RulePlain is the plain 3-chain protocol with no strength tracker
	// (markers still ride along in votes but are ignored), the DiemBFT
	// baseline of the Section 4 throughput comparison.
	RulePlain
	// RuleFBFT is the Appendix B baseline: strength counts direct votes
	// only, and the round's leader multicasts every vote arriving after the
	// QC formed, O(n^2) messages per decision (DiemBFT only).
	RuleFBFT
	// RuleNaive runs the strength tracker with the UNSAFE marker-free
	// counting of Appendix C, so the adversarial scenario fuzzer can show
	// that its Definition 1 checker catches the resulting violations.
	RuleNaive
)

var ruleNames = [...]string{"sft", "plain", "fbft", "naive"}

func (r Rule) String() string {
	if r < 0 || int(r) >= len(ruleNames) {
		return fmt.Sprintf("rule(%d)", int(r))
	}
	return ruleNames[r]
}

// F is the fault tolerance f = (N-1)/3.
func (c *Config) F() int { return (c.N - 1) / 3 }

// Quorum is the 2f+1 certificate threshold.
func (c *Config) Quorum() int { return 2*c.F() + 1 }

// Chassis is the shared replica state. Engines embed *Chassis; only the
// engine's event-loop goroutine touches it, except Certs and the round
// snapshot, which Prevalidate workers read concurrently.
type Chassis struct {
	cfg     Config
	store   *blockstore.Store
	history *core.VoteHistory
	tracker *core.Tracker

	// Certs verifies certificates (cache + batch workers + timing).
	Certs *Certs
	// Votes holds one bitmap-deduped vote set per candidate block
	// (subquadratic in n; see core.VoteSet).
	Votes map[types.BlockID]*core.VoteSet
	// Outs is the current event's output buffer. Begin empties it and Take
	// hands it out, one backing array for every event (engine.Engine: the
	// returned slice is valid until the next call on the engine).
	Outs []engine.Output

	// orphans parks proposals whose parent has not arrived (Park, Hold);
	// accepted is the engine's protocol step for a proposal whose block was
	// just installed (Accept).
	orphans  orphans
	accepted func(*types.Proposal)

	lastCommitted types.BlockID
	committedH    types.Height
	// committed is the committed chain's tail, oldest first, from the last
	// prune's anchor (after Restore, from the journal's floor; after New, from
	// the first commit) to lastCommitted: PruneBelow reads the block at the
	// cut from it. chain is CommitTo's scratch, empty between calls.
	committed window.Of[*types.Block]
	chain     []*types.Block

	// aggregate marks that the verifier's scheme compacts formed QCs into
	// the aggregated-signature form; sigScratch is the reused signing-payload
	// buffer for own votes.
	aggregate  bool
	sigScratch []byte

	// restoring mutes journaling and Strength emission while Restore replays
	// the pre-crash state; recovered makes Init rejoin via state sync;
	// stageErr is the first journal append error of the event, which Take
	// turns into the crash-stop.
	restoring bool
	recovered bool
	stageErr  error

	// now is the current event's engine time (see Begin).
	now time.Duration
}

// New builds the chassis. mode keys the strength tracker by round (DiemBFT)
// or height (Streamlet); onStrength is the tracker's callback, which the
// engine builds around EmitStrength (only RuleSFT and RuleNaive run a
// tracker); accepted is what the engine does with a proposal once Accept
// installed its block — its certificate, vote and commit rules.
func New(cfg Config, mode core.Mode, onStrength func(b *types.Block, x int), accepted func(*types.Proposal)) (*Chassis, error) {
	if cfg.N < 1 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("replica: n=%d must be 3f+1", cfg.N)
	}
	if cfg.Verifier == nil {
		return nil, fmt.Errorf("replica: a verifier is required")
	}
	if cfg.Rule < RuleSFT || cfg.Rule > RuleNaive {
		return nil, fmt.Errorf("replica: unknown commit rule %v", cfg.Rule)
	}
	c := &Chassis{
		cfg:       cfg,
		store:     blockstore.New(),
		Certs:     NewCerts(&cfg),
		Votes:     make(map[types.BlockID]*core.VoteSet),
		accepted:  accepted,
		aggregate: crypto.Aggregates(cfg.Verifier),
	}
	c.history = core.NewVoteHistory(c.store)
	c.lastCommitted = c.store.Genesis().ID()
	if cfg.Rule == RuleSFT || cfg.Rule == RuleNaive {
		c.tracker = core.NewTracker(c.store, core.Config{
			N: cfg.N, F: cfg.F(), Mode: mode, Naive: cfg.Rule == RuleNaive,
			Horizon: cfg.Horizon, OnStrength: onStrength,
		})
	}
	return c, nil
}

// ID implements engine.Engine.
func (c *Chassis) ID() types.ReplicaID { return c.cfg.ID }

// Store exposes the block tree.
func (c *Chassis) Store() *blockstore.Store { return c.store }

// Tracker exposes the strength tracker (nil when the rule has none).
func (c *Chassis) Tracker() *core.Tracker { return c.tracker }

// History exposes the vote history.
func (c *Chassis) History() *core.VoteHistory { return c.history }

// CommittedHeight returns the height of the last regular commit.
func (c *Chassis) CommittedHeight() types.Height { return c.committedH }

// LastCommitted returns the ID of the last committed block.
func (c *Chassis) LastCommitted() types.BlockID { return c.lastCommitted }

// AppExecutor exposes the execution layer (nil when no app is configured).
func (c *Chassis) AppExecutor() *app.Executor { return c.cfg.App }

// Recovered reports whether Restore rebuilt this replica from a journal.
func (c *Chassis) Recovered() bool { return c.recovered }

// --- the event bracket ---

// Begin opens one event at engine time now.
func (c *Chassis) Begin(now time.Duration) {
	c.Outs = engine.Recycle(c.Outs)
	c.now = now
}

// Now is the current event's engine time.
func (c *Chassis) Now() time.Duration { return c.now }

// Take closes the event and releases its outputs. When a journal is
// attached, the records staged during the event are flushed first — THE
// durability ordering: nothing this event produced (votes above all) reaches
// the network before the state it depends on is in the log. All records of
// one event share a single fsync (group commit).
func (c *Chassis) Take() []engine.Output {
	if c.cfg.Journal != nil {
		err := c.stageErr
		if err == nil {
			err = c.cfg.Journal.Flush()
		}
		if err != nil {
			// A replica that cannot persist its voted history can no longer
			// guarantee its own markers; crash-stop is the only safe move.
			panic(fmt.Sprintf("replica: wal: %v", err))
		}
	}
	return c.Outs
}

// EnterRound reports the engine's new round to the observability sink.
func (c *Chassis) EnterRound(round types.Round, viaTimeout bool) {
	c.cfg.Obs.OnRoundEnter(round, c.now, viaTimeout)
}

// EmitStrength announces that b reached strength x, unless Restore is
// replaying (recovery reinstates levels already reached pre-crash; they are
// not new observations). It reports whether the rise was announced.
func (c *Chassis) EmitStrength(b *types.Block, x int) bool {
	if c.restoring {
		return false
	}
	c.Outs = append(c.Outs, engine.Output{Kind: engine.Strength, Block: b, X: x})
	c.cfg.Obs.OnStrength(b, x, c.now)
	return true
}

// --- journal staging ---

// staging reports whether records go to the journal: one is attached and
// Restore is not replaying it (the log already has those records).
func (c *Chassis) staging() bool { return c.cfg.Journal != nil && !c.restoring }

// staged keeps an event's first append error for Take.
func (c *Chassis) staged(err error) {
	if err != nil && c.stageErr == nil {
		c.stageErr = err
	}
}

// journalBlock stages the record of a block accepted into the store.
func (c *Chassis) journalBlock(b *types.Block) {
	if c.staging() {
		c.staged(c.cfg.Journal.AppendBlock(b))
	}
}

// JournalQC stages a standalone certificate (formed locally, carried by a
// timeout or a segment tip); certificates embedded in an accepted block are
// already durable via that block's record.
func (c *Chassis) JournalQC(qc *types.QC) {
	if c.staging() {
		c.staged(c.cfg.Journal.AppendQC(qc))
	}
}

// JournalLock stages a lock advance.
func (c *Chassis) JournalLock(round types.Round) {
	if c.staging() {
		c.staged(c.cfg.Journal.AppendLock(round))
	}
}

// --- execution layer ---

// executeBlock runs b through the execution layer, returning its state root.
// Execution is memoized in the executor, so re-running an already-executed
// block is free; only fresh executions tick the observation counter.
func (c *Chassis) executeBlock(b *types.Block) ([32]byte, error) {
	before := c.cfg.App.Executed()
	root, err := c.cfg.App.Execute(b)
	if err == nil && c.cfg.App.Executed() > before {
		c.cfg.Obs.OnAppExecuted()
	}
	return root, err
}

// tryExecute executes b if the execution layer is on, tolerating failure (an
// unexecutable block can still be stored for ordering; the replica just will
// not vote for it or its descendants). Failures are counted.
func (c *Chassis) tryExecute(b *types.Block) {
	if c.cfg.App == nil {
		return
	}
	if _, err := c.executeBlock(b); err != nil {
		c.cfg.Obs.OnAppExecuteFailed()
	}
}

// AcceptBlock installs a proposed block whose parent is present: store,
// journal (own blocks were journaled at propose time, before broadcast),
// observe, execute. A block the store already holds — a replayed proposal, or
// one restored from the journal — does none of that again. It reports false
// for a block the store refuses.
func (c *Chassis) AcceptBlock(b *types.Block) bool {
	if c.store.Has(b.Height, b.ID()) {
		return true
	}
	if err := c.store.Insert(b); err != nil {
		return false
	}
	if b.Proposer != c.cfg.ID {
		c.journalBlock(b)
	}
	c.cfg.Obs.OnBlockSeen(b, c.now)
	c.tryExecute(b)
	return true
}

// Accept takes a proposal whose parent is present: it installs the block
// (AcceptBlock), runs the engine's protocol step on it, then does the same
// for every proposal that was parked waiting on this block.
func (c *Chassis) Accept(p *types.Proposal) {
	if !c.AcceptBlock(p.Block) {
		return
	}
	c.accepted(p)
	c.adopt(p.Block.ID())
}

// Park buffers a proposal whose parent has not arrived. The first proposal
// waiting on a parent asks its sender — who built on that parent, so holds
// the chain — for everything above our committed height; the blocks the
// answer installs release what is parked (ApplySegment). A gap longer than
// one segment heals over several rounds, each started by the next proposal
// that arrives ahead of what we hold.
func (c *Chassis) Park(p *types.Proposal) {
	if c.Hold(p) && p.Sender != c.cfg.ID {
		c.RequestStateSyncFrom(p.Sender)
	}
}

// Hold parks p like Park but asks no one, for an engine with a request policy
// of its own. It reports whether p is the first proposal waiting on its
// parent.
func (c *Chassis) Hold(p *types.Proposal) bool { return c.orphans.add(p) }

// Parked returns the number of proposals waiting on a missing parent.
func (c *Chassis) Parked() int { return c.orphans.n }

// adopt accepts the proposals that were parked waiting on parent.
func (c *Chassis) adopt(parent types.BlockID) {
	for _, kid := range c.orphans.take(parent) {
		c.Accept(kid)
	}
}

// voteRootOK filters collected votes by execution root: with the app on, a
// vote is credited only when its AppHash matches this replica's own execution
// of the block, so a certificate can never mix state roots (types.QC's
// structure check would reject it) and lying votes are neutralized at the
// collector. Votes for blocks we do not hold yet pass provisionally — they
// are re-judged in Certify once the block arrives. With the app off, an
// AppHash-bearing vote is alien traffic and dropped.
func (c *Chassis) voteRootOK(v *types.Vote) bool {
	if c.cfg.App == nil {
		return !v.HasAppHash()
	}
	b := c.store.Block(v.Height, v.Block)
	if b == nil {
		return true
	}
	root, err := c.executeBlock(b)
	return err == nil && v.AppHash == root
}

// --- votes and certificates ---

// AddVote credits a collected vote (its signature is Prevalidate's): voter
// dedup, root check. It reports whether the vote was new and accepted.
func (c *Chassis) AddVote(v types.Vote) bool {
	set := c.Votes[v.Block]
	if set.Has(v.Voter) {
		return false
	}
	if !c.voteRootOK(&v) {
		return false
	}
	if set == nil {
		set = &core.VoteSet{}
		c.Votes[v.Block] = set
	}
	return set.Add(v)
}

// Certify assembles b's certificate from its vote set, or returns nil while
// the set holds no quorum. Votes go in ascending voter order, so QC hashes
// are deterministic. The engine decides when to call it and what follows.
func (c *Chassis) Certify(b *types.Block) *types.QC {
	id := b.ID()
	set := c.Votes[id]
	if set.Len() < c.cfg.Quorum() {
		return nil
	}
	var root [32]byte
	if c.cfg.App != nil {
		// Votes credited before the block arrived were only provisionally
		// accepted (voteRootOK); re-judge them against our own execution now
		// and form only from root-agreeing votes.
		var err error
		if root, err = c.executeBlock(b); err != nil {
			return nil
		}
	}
	// The set is keyed by block ID, so it can hold a vote naming the block
	// at another height (only a faulty voter signs one); the structure check
	// would reject a certificate carrying it. Falling below quorum keeps the
	// set open for more honest votes rather than forming such a certificate.
	votes := set.Sorted()
	kept := votes[:0]
	for _, v := range votes {
		if v.Height == b.Height && (c.cfg.App == nil || v.AppHash == root) {
			kept = append(kept, v)
		}
	}
	if votes = kept; len(votes) < c.cfg.Quorum() {
		return nil
	}
	qc := &types.QC{Block: id, Round: b.Round, Height: b.Height, Votes: votes}
	if c.aggregate {
		// Compact the certificate before anything downstream sees it: the
		// stored, journaled, and broadcast forms are all the aggregated one.
		// On an aggregation error the vector form still holds its vote
		// signatures, so falling back remains protocol-correct.
		if err := crypto.AggregateQC(c.cfg.Verifier, qc); err != nil {
			c.cfg.Obs.OnQCAggregateFailed()
		}
	}
	return qc
}

// CastVote completes, signs, journals and records this replica's vote for b.
// The engine has decided its voting rule allows the vote and has filled v's
// marker or interval set; CastVote applies execute-before-vote: a block we
// cannot execute gets no vote, and a proposal whose justify certificate
// claims a parent state root different from our own execution is a state
// fork — refusing to vote starves it of a quorum (with at most f faults,
// certified blocks can only carry roots that f+1 honest replicas computed
// themselves). It reports whether the vote was cast.
func (c *Chassis) CastVote(b *types.Block, v types.Vote) (types.Vote, bool) {
	if c.cfg.App != nil {
		root, err := c.executeBlock(b)
		if err != nil {
			return v, false
		}
		if b.Justify != nil && len(b.Justify.Votes) > 0 {
			if parentRoot, known := c.cfg.App.Root(b.Parent); known && b.Justify.AppHash() != parentRoot {
				c.cfg.Obs.OnAppHashMismatch()
				return v, false
			}
		}
		v.AppHash = root
	}
	v.Block, v.Round, v.Height, v.Voter = b.ID(), b.Round, b.Height, c.cfg.ID
	c.sigScratch = v.AppendSigningPayload(c.sigScratch[:0])
	v.Signature = c.cfg.Signer.Sign(c.sigScratch)
	// Durability contract: the vote record (and the block record staged when
	// b was accepted) is flushed by Take before the vote leaves the replica,
	// so the vote can be reconstructed after any crash.
	if c.staging() {
		c.staged(c.cfg.Journal.AppendVote(&v))
	}
	c.history.RecordVote(b)
	c.cfg.Obs.OnVoted(b, c.now)
	return v, true
}

// Propose builds, signs and broadcasts this replica's block for round on top
// of parent, justified by qc. The block is journaled before it can leave: a
// leader that crashes after broadcasting must never propose a DIFFERENT
// block for the same round on restart. SelfDeliver routes the leader's own
// proposal through the common voting path.
func (c *Chassis) Propose(round types.Round, parent *types.Block, qc *types.QC, log []types.StrengthRecord) {
	var payload types.Payload
	if c.cfg.PayloadNow != nil {
		payload = c.cfg.PayloadNow(round, c.now)
	}
	b := types.NewBlock(parent.ID(), qc, round, parent.Height+1, c.cfg.ID, int64(c.now), payload, log)
	p := &types.Proposal{Block: b, Round: round, Sender: c.cfg.ID}
	p.Signature = c.cfg.Signer.Sign(p.SigningPayload())
	c.journalBlock(b)
	c.cfg.Obs.OnProposed(b, c.now)
	c.Outs = append(c.Outs, engine.Output{Kind: engine.Broadcast, Msg: p, SelfDeliver: true})
}

// CommitTo commits b and its uncommitted ancestors, oldest first.
func (c *Chassis) CommitTo(b *types.Block) {
	if b.Height <= c.committedH {
		return
	}
	// The scratch is detached while the commits go out, as the tracker's
	// worklists are, so nothing reached from here can clobber it.
	chain, ok := blockstore.AppendChain(c.chain, c.store.Node(c.committedH, c.lastCommitted), c.store.Node(b.Height, b.ID()))
	if !ok {
		// b does not extend the last committed block. With at most f
		// faults this cannot happen; conservatively keep the old commit.
		return
	}
	c.chain = nil
	for _, blk := range chain {
		if c.cfg.App != nil {
			if err := c.cfg.App.OnCommit(blk); err != nil {
				// A block certified by 2f+1 votes carries a root that f+1
				// honest replicas computed; failing to reproduce it here means
				// this replica's execution state is corrupt. Crash-stop, like
				// a WAL failure: continuing would serve divergent state.
				panic(fmt.Sprintf("replica: app commit: %v", err))
			}
		}
		c.Outs = append(c.Outs, engine.Output{Kind: engine.Commit, Block: blk})
		c.cfg.Obs.OnCommit(blk, c.now)
		c.committed.Push(blk)
	}
	clear(chain)
	c.chain = chain[:0]
	c.lastCommitted = b.ID()
	c.committedH = b.Height
	// One commit record for the tip covers the whole chain (ancestor
	// commits are implied, exactly as in the protocol).
	if c.staging() {
		c.staged(c.cfg.Journal.AppendCommit(b.ID(), b.Height, b.Round))
	}
}

// PruneBelow drops chassis state below height cut (the engine decides the
// cut): the store removes its blocks and with them the tracker's state, which
// lives on their nodes; the vote sets forget theirs, and the vote history
// what lies below the round of the committed chain's block at the cut. It
// returns the removed blocks (valid until the next call) and that round, for
// the engine's own per-block and per-round state. When the committed chain
// has no block at the cut, nothing is removed and nothing is forgotten. Once
// the cut passes sealed journal segments, the journal checkpoints at the cut
// and deletes them (core.Journal.Checkpoint), so the log is bounded by the
// same window as the store.
func (c *Chassis) PruneBelow(cut types.Height) ([]*types.Block, types.Round) {
	anchor := c.committedAt(cut)
	if anchor == nil {
		return nil, 0
	}
	removed := c.store.PruneBelow(cut)
	// The vote sets are the few still collecting, some of them for blocks the
	// store never held, which no removed list names: they are walked.
	for id, set := range c.Votes {
		if set.Height() < cut && !c.store.Has(set.Height(), id) {
			delete(c.Votes, id)
		}
	}
	c.history.PruneBelow(anchor.Round)
	if c.staging() && c.cfg.Journal.CheckpointDue(cut, anchor.Round) {
		var app []byte
		if c.cfg.App != nil {
			app = c.cfg.App.Checkpoint()
		}
		c.staged(c.cfg.Journal.Checkpoint(cut, anchor.Round, app))
	}
	return removed, anchor.Round
}

// committedAt returns the committed chain's block at height h, from the tail
// when it reaches that far down (dropping what lies below, which no later cut
// needs) and by walking the store otherwise.
func (c *Chassis) committedAt(h types.Height) *types.Block {
	tail := c.committed.Live()
	if len(tail) == 0 || h < tail[0].Height || h > c.committedH {
		if n := c.store.Node(c.committedH, c.lastCommitted).Ancestor(h); n != nil {
			return n.Block()
		}
		return nil
	}
	c.committed.Drop(int(h - tail[0].Height))
	return c.committed.Live()[0]
}

// --- recovery and state sync ---

// Restore rebuilds the chassis from a non-empty journal replay: with a
// checkpoint, the executor first resumes from its checkpoint and the store
// starts at the checkpoint's floor; then blocks are reinstalled and executed
// in log order (parents precede children, so the execution layer reconverges
// to the exact pre-crash roots), certificates feed the tracker, own votes
// refill the history — so post-restart markers cannot contradict pre-crash
// ones — and the committed prefix is reinstated without re-emitting Commit
// outputs. The result equals a replay of the whole journal followed by
// PruneBelow at the floor. onBlock, if non-nil, sees every restored block,
// onCert every certificate that improved the store's knowledge, in log order.
func (c *Chassis) Restore(rec *core.Recovery, onBlock func(*types.Block), onCert func(*types.QC)) error {
	c.restoring = true
	defer func() { c.restoring = false }()
	if (rec.App != nil) != (c.cfg.App != nil && rec.Floor > 0) {
		return fmt.Errorf("replica: restore: the journal's checkpoint and the replica disagree on the execution layer")
	}
	if rec.App != nil {
		if err := c.cfg.App.RestoreCheckpoint(rec.App); err != nil {
			return fmt.Errorf("replica: restore app checkpoint: %w", err)
		}
	}
	cert := func(qc *types.QC) {
		if c.tracker != nil {
			c.tracker.OnQC(qc)
		}
		onCert(qc)
	}
	if _, err := c.store.Restore(rec.Floor, rec.Blocks, func(b *types.Block, qcImproved bool) {
		c.tryExecute(b)
		if onBlock != nil {
			onBlock(b)
		}
		if qcImproved {
			cert(b.Justify)
		}
	}); err != nil {
		return fmt.Errorf("replica: restore: %w", err)
	}
	for _, qc := range rec.QCs {
		if !c.store.Has(qc.Height, qc.Block) {
			continue
		}
		if _, improved, err := c.store.RegisterQC(qc); err == nil && improved {
			cert(qc)
		}
	}
	voted := make([]core.VotedBlock, 0, len(rec.Votes))
	for i := range rec.Votes {
		v := &rec.Votes[i]
		voted = append(voted, core.VotedBlock{ID: v.Block, Round: v.Round, Height: v.Height})
	}
	c.history.Restore(voted)
	if rec.CommittedHeight > 0 {
		c.lastCommitted = rec.Committed
		c.committedH = rec.CommittedHeight
		tip := c.store.Node(rec.CommittedHeight, rec.Committed)
		if c.cfg.App != nil && tip != nil {
			// Advance the state machine's committed base to the recovered
			// commit point (the blocks were re-executed above).
			if err := c.cfg.App.OnCommit(tip.Block()); err != nil {
				return fmt.Errorf("replica: restore app commit: %w", err)
			}
		}
		// Refill the committed tail from the floor up, so that cuts read
		// their anchor from it instead of walking the store.
		if base := tip.Ancestor(rec.Floor); base != nil {
			c.committed.Push(base.Block())
			chain, _ := blockstore.AppendChain(c.chain, base, tip)
			for _, b := range chain {
				c.committed.Push(b)
			}
			clear(chain)
			c.chain = chain[:0]
		}
	}
	if rec.Floor > 0 {
		c.PruneBelow(rec.Floor) // the vote history and vote sets follow the store's floor
	}
	c.recovered = true
	return nil
}

// RequestStateSync broadcasts the catch-up request a recovered replica
// rejoins with: everything certified above its committed height.
func (c *Chassis) RequestStateSync() {
	c.Outs = append(c.Outs, engine.Output{Kind: engine.Broadcast, Msg: statesync.NewRequest(c.committedH, c.cfg.ID)})
}

// RequestStateSyncFrom asks one peer for everything certified above this
// replica's committed height.
func (c *Chassis) RequestStateSyncFrom(peer types.ReplicaID) {
	c.Outs = append(c.Outs, engine.Output{Kind: engine.Send, To: peer, Msg: statesync.NewRequest(c.committedH, c.cfg.ID)})
}

// OnStateSyncRequest serves the catch-up protocol: a certified chain segment
// above the requester's committed height (see internal/statesync).
func (c *Chassis) OnStateSyncRequest(m *types.StateSyncRequest) {
	if m.Sender == c.cfg.ID {
		return
	}
	if resp := statesync.Serve(c.store, m, c.cfg.ID, statesync.DefaultMaxBlocks); resp != nil {
		c.Outs = append(c.Outs, engine.Output{Kind: engine.Send, To: m.Sender, Msg: resp})
	}
}

// ApplySegment installs a fetched chain segment link by link (see
// statesync.Applier) and returns how many blocks were new. Each certificate
// goes to onCert — embedded justifies already registered in the store, the
// responder's standalone high QC (standalone true) validated but not, so the
// engine's standalone path both registers and journals it. Each installed
// block is journaled and executed after its justify was handed over, then
// the proposals parked on it are accepted. A bad link rejects the rest of
// the segment and is counted; what was installed before it stays (it was
// independently certified) and peers re-serve.
func (c *Chassis) ApplySegment(m *types.StateSyncResponse, onCert func(qc *types.QC, standalone bool)) int {
	ap := statesync.Applier{
		Store:  c.store,
		Quorum: c.cfg.Quorum(),
		OnInstall: func(b *types.Block) {
			c.journalBlock(b)
			c.tryExecute(b)
			c.adopt(b.ID())
		},
		OnCert: onCert,
	}
	if c.cfg.VerifySignatures {
		ap.VerifyQC = c.Certs.VerifyQC
	}
	installed, err := ap.Apply(m)
	if err != nil {
		c.cfg.Obs.OnSyncSegmentRejected()
	}
	return installed
}
