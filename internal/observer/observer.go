// Package observer implements the non-voting follower of the access tier:
// an engine that consumes the consensus tier's certified-chain traffic
// (proposals with embedded justify QCs, echoes, state-sync segments),
// verifies every signature and certificate itself, and tracks commit
// strength with the paper's marker rule — without ever voting. Its
// vote power is structurally zero: it emits no votes, no timeouts, no
// proposals; the only messages it sends are catch-up requests.
//
// Observers exist so client load (strength subscriptions, read APIs) lands
// on a tier that scales horizontally instead of on voting replicas' hot
// path — Flow's access-node split, applied to SFT. An observer derives
// regular commits from the same strength bookkeeping replicas use: the
// first time the tracker reports a block at level f it is committed by the
// regular rule (a certified 3-chain yields 2f+1 direct endorsers per block,
// i.e. exactly f beyond the quorum's f+1 honest floor), so commit and
// strength events observed here match the voting engines' event stream.
package observer

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/statesync"
	"repro/internal/types"
)

// syncTimerID is the observer's only timer: the periodic catch-up probe.
const syncTimerID = 9001

// DefaultSyncInterval paces the catch-up probe when the feed stalls.
const DefaultSyncInterval = 500 * time.Millisecond

// Config parameterizes an observer engine.
type Config struct {
	// ID is the observer's wire identity. By convention it lies outside the
	// voting committee [0, N); replicas never count it toward quorums.
	ID types.ReplicaID
	// N and F describe the voting committee (n = 3f+1).
	N, F int
	// Mode selects the marker rule: core.ModeRound (DiemBFT) or
	// core.ModeHeight (Streamlet). Defaults to ModeRound.
	Mode core.Mode
	// Verifier checks vote and proposal signatures (the cluster KeyRing).
	Verifier crypto.Verifier
	// VerifySignatures enables cryptographic checks (on for anything real;
	// off only for pure-simulation tests, matching the voting engines).
	VerifySignatures bool
	// Horizon bounds the tracker's ancestor walk (0 = unbounded).
	Horizon int
	// OnCertified, if non-nil, observes every (block, qc) pair where qc
	// certifies block, exactly once per block, in arrival order. This is
	// the §5 proof feed: a certified block's CommitLog entries are proven
	// strength levels, which is what the gateway serves to subscribers.
	OnCertified func(b *types.Block, qc *types.QC)
}

// Observer is the engine. It implements engine.Engine, so it runs unchanged
// under the discrete-event simulator and the TCP runtime, prevalidated on the
// transport's reader goroutines.
type Observer struct {
	cfg     Config
	store   *blockstore.Store
	tracker *core.Tracker
	// certs, orphans, echo unwrapping and segment application are the voting
	// engines' own (internal/replica); nothing else of the chassis fits an
	// engine with no signer, journal or vote history.
	certs *replica.Certs

	// committed marks blocks already reported via engine.Commit.
	committed  map[types.BlockID]bool
	committedH types.Height
	// certified marks blocks already reported via OnCertified.
	certified map[types.BlockID]bool
	// strength is the highest level already reported per block.
	strength map[types.BlockID]int

	// orphans buffers proposals whose parent has not arrived (bounded; an
	// evicted hole heals via state sync).
	orphans replica.Orphans

	// rises accumulates tracker callbacks during one event, drained by emit;
	// outs is the event's outputs, one array reused by every event.
	rises []rise
	outs  []engine.Output

	// lastTip detects a stalled feed between sync-timer firings.
	lastTip types.Height
	nextUp  int
}

type rise struct {
	b *types.Block
	x int
}

// New creates an observer engine.
func New(cfg Config) (*Observer, error) {
	if cfg.N <= 0 || cfg.F < 0 {
		return nil, fmt.Errorf("observer: invalid committee n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.ModeRound
	}
	o := &Observer{
		cfg:       cfg,
		store:     blockstore.New(),
		committed: make(map[types.BlockID]bool),
		certified: make(map[types.BlockID]bool),
		strength:  make(map[types.BlockID]int),
		certs: replica.NewCerts(&replica.Config{
			N: cfg.N, F: cfg.F, Verifier: cfg.Verifier,
			VerifySignatures: cfg.VerifySignatures,
		}),
	}
	o.tracker = core.NewTracker(o.store, core.Config{
		N:       cfg.N,
		F:       cfg.F,
		Mode:    cfg.Mode,
		Horizon: cfg.Horizon,
		OnStrength: func(b *types.Block, x int) {
			o.rises = append(o.rises, rise{b, x})
		},
	})
	return o, nil
}

// ID implements engine.Engine.
func (o *Observer) ID() types.ReplicaID { return o.cfg.ID }

// Store exposes the observer's block tree (read-only use).
func (o *Observer) Store() *blockstore.Store { return o.store }

// CommittedHeight returns the highest height reported committed.
func (o *Observer) CommittedHeight() types.Height { return o.committedH }

// Strength returns the highest reported strength of a block, or -1.
func (o *Observer) Strength(id types.BlockID) int {
	if x, ok := o.strength[id]; ok {
		return x
	}
	return -1
}

// Init implements engine.Engine: ask an upstream where the chain is and
// start the stall-detection timer.
func (o *Observer) Init(now time.Duration) []engine.Output {
	o.outs = engine.Recycle(o.outs)
	o.requestCatchUp()
	o.outs = append(o.outs, engine.SetTimer{ID: syncTimerID, Delay: DefaultSyncInterval})
	return o.outs
}

// OnTimer implements engine.Engine: if the chain tip has not advanced since
// the last firing, probe the next upstream for missing blocks.
func (o *Observer) OnTimer(now time.Duration, id int) []engine.Output {
	if id != syncTimerID {
		return nil
	}
	o.outs = engine.Recycle(o.outs)
	if tip := o.tipHeight(); tip == o.lastTip {
		o.requestCatchUp()
	} else {
		o.lastTip = tip
	}
	o.outs = append(o.outs, engine.SetTimer{ID: syncTimerID, Delay: DefaultSyncInterval})
	return o.outs
}

// OnMessage implements engine.Engine: Prevalidate, then the state stage. An
// observer emits nothing it receives back, so there is no loopback to trust,
// and its transport mirrors frames under their original, unauthenticated
// sender: every message is checked whatever from says.
func (o *Observer) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	if o.Prevalidate(from, msg) != nil {
		return nil
	}
	return o.OnVerifiedMessage(now, from, msg)
}

// Prevalidate implements engine.Engine: every stateless check the observer
// makes, safe to run concurrently on transport reader goroutines. Proposals
// (bare or echoed) get the full proposal check; structure always, signatures
// when VerifySignatures is on.
// State-sync segments are never judged here — they are verified link by link
// on application.
func (o *Observer) Prevalidate(from types.ReplicaID, msg types.Message) error {
	inner := replica.UnwrapEcho(msg)
	if p, ok := inner.(*types.Proposal); ok {
		return o.checkProposal(p)
	}
	if inner != msg {
		return fmt.Errorf("observer: echo wraps no proposal")
	}
	return nil
}

// checkProposal is the stateless validity check: well-formedness, a committee
// sender, the proposer signature and the justify certificate.
func (o *Observer) checkProposal(p *types.Proposal) error {
	if p.Block == nil || p.Block.Justify == nil {
		return fmt.Errorf("observer: proposal without block or justify")
	}
	if p.Block.Justify.Block != p.Block.Parent {
		return fmt.Errorf("observer: justify does not certify parent")
	}
	if int(p.Sender) >= o.cfg.N {
		return fmt.Errorf("observer: proposal from outside the committee")
	}
	if o.cfg.VerifySignatures && !o.cfg.Verifier.Verify(p.Sender, p.SigningPayload(), p.Signature) {
		return fmt.Errorf("observer: bad proposal signature")
	}
	return o.certs.VerifyQC(p.Block.Justify)
}

// OnVerifiedMessage implements engine.Engine: the state stage. Only sync
// segments are verified here, link by link as they install.
func (o *Observer) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	o.outs = engine.Recycle(o.outs)
	switch m := msg.(type) {
	case *types.Proposal:
		o.onProposal(m)
	case *types.Echo:
		if p, ok := replica.UnwrapEcho(m).(*types.Proposal); ok {
			o.onProposal(p)
		}
	case *types.StateSyncResponse:
		o.onStateSync(m)
	}
	o.emit()
	return o.outs
}

// isGenesisQC matches the round-0 no-votes convention (types.NewGenesisQC).
func isGenesisQC(qc *types.QC) bool {
	return qc.Round == 0 && len(qc.Votes) == 0 && qc.Agg == nil
}

func (o *Observer) onProposal(p *types.Proposal) {
	if o.store.Has(p.Block.ID()) {
		return
	}
	if !o.store.Has(p.Block.Parent) {
		o.orphans.Add(p)
		o.requestCatchUp()
		return
	}
	o.ingest(p.Block)
	o.flushOrphans(p.Block.ID())
}

// ingest installs one block whose parent is present and whose proposal
// passed Prevalidate, then routes its justify QC through the tracker and the
// certified-pair feed.
func (o *Observer) ingest(b *types.Block) {
	if err := o.store.Insert(b); err != nil {
		return
	}
	o.noteQC(b.Justify)
}

// noteQC registers one verified QC: it updates the store's high QC, feeds
// the strength tracker, and fires the certified feed the first time the
// certified block is seen.
func (o *Observer) noteQC(qc *types.QC) {
	if qc == nil || isGenesisQC(qc) {
		return
	}
	certified, _, err := o.store.RegisterQC(qc)
	if err != nil {
		return
	}
	o.tracker.OnQC(qc)
	if o.cfg.OnCertified != nil && !o.certified[qc.Block] {
		o.certified[qc.Block] = true
		o.cfg.OnCertified(certified.Block(), qc)
	}
}

// flushOrphans re-ingests buffered proposals whose parent just arrived,
// cascading down the tree.
func (o *Observer) flushOrphans(parent types.BlockID) {
	queue := []types.BlockID{parent}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, p := range o.orphans.Take(id) {
			if o.store.Has(p.Block.ID()) {
				continue
			}
			o.ingest(p.Block)
			queue = append(queue, p.Block.ID())
		}
	}
}

// onStateSync installs a catch-up segment; every link is re-verified (the
// applier checks structure and, when enabled, signatures), so a lying
// upstream cannot smuggle an uncertified block in.
func (o *Observer) onStateSync(m *types.StateSyncResponse) {
	installed := o.certs.Apply(o.store, m,
		func(b *types.Block) { o.flushOrphans(b.ID()) },
		func(qc *types.QC, standalone bool) {
			if standalone {
				return // the tip's certificate arrives with the next block
			}
			o.tracker.OnQC(qc)
			if o.cfg.OnCertified != nil && !o.certified[qc.Block] {
				if cb := o.store.Block(qc.Block); cb != nil {
					o.certified[qc.Block] = true
					o.cfg.OnCertified(cb, qc)
				}
			}
		})
	if installed > 0 && len(m.Blocks) >= statesync.DefaultMaxBlocks {
		// Full segment: the upstream likely has more; ask again right away
		// rather than waiting out the stall timer.
		o.requestCatchUp()
	}
}

// requestCatchUp asks the next committee member (round-robin) for
// everything above the observer's current tip.
func (o *Observer) requestCatchUp() {
	up := types.ReplicaID(o.nextUp % o.cfg.N)
	o.nextUp++
	o.outs = append(o.outs, engine.Send{
		To:  up,
		Msg: statesync.NewRequest(o.tipHeight(), o.cfg.ID),
	})
}

func (o *Observer) tipHeight() types.Height {
	if b := o.store.Block(o.store.HighQC().Block); b != nil {
		return b.Height
	}
	return 0
}

// emit drains the tracker rises accumulated during one event into outputs:
// regular commits first (ascending height, each block exactly once — the
// first rise to level f commits the block and its uncommitted ancestors),
// then strength events, monotone per block.
func (o *Observer) emit() {
	if len(o.rises) == 0 {
		return
	}
	rises := o.rises
	o.rises = nil
	sort.SliceStable(rises, func(i, j int) bool {
		if rises[i].b.Height != rises[j].b.Height {
			return rises[i].b.Height < rises[j].b.Height
		}
		return rises[i].x < rises[j].x
	})
	for _, r := range rises {
		if !o.committed[r.b.ID()] {
			o.commitChain(r.b)
		}
		if old, ok := o.strength[r.b.ID()]; !ok || r.x > old {
			o.strength[r.b.ID()] = r.x
			o.outs = append(o.outs, engine.Strength{Block: r.b, X: r.x})
		}
	}
}

// commitChain emits Commit for every uncommitted ancestor of b (ascending)
// and then b itself.
func (o *Observer) commitChain(b *types.Block) {
	chain := []*types.Block{b}
	o.store.WalkAncestors(b.ID(), func(a *types.Block) bool {
		if a.IsGenesis() || o.committed[a.ID()] {
			return false
		}
		chain = append(chain, a)
		return true
	})
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		o.committed[blk.ID()] = true
		if blk.Height > o.committedH {
			o.committedH = blk.Height
		}
		o.outs = append(o.outs, engine.Commit{Block: blk})
	}
}
