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
// path — Flow's access-node split, applied to SFT. An observer embeds the
// same chassis as the voting engines (internal/replica: block store,
// strength tracker, certificate checks, orphan parking, segment application,
// commit emission) and keeps only what is its own: the proposal check, the
// stall timer with round-robin catch-up, and commits derived from the
// tracker. The first time the tracker reports a block at level f it is
// committed by the regular rule (a certified 3-chain yields 2f+1 direct
// endorsers per block, i.e. exactly f beyond the quorum's f+1 honest floor),
// so commit and strength events observed here match the voting engines'
// event stream.
package observer

import (
	"fmt"
	"sort"
	"time"

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
	// Mode selects the marker rule: core.ModeRound (DiemBFT) or
	// core.ModeHeight (Streamlet). Defaults to ModeRound.
	Mode core.Mode
	// Verifier checks vote and proposal signatures (the cluster KeyRing).
	// It names the committee, whose size N must be 3f+1, and its scheme:
	// signatures are checked under real cryptography (crypto.Authenticates)
	// and left unchecked under the simulated schemes, as on the replicas.
	Verifier crypto.Committee
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
	*replica.Chassis
	cfg    Config
	n      int  // the committee's size
	verify bool // whether signatures are checked

	// certified marks blocks already reported via OnCertified. The store
	// cannot stand in for it: the state-sync applier registers a segment's
	// certificates before the observer sees them.
	certified map[types.BlockID]bool

	// rises accumulates tracker callbacks during one event, drained by emit.
	rises []rise

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
	if cfg.Verifier == nil {
		return nil, fmt.Errorf("observer: a committee verifier is required")
	}
	o := &Observer{
		cfg: cfg, n: cfg.Verifier.N(), verify: crypto.Authenticates(cfg.Verifier.Scheme()),
		certified: make(map[types.BlockID]bool),
	}
	var err error
	o.Chassis, err = replica.New(replica.Config{
		ID: cfg.ID, N: o.n,
		Verifier: cfg.Verifier, VerifySignatures: o.verify,
	}, cfg.Mode, func(b *types.Block, x int) {
		o.rises = append(o.rises, rise{b, x})
	}, o.accepted)
	if err != nil {
		return nil, fmt.Errorf("observer: %w", err)
	}
	return o, nil
}

// Init implements engine.Engine: ask an upstream where the chain is and
// start the stall-detection timer.
func (o *Observer) Init(now time.Duration) []engine.Output {
	o.Begin(now)
	o.requestCatchUp()
	o.Outs = append(o.Outs, engine.Output{Kind: engine.SetTimer, Timer: syncTimerID, Delay: DefaultSyncInterval})
	return o.Take()
}

// OnTimer implements engine.Engine: if the chain tip has not advanced since
// the last firing, probe the next upstream for missing blocks.
func (o *Observer) OnTimer(now time.Duration, id int) []engine.Output {
	if id != syncTimerID {
		return nil
	}
	o.Begin(now)
	if tip := o.tipHeight(); tip == o.lastTip {
		o.requestCatchUp()
	} else {
		o.lastTip = tip
	}
	o.Outs = append(o.Outs, engine.Output{Kind: engine.SetTimer, Timer: syncTimerID, Delay: DefaultSyncInterval})
	return o.Take()
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
	if j := p.Block.Justify; j.Block != p.Block.Parent || j.Height+1 != p.Block.Height {
		// The store finds a block only at its own height, so a justify that
		// names the parent at another height certifies nothing it holds.
		return fmt.Errorf("observer: justify does not certify parent")
	}
	if int(p.Sender) >= o.n {
		return fmt.Errorf("observer: proposal from outside the committee")
	}
	if o.verify && !o.cfg.Verifier.Verify(p.Sender, p.SigningPayload(), p.Signature) {
		return fmt.Errorf("observer: bad proposal signature")
	}
	return o.Certs.VerifyQC(p.Block.Justify)
}

// OnVerifiedMessage implements engine.Engine: the state stage. Only sync
// segments are verified here, link by link as they install.
func (o *Observer) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	o.Begin(now)
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
	return o.Take()
}

// onProposal installs a checked proposal through the chassis (Accept, which
// also adopts what was parked on it). One whose parent is missing is parked
// without the chassis's request to its sender: the observer asks the next
// upstream in its own rotation instead.
func (o *Observer) onProposal(p *types.Proposal) {
	if o.Store().Has(p.Block.Height, p.Block.ID()) {
		return
	}
	if !o.Store().Has(p.Block.Height-1, p.Block.Parent) {
		o.Hold(p)
		o.requestCatchUp()
		return
	}
	o.Accept(p)
}

// isGenesisQC matches the round-0 no-votes convention (types.NewGenesisQC).
func isGenesisQC(qc *types.QC) bool {
	return qc.Round == 0 && len(qc.Votes) == 0 && qc.Agg == nil
}

// accepted is the accepted-proposal step: the installed block's justify,
// verified by Prevalidate, is registered and noted.
func (o *Observer) accepted(p *types.Proposal) {
	qc := p.Block.Justify
	if isGenesisQC(qc) {
		return
	}
	if _, _, err := o.Store().RegisterQC(qc); err == nil {
		o.noteQC(qc, false)
	}
}

// noteQC takes a registered certificate, from an accepted proposal or a
// segment the applier is installing: it feeds the strength tracker and fires
// OnCertified the first time the certified block is seen. A segment's
// standalone tip certificate is skipped; it arrives again with the next
// block.
func (o *Observer) noteQC(qc *types.QC, standalone bool) {
	if standalone {
		return
	}
	o.Tracker().OnQC(qc)
	if o.cfg.OnCertified != nil && !o.certified[qc.Block] {
		o.certified[qc.Block] = true
		o.cfg.OnCertified(o.Store().Block(qc.Height, qc.Block), qc)
	}
}

// onStateSync installs a catch-up segment; every link is re-verified (the
// applier checks structure and, when enabled, signatures), so a lying
// upstream cannot smuggle an uncertified block in.
func (o *Observer) onStateSync(m *types.StateSyncResponse) {
	if o.ApplySegment(m, o.noteQC) > 0 && len(m.Blocks) >= statesync.DefaultMaxBlocks {
		// Full segment: the upstream likely has more; ask again right away
		// rather than waiting out the stall timer.
		o.requestCatchUp()
	}
}

// requestCatchUp asks the next committee member (round-robin) for
// everything above the observer's current tip.
func (o *Observer) requestCatchUp() {
	up := types.ReplicaID(o.nextUp % o.n)
	o.nextUp++
	o.Outs = append(o.Outs, engine.Output{Kind: engine.Send,
		To:  up,
		Msg: statesync.NewRequest(o.tipHeight(), o.cfg.ID),
	})
}

func (o *Observer) tipHeight() types.Height {
	if qc := o.Store().HighQC(); o.Store().Has(qc.Height, qc.Block) {
		return qc.Height
	}
	return 0
}

// emit drains the tracker rises accumulated during one event into outputs,
// in ascending height. The tracker reports each level of a block once, in
// rising order, and never below f, so a block's first rise is its regular
// commit: CommitTo emits it and its uncommitted ancestors, oldest first, and
// refuses a block that does not extend the last commit. Strength is reported
// only for blocks on the committed chain, so the feed never rates a block it
// did not commit (a refused branch takes more than f faults).
func (o *Observer) emit() {
	if len(o.rises) == 0 {
		return
	}
	sort.SliceStable(o.rises, func(i, j int) bool {
		if o.rises[i].b.Height != o.rises[j].b.Height {
			return o.rises[i].b.Height < o.rises[j].b.Height
		}
		return o.rises[i].x < o.rises[j].x
	})
	for _, r := range o.rises {
		o.CommitTo(r.b)
		if n := o.Store().Node(o.CommittedHeight(), o.LastCommitted()).Ancestor(r.b.Height); n != nil && n.Block() == r.b {
			o.EmitStrength(r.b, r.x)
		}
	}
	clear(o.rises)
	o.rises = o.rises[:0]
}
