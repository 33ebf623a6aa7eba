// Package streamlet implements Streamlet as the paper's Figure 10 gives it
// and its SFT extension SFT-Streamlet (Figure 11, Appendix D): lock-step 2Δ
// rounds, longest-certified-chain proposing/voting, all-to-all votes with the
// echo mechanism, the consecutive-round 3-chain commit rule, and height-keyed
// strong-votes. Only those protocol rules live here; the certified-chain
// bookkeeping is the embedded internal/replica chassis.
package streamlet

import (
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/types"
)

// Config parameterizes a Streamlet replica: the common replica configuration
// plus Streamlet's own knobs.
type Config struct {
	replica.Config

	// Delta is the assumed maximum network delay ∆; rounds last 2∆.
	Delta time.Duration

	// DisableEcho turns off the O(n^3) echo relay; deliveries then rely on
	// the sender's broadcast alone (fine on the simulator's reliable
	// links, and much cheaper for large n).
	DisableEcho bool
}

// Replica is one Streamlet (optionally SFT-Streamlet) replica engine. The
// chassis's vote sets double as the (block, voter) echo dedup: Mark records
// a voter as seen without retaining a vote (journal replay), Add does both.
type Replica struct {
	*replica.Chassis
	cfg Config

	round      types.Round
	votedRound map[types.Round]bool
	maxCertH   types.Height // height of the longest certified chain

	// seenProp is the proposal echo dedup (blocks the store holds count as
	// seen too; see onProposal).
	seenProp map[types.BlockID]bool

	// sigCache memoizes verified vote/proposal signatures for Prevalidate
	// (nil when signature checking is off). The echo mechanism delivers each
	// message up to n times; Prevalidate is stateless and cannot dedup the
	// copies, so this memo is what keeps it to one verification per distinct
	// signature. Internally synchronized.
	sigCache *crypto.SigCache
}

// New creates a Streamlet replica engine.
func New(cfg Config) (*Replica, error) {
	if cfg.Signer == nil {
		return nil, fmt.Errorf("streamlet: a signer is required")
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("streamlet: delta must be positive")
	}
	if cfg.Rule == replica.RuleFBFT {
		return nil, fmt.Errorf("streamlet: the FBFT baseline (Appendix B) is DiemBFT-only")
	}
	r := &Replica{
		cfg:        cfg,
		round:      1,
		votedRound: make(map[types.Round]bool),
		seenProp:   make(map[types.BlockID]bool),
	}
	var err error
	r.Chassis, err = replica.New(cfg.Config, core.ModeHeight,
		func(b *types.Block, x int) { r.EmitStrength(b, x) },
		func(p *types.Proposal) { r.onAccepted(p.Block) })
	if err != nil {
		return nil, err
	}
	if cfg.VerifySignatures {
		r.sigCache = crypto.NewSigCache(0)
	}
	return r, nil
}

// Round returns the current lock-step round.
func (r *Replica) Round() types.Round { return r.round }

// Restore rebuilds the replica from a journal replay; call after New,
// before Init. Votes, certificates and the committed prefix are reinstated
// so post-restart height markers cannot contradict pre-crash ones.
func (r *Replica) Restore(rec *core.Recovery) error {
	if rec == nil || rec.Empty() {
		return nil
	}
	// onProposal already drops a proposal whose block the store holds, so
	// restored blocks need no seenProp entry.
	err := r.Chassis.Restore(rec, nil, func(qc *types.QC) {
		// Longest-certified-chain state only: no commit re-evaluation, the
		// chassis reinstates the committed prefix from the commit records.
		if r.Store().Has(qc.Height, qc.Block) && qc.Height > r.maxCertH {
			r.maxCertH = qc.Height
		}
	})
	if err != nil {
		return err
	}
	for i := range rec.Votes {
		v := &rec.Votes[i]
		r.votedRound[v.Round] = true
		// Mark, not Add: the replayed own vote is deduplicated when its echo
		// arrives but never re-counted toward a fresh certificate, exactly the
		// pre-crash semantics.
		set := r.Votes[v.Block]
		if set == nil {
			set = &core.VoteSet{}
			r.Votes[v.Block] = set
		}
		set.Mark(v.Voter)
	}
	return nil
}

// Init implements engine.Engine. Streamlet rounds are lock-step wall-clock
// slots of 2∆, so a replica initialized mid-run (a crash-restart) derives
// its round from the clock instead of starting over at 1; a recovered
// replica also broadcasts a state-sync request to fetch what it missed.
func (r *Replica) Init(now time.Duration) []engine.Output {
	r.Begin(now)
	if slot := types.Round(now / (2 * r.cfg.Delta)); slot+1 > r.round {
		r.round = slot + 1
	}
	r.EnterRound(r.round, false)
	// Align the first timer to the next slot boundary so a mid-run restart
	// keeps ticking in phase with the rest of the cluster.
	delay := 2*r.cfg.Delta - now%(2*r.cfg.Delta)
	r.Outs = append(r.Outs, engine.SetTimer{ID: int(r.round), Delay: delay})
	if r.Recovered() {
		r.RequestStateSync()
	}
	r.maybePropose()
	return r.Take()
}

// OnTimer advances the lock-step round (the synchronization rule: 2∆ per
// round).
func (r *Replica) OnTimer(now time.Duration, id int) []engine.Output {
	r.Begin(now)
	if types.Round(id) == r.round {
		r.round++
		r.EnterRound(r.round, false)
		r.Outs = append(r.Outs, engine.SetTimer{ID: int(r.round), Delay: 2 * r.cfg.Delta})
		r.maybePropose()
	}
	return r.Take()
}

// OnMessage implements engine.Engine: Prevalidate, then the state stage.
// Loopback (from is this replica) is the engine's own output and is trusted.
func (r *Replica) OnMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	if from != r.cfg.ID {
		err := r.Prevalidate(from, msg)
		r.cfg.Obs.OnPrevalidate(err != nil)
		if err != nil {
			return nil
		}
	}
	return r.OnVerifiedMessage(now, from, msg)
}

// OnVerifiedMessage implements engine.Engine: the state stage, stateful rules
// only. Only sync segments are verified here, link by link as they install.
func (r *Replica) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	r.Begin(now)
	r.handle(msg)
	return r.Take()
}

func (r *Replica) handle(msg types.Message) {
	// Relayed messages are processed through the same paths as direct ones;
	// the dedup sets prevent loops and double-counting.
	switch m := replica.UnwrapEcho(msg).(type) {
	case *types.Proposal:
		r.onProposal(m)
	case *types.VoteMsg:
		r.onVote(m.Vote)
	case *types.StateSyncRequest:
		r.OnStateSyncRequest(m)
	case *types.StateSyncResponse:
		r.ApplySegment(m, r.onSyncedCert)
	}
}

// onSyncedCert absorbs a certificate from a catch-up segment. An embedded
// justify is already registered by the applier and durable via the block
// that carried it. The responder's standalone high QC is registered here,
// and since no journaled block embeds it, its record goes to the journal
// itself (once, on improvement).
func (r *Replica) onSyncedCert(qc *types.QC, standalone bool) {
	if standalone {
		n, improved, err := r.Store().RegisterQC(qc)
		if err != nil {
			return
		}
		if !improved {
			r.checkCommit(n)
			return
		}
		r.JournalQC(qc)
	}
	if n := r.Store().Node(qc.Height, qc.Block); n != nil {
		r.cfg.Obs.OnQCObserved(n.Block(), r.Now())
		r.noteCertified(n, qc)
	}
}

// noteCertified absorbs a newly certified block: the longest certified chain
// may have grown (the locking rule), the endorsement tracker sees the
// certificate, and the commit rule is re-run around the block.
func (r *Replica) noteCertified(n *blockstore.Node, qc *types.QC) {
	if n.Height() > r.maxCertH {
		r.maxCertH = n.Height()
	}
	if t := r.Tracker(); t != nil {
		t.OnQC(qc)
	}
	r.checkCommit(n)
}

// echo relays a first-seen message to everyone (Figure 10's message echo
// mechanism).
func (r *Replica) echo(msg types.Message) {
	if r.cfg.DisableEcho {
		return
	}
	r.Outs = append(r.Outs, engine.Broadcast{Msg: &types.Echo{Inner: msg, Relayer: r.cfg.ID}})
}

// --- proposing ---

// tip returns the deterministic tip of the longest certified chain: highest
// certified height, ties broken by smallest round then block ID.
func (r *Replica) tip() *blockstore.Node {
	var best *blockstore.Node
	for _, n := range r.certifiedAt(r.maxCertH) {
		b := n.Block()
		if best == nil || b.Round < best.Block().Round ||
			(b.Round == best.Block().Round && lessID(b.ID(), best.Block().ID())) {
			best = n
		}
	}
	return best
}

func lessID(a, b types.BlockID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// certifiedAt returns all certified blocks at height h on certified chains
// from genesis.
func (r *Replica) certifiedAt(h types.Height) []*blockstore.Node {
	var out []*blockstore.Node
	var walk func(n *blockstore.Node)
	walk = func(n *blockstore.Node) {
		if n.Height() == h {
			if n.QC() != nil {
				out = append(out, n)
			}
			return
		}
		for c := n.FirstChild(); c != nil; c = c.NextSibling() {
			if c.QC() != nil {
				walk(c)
			}
		}
	}
	if g := r.Store().Node(0, r.Store().Genesis().ID()); g != nil {
		walk(g)
	}
	return out
}

func (r *Replica) maybePropose() {
	if pacemaker.Leader(r.round, r.cfg.N) != r.cfg.ID {
		return
	}
	if parent := r.tip(); parent != nil {
		r.Propose(r.round, parent.Block(), parent.QC(), nil)
	}
}

// --- proposal handling ---

// onProposal is the state stage for a proposal Prevalidate accepted (or this
// replica's own): well-formed, from the round's leader, genuinely signed.
func (r *Replica) onProposal(p *types.Proposal) {
	if id := p.Block.ID(); r.seenProp[id] || r.Store().Has(p.Block.Height, id) {
		return // seen as a proposal, or installed by catch-up
	}
	r.seenProp[p.Block.ID()] = true
	r.echo(p)
	if !r.Store().Has(p.Block.Height-1, p.Block.Parent) {
		r.Park(p)
		return
	}
	r.Accept(p)
}

// onAccepted is the protocol step for a proposed block the chassis just
// installed, whether it arrived in order or was parked first.
func (r *Replica) onAccepted(b *types.Block) {
	r.certifyParent(b)
	r.maybeVote(b)
	r.tryCertify(b)
}

// certifyParent learns the parent's certificate from the child's justify when
// this replica could not form it: the parent's votes were cast while it was
// down or cut off, or were in flight when it restarted, so its own vote set
// stays short of a quorum for good. Without the certificate the parent is a
// hole in the longest certified chain: tip finds nothing to propose on and
// every one of this replica's leader slots is lost. Replicas that saw the
// votes certified the parent before any child was proposed, so for them this
// is one store lookup. Prevalidate verified the justify.
func (r *Replica) certifyParent(b *types.Block) {
	qc := b.Justify
	if p := r.Store().Node(b.Height-1, b.Parent); p != nil && p.QC() != nil {
		return
	}
	if _, improved, err := r.Store().RegisterQC(qc); err == nil && improved {
		r.onSyncedCert(qc, false)
	}
}

// maybeVote applies the Streamlet voting rule: first proposal of the
// current round by its leader, extending a longest certified chain.
func (r *Replica) maybeVote(b *types.Block) {
	if b.Round != r.round || r.votedRound[r.round] {
		return
	}
	parent := r.Store().Node(b.Height-1, b.Parent)
	if parent == nil || parent.QC() == nil || parent.Height() != r.maxCertH {
		return
	}
	// SFT-Streamlet: the marker field carries the height marker.
	v, cast := r.CastVote(b, types.Vote{Marker: types.Round(r.History().HeightMarker(b))})
	if !cast {
		return
	}
	r.votedRound[r.round] = true
	r.Outs = append(r.Outs, engine.Broadcast{Msg: &types.VoteMsg{Vote: v}, SelfDeliver: true})
}

// --- votes and certification ---

func (r *Replica) onVote(v types.Vote) {
	if !r.AddVote(v) {
		return
	}
	r.echo(&types.VoteMsg{Vote: v})
	if b := r.Store().Block(v.Height, v.Block); b != nil {
		r.tryCertify(b)
	}
}

func (r *Replica) tryCertify(b *types.Block) {
	if n := r.Store().Node(b.Height, b.ID()); n != nil && n.QC() != nil {
		return
	}
	qc := r.Certify(b)
	if qc == nil {
		return
	}
	n, improved, err := r.Store().RegisterQC(qc)
	if err != nil {
		return
	}
	if improved {
		// Streamlet certificates are formed from the local vote set and not
		// embedded in any journaled block until a child extends them.
		r.JournalQC(qc)
		r.cfg.Obs.OnQCFormed(b, r.Now())
	}
	r.noteCertified(n, qc)
}

// checkCommit looks for three adjacent certified blocks with consecutive
// rounds around the newly certified block and commits the middle one and
// its ancestors.
func (r *Replica) checkCommit(n *blockstore.Node) {
	// n can be the first, middle or last block of the 3-chain.
	r.commitMiddle(n)
	if p := n.Parent(); p != nil {
		r.commitMiddle(p)
	}
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		r.commitMiddle(c)
	}
}

// commitMiddle commits mid and its ancestors when it is certified and the
// middle of three adjacent certified blocks with consecutive rounds.
func (r *Replica) commitMiddle(mid *blockstore.Node) {
	p, round := mid.Parent(), mid.Block().Round
	if p == nil || p.QC() == nil || p.Block().Round+1 != round || mid.QC() == nil {
		return
	}
	for c := mid.FirstChild(); c != nil; c = c.NextSibling() {
		if c.QC() != nil && c.Block().Round == round+1 {
			r.CommitTo(mid.Block())
			return
		}
	}
}
