package adversary

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/intervals"
	"repro/internal/types"
)

// Kind names one built-in behavior.
type Kind string

// Built-in behavior kinds. The engine-hook behaviors (equivocation,
// withholding, double-signing, marker lying) realize the paper's Byzantine
// model; the injection behaviors (corrupt signatures, garbage, stale replay)
// and the timing behaviors (drop, delay, duplicate) stress robustness of the
// receive paths.
const (
	// Equivocate proposes two conflicting blocks per led round, one to each
	// half of the cluster — the fork-creating attack of Appendix C and the
	// liveness gap Theorem 3's interval votes close.
	Equivocate Kind = "equivocate"
	// Withhold suppresses the replica's own votes (a "silent" Byzantine
	// replica: otherwise protocol-following, contributes nothing).
	Withhold Kind = "withhold-votes"
	// DoubleVote signs a second, conflicting vote per round whenever the
	// replica has seen a competing proposal for that round.
	DoubleVote Kind = "double-vote"
	// LieMarkers rewrites the replica's own strong-votes to claim an empty
	// conflict history (marker 0, full interval set), the Appendix C lie
	// that inflates naive endorsement counts.
	LieMarkers Kind = "lie-markers"
	// ForkRevive assembles a certificate from observed (signed, public)
	// votes for a recently certified block off the replica's own chain and
	// proposes a child of it in a round the replica leads — the branch
	// revival that, combined with double votes and vote starvation, realizes
	// the Appendix C fork script against a live cluster. With no revivable
	// candidate it falls back to plain equivocation, seeding the first fork
	// itself.
	ForkRevive Kind = "fork-revive"
	// WithholdUncontested suppresses the replica's own votes in rounds with
	// a single known proposal. Colluders running it starve honest-led
	// rounds below quorum — the resulting timeouts freeze locks, keeping a
	// revived branch's parents inside every honest replica's voting rule
	// (the round gaps of the Appendix C script).
	WithholdUncontested Kind = "withhold-uncontested"
	// CorruptSigs flips a signature byte on every Every-th signed outbound
	// message; verifying receivers must drop them.
	CorruptSigs Kind = "corrupt-sigs"
	// Garbage injects a structurally broken message (nil block, bogus vote,
	// malformed certificate, empty echo) alongside every Every-th outbound.
	Garbage Kind = "garbage"
	// ReplayStale rebroadcasts a previously seen message (its embedded
	// certificates now stale) alongside every Every-th outbound.
	ReplayStale Kind = "replay-stale"
	// Drop discards each outbound transmission with probability P.
	Drop Kind = "drop"
	// Delay postpones each outbound transmission by Delay plus uniform
	// Jitter.
	Delay Kind = "delay"
	// Duplicate re-sends each outbound transmission with probability P.
	Duplicate Kind = "duplicate"
	// TimeoutSpam floods peers with validly signed timeouts for ever-higher
	// far-future rounds, each carrying the (honestly matching) genesis
	// certificate. No single message is structurally rejectable — the attack
	// is volumetric: an uncapped timeout buffer keeps every distinct claimed
	// round, while the pacemaker's per-peer cap holds each spammer to a
	// constant.
	TimeoutSpam Kind = "timeout-spam"
	// WrongAppHash rewrites the replica's own strong-votes to certify a
	// fabricated execution state root (validly re-signed, since AppHash lives
	// inside the vote's signing payload). The execution layer's defenses must
	// contain it: honest leaders drop root-disagreeing votes at collection,
	// certificate structure checks reject mixed-root vote sets, and with at
	// most f such liars no fabricated root can reach a quorum — so honest
	// replicas never commit divergent state. Note the proposal side needs no
	// counterpart behavior: a Byzantine leader cannot forge a state-lying
	// certificate at all, because certificates are made of votes whose
	// signatures cover their AppHash.
	WrongAppHash Kind = "wrong-apphash"
)

// Kinds lists every built-in behavior, in a stable order the scenario
// fuzzer's generator samples from.
var Kinds = []Kind{
	Equivocate, Withhold, DoubleVote, LieMarkers, ForkRevive, WithholdUncontested,
	CorruptSigs, Garbage, ReplayStale, Drop, Delay, Duplicate,
	TimeoutSpam, WrongAppHash,
}

// Forges reports whether the behavior can fabricate protocol content —
// conflicting proposals or votes, lied markers, bogus certificates — as
// opposed to merely reordering, suppressing or corrupting-in-transit what
// an honest engine produced. Definition 1's fault count t should count only
// forging replicas: a replica that just drops or delays traffic cannot
// contribute to two conflicting commits, so safety must hold around it as
// if it were honest (its tracker's observations are honest, too).
//
// TimeoutSpam is deliberately non-forging: the spam timeouts are truthfully
// signed statements about the spammer's own state and can never produce a
// conflicting commit. It is a liveness attack, so scenarios built from it
// alone stay "benign" for the fuzzer's liveness checker, which is exactly the
// property the pacemaker A/B experiments need.
func (k Kind) Forges() bool {
	switch k {
	case Equivocate, DoubleVote, LieMarkers, ForkRevive, Garbage, WrongAppHash:
		return true
	default:
		return false
	}
}

// ForgingReplicas returns how many of the per-replica behavior chains
// contain at least one forging behavior — the t the Definition 1 checker
// must use.
func ForgingReplicas(chains map[types.ReplicaID][]Spec) int {
	n := 0
	for _, specs := range chains {
		for _, s := range specs {
			if s.Kind.Forges() {
				n++
				break
			}
		}
	}
	return n
}

// Spec is the serializable description of one behavior: enough to rebuild
// it (Build) and to print it into a replayable scenario line. Unused
// parameters are zero.
type Spec struct {
	Kind Kind
	// Every is the injection cadence for CorruptSigs/Garbage/ReplayStale
	// (0 = every message).
	Every int
	// P is the per-transmission probability for Drop/Duplicate.
	P float64
	// Delay and Jitter shape the Delay behavior.
	Delay, Jitter time.Duration
}

// String renders the spec compactly for scenario reproduction output.
func (s Spec) String() string {
	switch s.Kind {
	case CorruptSigs, Garbage, ReplayStale, TimeoutSpam:
		return fmt.Sprintf("%s(every=%d)", s.Kind, s.cadence())
	case Drop, Duplicate:
		return fmt.Sprintf("%s(p=%.2f)", s.Kind, s.P)
	case Delay:
		return fmt.Sprintf("%s(d=%v,j=%v)", s.Kind, s.Delay, s.Jitter)
	default:
		return string(s.Kind)
	}
}

func (s Spec) cadence() int {
	if s.Every <= 0 {
		return 1
	}
	return s.Every
}

// Build constructs the behavior the spec describes.
func (s Spec) Build() (Behavior, error) {
	switch s.Kind {
	case Equivocate:
		return &equivocate{}, nil
	case Withhold:
		return withhold{}, nil
	case DoubleVote:
		return &doubleVote{
			proposals: make(map[types.Round][]*types.Proposal),
			voted:     make(map[types.Round]engine.Output),
			signed:    make(map[types.BlockID]types.Round),
		}, nil
	case LieMarkers:
		return lieMarkers{}, nil
	case ForkRevive:
		return &forkRevive{
			votes:    make(map[types.BlockID]map[types.ReplicaID]types.Vote),
			revived:  make(map[types.BlockID]bool),
			gossiped: make(map[voteGossipKey]bool),
		}, nil
	case WithholdUncontested:
		return &withholdUncontested{
			competitors: make(map[types.Round]map[types.BlockID]bool),
			held:        make(map[types.Round]engine.Output),
		}, nil
	case CorruptSigs:
		return &corruptSigs{every: s.cadence()}, nil
	case Garbage:
		return &garbage{every: s.cadence()}, nil
	case ReplayStale:
		return &replayStale{every: s.cadence()}, nil
	case Drop:
		return dropMsgs{p: s.P}, nil
	case Delay:
		return delayMsgs{d: s.Delay, jitter: s.Jitter}, nil
	case Duplicate:
		return duplicateMsgs{p: s.P}, nil
	case TimeoutSpam:
		return &timeoutSpam{every: s.cadence()}, nil
	case WrongAppHash:
		return wrongAppHash{}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown behavior kind %q", s.Kind)
	}
}

// Build constructs the full behavior chain for a spec list.
func Build(specs []Spec) ([]Behavior, error) {
	out := make([]Behavior, 0, len(specs))
	for _, s := range specs {
		b, err := s.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// --- engine-hook behaviors ---

// equivocate splits each own led-round proposal into two conflicting
// blocks. The first half of the cluster receives the honest block first and
// the sibling (poisoned payload) slightly later; the second half the other
// way around. Every replica eventually sees both — honest voters still vote
// only the first arrival of the round, so the vote split that certifies
// both siblings needs double-voting colluders, exactly as in Appendix C.
type equivocate struct{}

// equivocateLag is how much later the crossover copy of each fork half
// arrives; small enough to stay inside the round, large enough that the
// primary half usually wins the first-arrival vote.
const equivocateLag = 6 * time.Millisecond

// reviveMainLag is how much later the REGULAR proposal reaches the
// fork-first recipients when a reviver is active: a revival is often
// emitted a few milliseconds into the round (waiting for its certificate's
// final votes), and this cushion keeps it first at its half anyway.
const reviveMainLag = 10 * time.Millisecond

// unwrapEchoMsg strips up to the engines' echo-nesting cap of relay
// wrappers so behaviors observe the base message a Streamlet delivery
// carries; non-echo messages pass through unchanged and over-nested or
// empty chains surface as nil.
func unwrapEchoMsg(msg types.Message) types.Message {
	for depth := 0; depth < 4; depth++ {
		e, ok := msg.(*types.Echo)
		if !ok {
			return msg
		}
		if e.Inner == nil {
			return nil
		}
		msg = e.Inner
	}
	return nil
}

// poisonedSibling builds a conflicting sibling of the honest proposal p —
// same parent, same justify, a payload prepended with a poison transaction
// so the block ID differs — signed by the colluder. Shared by the
// equivocation behavior and the fork reviver's seeding fallback.
func poisonedSibling(ctx *Context, p *types.Proposal) *types.Proposal {
	b := p.Block
	alt := b.Payload
	alt.Txns = append([]types.Transaction{{Sender: ^uint32(0), Seq: uint64(b.Round)}}, alt.Txns...)
	sibling := types.NewBlock(b.Parent, b.Justify, b.Round, b.Height, b.Proposer, b.Timestamp, alt, nil)
	prop := &types.Proposal{Block: sibling, Round: p.Round, Sender: p.Sender}
	prop.Signature = ctx.Sign(prop.SigningPayload())
	return prop
}

// forkHalf deterministically assigns replica i to one side of a round's
// fork split. The assignment is stable across one leader rotation (a
// colluder window keeps a consistent split, so a contested branch can grow
// for several consecutive rounds) but rotates across rotations, varying
// which honest voters back each branch — a static split would hand every
// fork certificate the same voter set, capping its endorsement count.
func forkHalf(i int, round types.Round, n int) bool {
	return ((i+int(round)/n)%n)*2/n == 1
}

// forkFirst reports whether replica `to` should receive the fork branch's
// proposal ahead of the regular one in `round`. With coalition knowledge a
// rotating subset of about half the honest replicas backs the fork each
// round (colluders see it first too — they double-vote both sides anyway),
// so successive fork certificates carry varying honest voters; without it,
// the window-rotated static half applies.
func forkFirst(ctx *Context, to types.ReplicaID, round types.Round) bool {
	honest := ctx.Honest()
	if len(honest) == 0 {
		return forkHalf(int(to), round, ctx.N())
	}
	idx := -1
	for i, id := range honest {
		if id == to {
			idx = i
			break
		}
	}
	if idx < 0 {
		return true // colluder: fork first, it votes both sides regardless
	}
	k := len(honest) / 2
	if k == 0 {
		k = 1
	}
	start := int(round) % len(honest)
	return (idx-start+len(honest))%len(honest) < k
}

func (*equivocate) Name() string { return string(Equivocate) }

func (*equivocate) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	p, ok := out.Msg.(*types.Proposal)
	if !ok || out.Kind != engine.Broadcast || p.Sender != ctx.ID() || p.Block == nil {
		emit(out)
		return
	}
	altProp := poisonedSibling(ctx, p)
	n := ctx.N()
	for i := 0; i < n; i++ {
		to := types.ReplicaID(i)
		if to == ctx.ID() {
			if out.SelfDeliver {
				emit(engine.Output{Kind: engine.Send, To: to, Msg: p, Delay: out.Delay})
			}
			continue
		}
		first, second := types.Message(p), types.Message(altProp)
		if forkHalf(i, p.Round, n) { // one half leads with the honest block, the other with the fork
			first, second = second, first
		}
		emit(engine.Output{Kind: engine.Send, To: to, Msg: first, Delay: out.Delay})
		emit(engine.Output{Kind: engine.Send, To: to, Msg: second, Delay: out.Delay + equivocateLag})
	}
}

// withhold drops the replica's own votes.
type withhold struct{}

func (withhold) Name() string { return string(Withhold) }

func (withhold) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	if vm, ok := out.Msg.(*types.VoteMsg); ok && vm.Vote.Voter == ctx.ID() {
		return
	}
	emit(out)
}

// doubleVote signs a conflicting vote for every competing same-round
// proposal it learns about — whether the competitor arrived before or after
// the honest engine's own vote left — the quorum-intersection attack that,
// with enough colluders, certifies both sides of an equivocating leader's
// fork. Competing proposals are learned from inbound traffic AND from the
// replica's own outbound stream, so an equivocating or fork-reviving
// colluder double-votes its own fabrications too.
type doubleVote struct {
	proposals map[types.Round][]*types.Proposal
	// voted remembers the honest vote (and its routing) per round; signed
	// tracks which blocks this replica already voted (mapped to their round
	// so pruning can evict them), capping one vote per (round, block).
	voted    map[types.Round]engine.Output
	signed   map[types.BlockID]types.Round
	pending  []engine.Output
	maxRound types.Round
}

func (*doubleVote) Name() string { return string(DoubleVote) }

// noteProposal records a competing proposal and, when this replica already
// voted in that round, queues the conflicting vote.
func (d *doubleVote) noteProposal(ctx *Context, p *types.Proposal) {
	if p == nil || p.Block == nil {
		return
	}
	for _, seen := range d.proposals[p.Round] {
		if seen.Block.ID() == p.Block.ID() {
			return
		}
	}
	d.proposals[p.Round] = append(d.proposals[p.Round], p)
	if p.Round > d.maxRound {
		d.maxRound = p.Round
		// Bound memory: competitors (and the votes cast on them) matter
		// only near the current round.
		if len(d.proposals) > 128 {
			for r := range d.proposals {
				if r+64 < d.maxRound {
					delete(d.proposals, r)
				}
			}
			for r := range d.voted {
				if r+64 < d.maxRound {
					delete(d.voted, r)
				}
			}
			for id, r := range d.signed {
				if r+64 < d.maxRound {
					delete(d.signed, id)
				}
			}
		}
	}
	if tmpl, ok := d.voted[p.Round]; ok {
		d.queueConflict(ctx, tmpl, p)
	}
}

// queueConflict signs the conflicting vote for p using the honest vote as a
// template and queues it for the next Emit flush.
func (d *doubleVote) queueConflict(ctx *Context, tmpl engine.Output, p *types.Proposal) {
	id := p.Block.ID()
	if _, dup := d.signed[id]; dup {
		return
	}
	vm := tmpl.Msg.(*types.VoteMsg)
	if vm.Vote.Block == id {
		return
	}
	v := vm.Vote
	v.Block = id
	v.Height = p.Block.Height
	v.Signature = ctx.Sign(v.SigningPayload())
	d.signed[id] = v.Round
	second := tmpl
	second.Msg = &types.VoteMsg{Vote: v}
	d.pending = append(d.pending, second)
}

func (d *doubleVote) ObserveInbound(ctx *Context, now time.Duration, from types.ReplicaID, msg types.Message) {
	if p, ok := unwrapEchoMsg(msg).(*types.Proposal); ok {
		d.noteProposal(ctx, p)
	}
}

func (d *doubleVote) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	emit(out)
	switch m := out.Msg.(type) {
	case *types.Proposal:
		// Own (or upstream-fabricated) proposals are competitors too.
		d.noteProposal(ctx, m)
	case *types.VoteMsg:
		if m.Vote.Voter != ctx.ID() {
			return
		}
		round := m.Vote.Round
		if _, ok := d.voted[round]; !ok {
			d.voted[round] = out
			d.signed[m.Vote.Block] = round
			for _, p := range d.proposals[round] {
				d.queueConflict(ctx, out, p)
			}
		}
	}
}

// Emit flushes conflicting votes queued since the last event (e.g. for a
// competing proposal that arrived after the honest vote left).
func (d *doubleVote) Emit(ctx *Context, now time.Duration, emit func(engine.Output)) {
	for _, out := range d.pending {
		emit(out)
	}
	d.pending = d.pending[:0]
}

// lieMarkers strips the conflict history from the replica's own
// strong-votes: marker 0 (and no interval set) endorses every ancestor, the
// lie that makes naive (marker-ignoring) endorsement counting unsafe and
// that the real commit rule tolerates up to x liars.
type lieMarkers struct{}

func (lieMarkers) Name() string { return string(LieMarkers) }

func (lieMarkers) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	vm, ok := out.Msg.(*types.VoteMsg)
	if !ok || vm.Vote.Voter != ctx.ID() || (vm.Vote.Marker == 0 && !vm.Vote.HasIntervals) {
		emit(out)
		return
	}
	v := vm.Vote
	v.Marker = 0
	v.HasIntervals = false
	v.Intervals = intervals.Set{}
	v.Signature = ctx.Sign(v.SigningPayload())
	out.Msg = &types.VoteMsg{Vote: v}
	emit(out)
}

// forkRevive collects the signed votes the replica observes, and — whenever
// its honest engine proposes — additionally proposes a child of a recently
// vote-quorumed block OFF its own chain, justified by a certificate
// assembled from those observed votes. Everything it sends is made of
// genuine signatures, so verifying receivers accept it; whether honest
// replicas then vote the revived branch is governed by their (lock or
// longest-chain) voting rules, exactly as the paper's adversary model
// intends.
type forkRevive struct {
	votes    map[types.BlockID]map[types.ReplicaID]types.Vote
	revived  map[types.BlockID]bool
	maxRound types.Round
	// current is the replica's own latest proposal (the led round a revival
	// competes in); lastRevived and lastSeeded cap each mechanism at one
	// per led round.
	current     *types.Proposal
	lastRevived types.Round
	lastSeeded  types.Round
	// Coalition vote gossip: every vote this replica observes (or signs) is
	// relayed once to each co-conspirator, so the whole coalition shares
	// one view of which blocks can still be certified. Votes are public,
	// signed objects — relaying them is within any adversary's power.
	gossiped      map[voteGossipKey]bool
	pendingGossip []types.Vote
}

type voteGossipKey struct {
	block types.BlockID
	voter types.ReplicaID
}

// reviveWindow is how far back a block stays revivable. Starved rounds
// freeze locks, so a parent this old can still pass honest voting rules —
// and votes for the revival walk back down the branch, raising its
// endorsement counts long after the contested rounds ended.
const reviveWindow = 8

func (*forkRevive) Name() string { return string(ForkRevive) }

func (f *forkRevive) ObserveInbound(ctx *Context, now time.Duration, from types.ReplicaID, msg types.Message) {
	if vm, ok := unwrapEchoMsg(msg).(*types.VoteMsg); ok {
		f.recordVote(ctx, vm.Vote)
	}
}

func (f *forkRevive) recordVote(ctx *Context, v types.Vote) {
	m, ok := f.votes[v.Block]
	if !ok {
		m = make(map[types.ReplicaID]types.Vote, 2*ctx.F()+1)
		f.votes[v.Block] = m
	}
	if _, seen := m[v.Voter]; !seen && len(ctx.cfg.Colluders) > 0 {
		// First sighting: queue it for coalition gossip (flushed by Emit).
		key := voteGossipKey{block: v.Block, voter: v.Voter}
		if !f.gossiped[key] {
			f.gossiped[key] = true
			f.pendingGossip = append(f.pendingGossip, v)
			if len(f.gossiped) > 8192 {
				f.gossiped = make(map[voteGossipKey]bool, 1024)
			}
		}
	}
	m[v.Voter] = v
	if v.Round > f.maxRound {
		f.maxRound = v.Round
		if len(f.votes) > 256 {
			for id, votes := range f.votes {
				for _, w := range votes {
					if w.Round+16 < f.maxRound {
						delete(f.votes, id)
					}
					break
				}
			}
		}
	}
}

func (f *forkRevive) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	if vm, ok := out.Msg.(*types.VoteMsg); ok {
		// Own votes count toward revivable quorums too — place this
		// behavior after a double-voter in the chain and both of the
		// replica's conflicting votes are seen here.
		f.recordVote(ctx, vm.Vote)
	}
	p, ok := out.Msg.(*types.Proposal)
	if !ok || p.Sender != ctx.ID() || p.Block == nil || p.Block.Proposer != ctx.ID() {
		emit(out)
		return
	}
	if f.current == nil || p.Round > f.current.Round {
		f.current = p
		// Stagger the honest proposal: the first half of the cluster gets it
		// immediately, the second half one beat later — the revival (emitted
		// mirrored) then wins the second half's first-arrival votes.
		if out.Kind == engine.Broadcast {
			n := ctx.N()
			for i := 0; i < n; i++ {
				to := types.ReplicaID(i)
				if to == ctx.ID() {
					if out.SelfDeliver {
						emit(engine.Output{Kind: engine.Send, To: to, Msg: p, Delay: out.Delay})
					}
					continue
				}
				delay := out.Delay
				// Coalition members get everything immediately — lagging
				// them would delay their double votes and with them the next
				// round's revival.
				if !ctx.IsColluder(to) && forkFirst(ctx, to, p.Round) {
					delay += reviveMainLag
				}
				emit(engine.Output{Kind: engine.Send, To: to, Msg: p, Delay: delay})
			}
			f.tryRevive(ctx, emit, out.Delay)
			return
		}
	}
	emit(out)
	f.tryRevive(ctx, emit, out.Delay)
}

// Emit flushes coalition vote gossip and retries the revival after vote
// deliveries: the decisive vote that completes the off-chain block's quorum
// usually lands moments after the replica's own proposal already went out.
// The negative sentinel suppresses the equivocation fallback on retries.
func (f *forkRevive) Emit(ctx *Context, now time.Duration, emit func(engine.Output)) {
	if len(f.pendingGossip) > 0 {
		for _, v := range f.pendingGossip {
			for _, peer := range ctx.cfg.Colluders {
				if peer == ctx.ID() {
					continue
				}
				emit(engine.Output{Kind: engine.Send, To: peer, Msg: &types.VoteMsg{Vote: v}})
			}
		}
		f.pendingGossip = f.pendingGossip[:0]
	}
	f.tryRevive(ctx, emit, -1)
}

func (f *forkRevive) tryRevive(ctx *Context, emit func(engine.Output), baseDelay time.Duration) {
	p := f.current
	if p == nil || p.Round <= f.lastRevived || p.Round <= f.lastSeeded {
		return // at most one competitor injected per led round
	}
	if f.maxRound > p.Round+1 {
		f.current = nil // the cluster moved on; this led round is over
		return
	}
	quorum := 2*ctx.F() + 1
	// Deterministic candidate choice (map order must not leak into runs):
	// the newest vote-quorumed block off the own chain, ties broken by ID.
	// A previous-round block one vote short of quorum defers the decision —
	// its colluder votes are usually still in flight, and reviving it beats
	// reviving something older (which honest locks would reject).
	var bestID types.BlockID
	var bestVote types.Vote
	found, pendingFresher := false, false
	for id, votes := range f.votes {
		if id == p.Block.Parent || f.revived[id] {
			continue
		}
		var sample types.Vote
		for _, v := range votes {
			sample = v
			break
		}
		if sample.Round+reviveWindow < p.Round || sample.Round >= p.Round {
			continue
		}
		if len(votes) < quorum {
			// Only branches this replica itself (double-)voted are worth
			// waiting for: an honest-led starved round also sits short of
			// quorum, but no colluder vote will ever complete it.
			if _, mine := votes[ctx.ID()]; mine && sample.Round == p.Round-1 {
				pendingFresher = true
			}
			continue
		}
		if !found || sample.Round > bestVote.Round ||
			(sample.Round == bestVote.Round && string(id[:]) < string(bestID[:])) {
			found, bestID, bestVote = true, id, sample
		}
	}
	if pendingFresher && (!found || bestVote.Round < p.Round-1) {
		return // wait for the fresher branch to complete; Emit retries
	}
	var revival *types.Proposal
	if found {
		votes := f.votes[bestID]
		qcVotes := make([]types.Vote, 0, len(votes))
		for _, v := range votes {
			qcVotes = append(qcVotes, v)
		}
		// Keep every observed vote in the certificate (not just a quorum):
		// the extra voters all count as endorsers wherever it registers.
		sort.Slice(qcVotes, func(i, j int) bool { return qcVotes[i].Voter < qcVotes[j].Voter })
		qc := &types.QC{Block: bestID, Round: bestVote.Round, Height: bestVote.Height, Votes: qcVotes}
		payload := types.Payload{Txns: []types.Transaction{{Sender: ^uint32(0) - 1, Seq: uint64(p.Round)}}}
		child := types.NewBlock(bestID, qc, p.Round, bestVote.Height+1, ctx.ID(), p.Block.Timestamp, payload, nil)
		revival = &types.Proposal{Block: child, Round: p.Round, Sender: ctx.ID()}
		revival.Signature = ctx.Sign(revival.SigningPayload())
		f.revived[bestID] = true
		f.lastRevived = p.Round
	} else {
		if baseDelay < 0 || f.lastSeeded >= p.Round {
			return // Emit retries only perform genuine revivals
		}
		// No revivable branch yet: seed one by equivocating — a poisoned
		// sibling of the honest proposal competes for the round's votes.
		revival = poisonedSibling(ctx, p)
		f.lastSeeded = p.Round
	}
	// The revival competes with the round's regular proposal for honest
	// first-arrival votes: the second half of the cluster receives it
	// immediately (ahead of the regular block they would otherwise see
	// first), the first half a beat later. The branch lives or dies by the
	// receivers' own voting rules.
	if baseDelay < 0 {
		baseDelay = 0
	}
	n := ctx.N()
	for i := 0; i < n; i++ {
		to := types.ReplicaID(i)
		if to == ctx.ID() {
			emit(engine.Output{Kind: engine.Send, To: to, Msg: revival})
			continue
		}
		delay := baseDelay
		if !ctx.IsColluder(to) && !forkFirst(ctx, to, p.Round) {
			delay += equivocateLag
		}
		emit(engine.Output{Kind: engine.Send, To: to, Msg: revival, Delay: delay})
	}
}

// withholdUncontested starves uncontested rounds: the replica's own vote is
// held back until a second, competing proposal for the round is known, and
// released (through the rest of the chain, so double-voting colluders react
// to it) only then. Rounds led by honest replicas have a single proposal
// and — with enough colluders starving them — never reach quorum; the
// timeouts freeze locks, which is what keeps revived branches votable
// across round gaps (the Appendix C structure).
type withholdUncontested struct {
	competitors map[types.Round]map[types.BlockID]bool
	held        map[types.Round]engine.Output
	pending     []engine.Output
	maxRound    types.Round
}

func (*withholdUncontested) Name() string { return string(WithholdUncontested) }

func (w *withholdUncontested) noteProposal(p *types.Proposal) {
	if p == nil || p.Block == nil {
		return
	}
	m, ok := w.competitors[p.Round]
	if !ok {
		m = make(map[types.BlockID]bool, 2)
		w.competitors[p.Round] = m
	}
	m[p.Block.ID()] = true
	if len(m) == 2 {
		if vote, heldBack := w.held[p.Round]; heldBack {
			delete(w.held, p.Round)
			w.pending = append(w.pending, vote)
		}
	}
	if p.Round > w.maxRound {
		w.maxRound = p.Round
		if len(w.competitors) > 128 {
			for r := range w.competitors {
				if r+64 < w.maxRound {
					delete(w.competitors, r)
					delete(w.held, r)
				}
			}
		}
	}
}

func (w *withholdUncontested) ObserveInbound(ctx *Context, now time.Duration, from types.ReplicaID, msg types.Message) {
	if p, ok := unwrapEchoMsg(msg).(*types.Proposal); ok {
		w.noteProposal(p)
	}
}

func (w *withholdUncontested) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	switch m := out.Msg.(type) {
	case *types.Proposal:
		w.noteProposal(m)
	case *types.VoteMsg:
		if m.Vote.Voter == ctx.ID() && len(w.competitors[m.Vote.Round]) < 2 {
			if _, dup := w.held[m.Vote.Round]; !dup {
				w.held[m.Vote.Round] = out
			}
			return
		}
	}
	emit(out)
}

// Emit releases votes whose round became contested since they were held.
func (w *withholdUncontested) Emit(ctx *Context, now time.Duration, emit func(engine.Output)) {
	for _, out := range w.pending {
		emit(out)
	}
	w.pending = w.pending[:0]
}

// wrongAppHash replaces the state root in the replica's own strong-votes
// with a fabricated one and re-signs — the state-lying vote of the
// execute-before-vote model (the signing payload covers AppHash, so the lie
// needs the replica's real key and cannot be injected in transit). The lie is
// deterministic per (block, voter): colluders running the behavior all lie,
// but differently, so even a full coalition cannot hand any single fabricated
// root more than one vote. Votes without an AppHash (execution layer off)
// pass through untouched — there is no state to lie about.
type wrongAppHash struct{}

func (wrongAppHash) Name() string { return string(WrongAppHash) }

func (wrongAppHash) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	vm, ok := out.Msg.(*types.VoteMsg)
	if !ok || vm.Vote.Voter != ctx.ID() || !vm.Vote.HasAppHash() {
		emit(out)
		return
	}
	v := vm.Vote
	material := append([]byte("lieroot/"), v.Block[:]...)
	material = types.AppendUint32(material, uint32(v.Voter))
	v.AppHash = sha256.Sum256(material)
	v.Signature = ctx.Sign(v.SigningPayload())
	out.Msg = &types.VoteMsg{Vote: v}
	emit(out)
}

// --- injection behaviors ---

// corruptSigs flips a byte in the signature of every Every-th signed
// outbound message, on a copy (engines retain references to what they
// emitted).
type corruptSigs struct {
	every int
	n     int
}

func (*corruptSigs) Name() string { return string(CorruptSigs) }

func flipSig(sig []byte) []byte {
	if len(sig) == 0 {
		return []byte{0xff}
	}
	cp := append([]byte(nil), sig...)
	cp[len(cp)-1] ^= 0xff
	return cp
}

func (c *corruptSigs) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	switch m := out.Msg.(type) {
	case *types.Proposal:
		if c.tick() {
			cp := *m
			cp.Signature = flipSig(m.Signature)
			out.Msg = &cp
		}
	case *types.VoteMsg:
		if c.tick() {
			cp := *m
			cp.Vote.Signature = flipSig(m.Vote.Signature)
			out.Msg = &cp
		}
	case *types.Timeout:
		if c.tick() {
			cp := *m
			cp.Signature = flipSig(m.Signature)
			out.Msg = &cp
		}
	}
	emit(out)
}

func (c *corruptSigs) tick() bool {
	c.n++
	return c.n%c.every == 0
}

// garbage emits a structurally broken message alongside every Every-th
// outbound transmission: receivers must reject it without crashing or
// corrupting state.
type garbage struct {
	every int
	n     int
}

func (*garbage) Name() string { return string(Garbage) }

func (g *garbage) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	emit(out)
	g.n++
	if g.n%g.every != 0 {
		return
	}
	rng := ctx.Rand()
	var junk types.Message
	var id types.BlockID
	rng.Read(id[:])
	round := types.Round(rng.Intn(64))
	switch rng.Intn(4) {
	case 0:
		junk = &types.Proposal{Block: nil, Round: round, Sender: ctx.ID(), Signature: []byte{1}}
	case 1:
		junk = &types.VoteMsg{Vote: types.Vote{
			Block: id, Round: round, Height: types.Height(rng.Intn(64)),
			Voter: ctx.ID(), Signature: []byte("garbage"),
		}}
	case 2:
		// Duplicate voters make the certificate structurally invalid.
		junk = &types.Timeout{Round: round, Sender: ctx.ID(), Signature: []byte{2},
			HighQC: &types.QC{Block: id, Round: round, Votes: []types.Vote{
				{Block: id, Round: round, Voter: 0}, {Block: id, Round: round, Voter: 0},
				{Block: id, Round: round, Voter: 0},
			}}}
	default:
		junk = &types.Echo{Inner: nil, Relayer: ctx.ID()}
	}
	emit(engine.Output{Kind: engine.Broadcast, Msg: junk})
}

// replayStale records traffic (inbound and own outbound) and rebroadcasts a
// random recorded message alongside every Every-th outbound — stale
// proposals and timeouts carrying long-superseded certificates that
// receivers must reject or absorb idempotently.
type replayStale struct {
	every int
	n     int
	ring  []types.Message
	next  int
}

func (*replayStale) Name() string { return string(ReplayStale) }

const replayRingSize = 64

func (r *replayStale) record(msg types.Message) {
	switch msg.(type) {
	case *types.Proposal, *types.Timeout, *types.VoteMsg:
	default:
		return
	}
	if len(r.ring) < replayRingSize {
		r.ring = append(r.ring, msg)
		return
	}
	r.ring[r.next] = msg
	r.next = (r.next + 1) % replayRingSize
}

func (r *replayStale) ObserveInbound(ctx *Context, now time.Duration, from types.ReplicaID, msg types.Message) {
	r.record(msg)
}

func (r *replayStale) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	emit(out)
	r.record(out.Msg)
	r.n++
	if r.n%r.every != 0 || len(r.ring) == 0 {
		return
	}
	emit(engine.Output{Kind: engine.Broadcast, Msg: r.ring[ctx.Rand().Intn(len(r.ring))]})
}

// spamOffset places spam rounds far ahead of any round an honest replica is
// in; spamBurst is how many distinct-round timeouts each injection
// emits, so the claimed rounds grow without bound over a run.
const (
	spamOffset = 64
	spamBurst  = 4
)

// timeoutSpam broadcasts bursts of validly signed far-future timeouts
// alongside every Every-th outbound. Each claims a fresh, ever-higher round
// and carries the genesis certificate as its high QC — a truthful HighRound 0
// claim, so signature and structure checks all pass. The damage model is
// memory: without the per-peer cap a pacemaker's per-round timeout maps grow
// by one entry per spam message, forever.
type timeoutSpam struct {
	every int
	n     int
	high  types.Round // highest round observed in traffic
	next  types.Round // next spam round to claim
}

func (*timeoutSpam) Name() string { return string(TimeoutSpam) }

func (t *timeoutSpam) note(msg types.Message) {
	switch m := msg.(type) {
	case *types.Proposal:
		if m.Round > t.high {
			t.high = m.Round
		}
	case *types.VoteMsg:
		if m.Vote.Round > t.high {
			t.high = m.Vote.Round
		}
	case *types.Timeout:
		if m.Round > t.high {
			t.high = m.Round
		}
	}
}

func (t *timeoutSpam) ObserveInbound(ctx *Context, now time.Duration, from types.ReplicaID, msg types.Message) {
	t.note(msg)
}

func (t *timeoutSpam) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	emit(out)
	t.note(out.Msg)
	t.n++
	if t.n%t.every != 0 {
		return
	}
	gqc := types.NewGenesisQC(types.Genesis().ID())
	if base := t.high + spamOffset; t.next < base {
		t.next = base
	}
	for i := 0; i < spamBurst; i++ {
		spam := &types.Timeout{Round: t.next, HighQC: gqc, HighRound: 0, Sender: ctx.ID()}
		spam.Signature = ctx.Sign(spam.SigningPayload())
		t.next++
		emit(engine.Output{Kind: engine.Broadcast, Msg: spam})
	}
}

// --- timing behaviors ---

type dropMsgs struct{ p float64 }

func (dropMsgs) Name() string { return string(Drop) }

func (d dropMsgs) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	if ctx.Rand().Float64() < d.p {
		return
	}
	emit(out)
}

type delayMsgs struct{ d, jitter time.Duration }

func (delayMsgs) Name() string { return string(Delay) }

func (d delayMsgs) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	extra := d.d
	if d.jitter > 0 {
		extra += time.Duration(ctx.Rand().Int63n(int64(d.jitter)))
	}
	out.Delay += extra
	emit(out)
}

type duplicateMsgs struct{ p float64 }

func (duplicateMsgs) Name() string { return string(Duplicate) }

func (d duplicateMsgs) Apply(ctx *Context, now time.Duration, out engine.Output, emit func(engine.Output)) {
	emit(out)
	if ctx.Rand().Float64() < d.p {
		emit(out)
	}
}
