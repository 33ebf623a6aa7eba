package core

import (
	"math/bits"
	"slices"

	"repro/internal/blockstore"
	"repro/internal/types"
)

// record is one block's strength bookkeeping, kept on the block's node in the
// store (see Tracker). The endorser set is inline, in one backing array: a
// presence bitset over replica IDs, then a short list of key classes, each a
// key followed by a member bitset. Every present voter is a member of exactly
// one class, the one holding its minimum coverage/threshold key. Keys repeat
// across voters — nearly every voter carries marker 0, and after a partition
// the minority side carries its fork round — so a block has one to three
// classes. Membership, key updates and counting are word operations and
// popcount, with no hashing and no per-replica key.
type record struct {
	set   []uint64 // presence (nw words), then per class: its key, its members (nw words)
	nw    int      // words per bitset
	count int      // number of present voters, maintained incrementally

	// strength is the highest x such that the block is x-strong committed
	// here, -1 while it is not strong committed at all (not even f-strong).
	strength int
	// processed is the number of votes already unpacked from a QC for the
	// block, so re-deliveries and smaller duplicate QCs are skipped cheaply.
	processed int
	// pass is the last re-evaluation pass that evaluated the block as a
	// 3-chain candidate (see Tracker.reevaluateAround).
	pass uint64
}

// recordAt returns the node's record, or nil when it has none or n is nil. A
// store carries one tracker's records; another owner's is a wiring bug and
// panics here.
func recordAt(n *blockstore.Node) *record {
	if n == nil || n.Record == nil {
		return nil
	}
	return n.Record.(*record)
}

// recordOf returns the node's record, creating it on first use.
func recordOf(n *blockstore.Node) *record {
	if r := recordAt(n); r != nil {
		return r
	}
	r := &record{strength: -1}
	n.Record = r
	return r
}

// classes returns the number of key classes.
func (r *record) classes() int {
	if r.nw == 0 {
		return 0
	}
	return (len(r.set) - r.nw) / (r.nw + 1)
}

// class returns class i: its key, then its member bitset.
func (r *record) class(i int) []uint64 {
	at := r.nw + i*(r.nw+1)
	return r.set[at : at+r.nw+1]
}

// classOf returns the class holding key, or -1.
func (r *record) classOf(key uint64) int {
	for i := range r.classes() {
		if r.class(i)[0] == key {
			return i
		}
	}
	return -1
}

// reserve makes room for nw-word bitsets and extra classes beyond the current
// ones, keeping what is there, in at most one allocation.
func (r *record) reserve(nw, extra int) {
	nw = max(nw, r.nw)
	k := r.classes()
	need := nw + (k+extra)*(nw+1)
	if nw == r.nw && need <= cap(r.set) {
		return
	}
	buf := make([]uint64, nw+k*(nw+1), need)
	copy(buf, r.set[:r.nw])
	for i := range k {
		c := r.class(i)
		at := nw + i*(nw+1)
		buf[at] = c[0]
		copy(buf[at+1:], c[1:])
	}
	r.set, r.nw = buf, nw
}

// classFor returns the class holding key, appending an empty one if there is
// none; the room for it must be reserved when the caller counts allocations.
func (r *record) classFor(key uint64) int {
	if i := r.classOf(key); i >= 0 {
		return i
	}
	r.reserve(r.nw, 1)
	i := r.classes()
	r.set = r.set[:len(r.set)+r.nw+1]
	c := r.class(i)
	c[0] = key
	clear(c[1:])
	return i
}

// dropEmpty removes every class without members, moving the last class into
// the freed place (class order carries no meaning).
func (r *record) dropEmpty() {
	for i := r.classes() - 1; i >= 0; i-- {
		if slices.ContainsFunc(r.class(i)[1:], nonzero) {
			continue
		}
		last := r.classes() - 1
		copy(r.class(i), r.class(last))
		r.set = r.set[:len(r.set)-r.nw-1]
	}
}

// add records voter with the given key, keeping the minimum key seen, and
// reports whether the record improved (new voter, or a strictly lower key).
// n sizes the set on first use.
func (r *record) add(voter types.ReplicaID, key uint64, n int) bool {
	v := int(voter)
	if v >= r.nw<<6 {
		// The first endorsement, or an out-of-range ID, which cannot occur
		// with a well-formed cluster: grow rather than panic so malformed
		// input stays merely ineffective.
		r.reserve((max(v+1, n)+63)/64, 1)
	}
	w, m := v>>6, uint64(1)<<(v&63)
	if r.covered(w, key)&m != 0 {
		return false
	}
	r.credit(w, m, key)
	return true
}

// covered returns word w of the set of voters present with a key at or below
// key: crediting them with key would not improve the record. A record with a
// class is sized for the whole committee, so word w is in range.
func (r *record) covered(w int, key uint64) uint64 {
	c := uint64(0)
	for i := range r.classes() {
		if cl := r.class(i); cl[0] <= key {
			c |= cl[1+w]
		}
	}
	return c
}

// credit records the voters in word w of add with key, moving those present
// with a higher key out of their class. None of them may be covered at key,
// and the record must be sized for word w. A caller that counts allocations
// reserves the room for key's class first.
func (r *record) credit(w int, add, key uint64) {
	if moved := add & r.set[w]; moved != 0 {
		for i := range r.classes() {
			r.class(i)[1+w] &^= moved
		}
		r.dropEmpty()
	}
	r.count += bits.OnesCount64(add &^ r.set[w])
	r.set[w] |= add
	r.class(r.classFor(key))[1+w] |= add
}

func nonzero(w uint64) bool { return w != 0 }

// size returns the number of endorsers regardless of keys.
func (r *record) size() int {
	if r == nil {
		return 0
	}
	return r.count
}

// countBelow returns the number of endorsers whose key permits k-endorsement
// at threshold k (key < k, or the unconditional key from a direct vote).
func (r *record) countBelow(k uint64) int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.classes() {
		c := r.class(i)
		if key := c[0]; key < k || key == unconditional {
			for _, w := range c[1:] {
				n += bits.OnesCount64(w)
			}
		}
	}
	return n
}

// Mode selects which chain coordinate markers are compared against.
type Mode int

const (
	// ModeRound is SFT-DiemBFT (Section 3.2): a strong-vote for B' endorses
	// an ancestor B iff marker < B.round (or B.round ∈ I).
	ModeRound Mode = iota + 1
	// ModeHeight is SFT-Streamlet (Appendix D): markers carry heights and a
	// vote k-endorses an ancestor iff marker < k, where k is the height of
	// the block being strong-committed (the middle block of the 3-chain).
	ModeHeight
)

// unconditional is the stored key for direct votes, which endorse their own
// block regardless of marker (the "B = B'" clause of the endorsement
// definition).
const unconditional = uint64(0)

// Config parameterizes a Tracker.
type Config struct {
	// N and F are the replica count and the worst-case fault bound
	// (N = 3F+1).
	N, F int
	// Mode selects round-keyed (DiemBFT) or height-keyed (Streamlet)
	// endorsements.
	Mode Mode
	// Naive, when set, counts every indirect vote as an endorsement
	// regardless of markers — the UNSAFE strawman of Appendix C, kept so
	// the counter-example can be demonstrated.
	Naive bool
	// Horizon bounds how many ancestors one QC's votes are walked over.
	// 0 means unlimited. Experiments use ~2N+16 so that Theorem 2/3
	// accumulation (n+2 rounds) is never clipped while long chains stay
	// cheap — the paper's "marginal bookkeeping overhead".
	Horizon int
	// OnStrength, if non-nil, is invoked every time a block's strong-commit
	// level rises, with the new level x (the commit tolerates x Byzantine
	// faults). It fires for the directly committed block and for every
	// ancestor whose level rises with it.
	OnStrength func(b *types.Block, x int)
}

// Tracker performs the SFT endorsement bookkeeping for one replica. Feed it
// every QC the replica observes (block justify QCs, locally formed QCs,
// QCs inside timeouts); it maintains endorser sets per block and detects
// strong commits by the strong 3-chain rule.
//
// The per-block state (endorser set, strength, unpacked-vote count) lives on
// the block tree, one record per stored node, and the tracker holds none of
// its own: it looks the certified block's node up once per certificate and
// follows parent and child pointers from there. Two conditions keep that
// safe. Records are reached only through stored nodes — every query starts
// at Store.Node and every walk follows links the store maintains — so there
// is no state for a block the store does not hold. And Store.PruneBelow
// severs what it removes, links and record, so state dies with its block
// and a handle that outlives the prune retains nothing.
//
// Not safe for concurrent use; the owning engine serializes events.
type Tracker struct {
	store *blockstore.Store
	cfg   Config

	// changed and candidates are reused per-OnQC scratch buffers for the
	// grew-this-QC block set and the 3-chain re-evaluation worklist. They are
	// cleared after each use, so between calls they hold no node.
	changed    []*blockstore.Node
	candidates []*blockstore.Node
	// pass numbers re-evaluation passes, one per OnQC or direct vote, so a
	// pass evaluates each candidate once (record.pass).
	pass uint64

	// The word-parallel unpack's scratch: the certificate's voters (seen),
	// and its votes grouped by marker, group g's key in markers[g] and its
	// voter bitset in groups[g*len(seen):]. Reused across calls; it holds no
	// node.
	seen    []uint64
	markers []uint64
	groups  []uint64
}

// NewTracker creates a tracker over the replica's block store.
func NewTracker(store *blockstore.Store, cfg Config) *Tracker {
	if cfg.Mode == 0 {
		cfg.Mode = ModeRound
	}
	return &Tracker{store: store, cfg: cfg}
}

// OnQC unpacks a (strong-)QC into endorsements and re-evaluates the strong
// 3-chain rule around every block whose endorser set grew. The certified
// block must already be in the store.
func (t *Tracker) OnQC(qc *types.QC) {
	certified := t.store.Node(qc.Height, qc.Block)
	if certified == nil {
		return // nothing is remembered: the QC counts once its block is here
	}
	rec := recordOf(certified)
	if len(qc.Votes) <= rec.processed {
		return // already unpacked an equal or larger QC for this block
	}
	rec.processed = len(qc.Votes)
	if t.groupVotes(qc.Votes) {
		t.unpackGroups(certified)
	} else {
		t.unpackVotes(certified, rec, qc.Votes)
	}
	// Detach the scratch before iterating: OnStrength is a public callback,
	// and if it feeds another QC back into the tracker the nested OnQC must
	// not clobber the worklist we are still walking. The nested call simply
	// allocates fresh scratch; the steady (non-reentrant) path stays
	// allocation-free because the buffer is reattached afterwards.
	changed := t.changed
	t.changed = nil
	pass := t.nextPass()
	for _, n := range changed {
		t.reevaluateAround(n, pass)
	}
	clear(changed)
	t.changed = changed[:0]
}

// unpackVotes credits a certificate's votes one at a time: a vote credits the
// certified block, then walks its ancestors applying the marker or interval
// rule. It serves every certificate the word-parallel path does not.
func (t *Tracker) unpackVotes(certified *blockstore.Node, rec *record, votes []types.Vote) {
	for i := range votes {
		v := &votes[i]
		// In plain marker mode (the common case) the stored key doubles as
		// a COVERAGE key: an entry with key m at block B means this voter's
		// endorsements with marker m have already been propagated to B's
		// whole ancestor chain (to the horizon). A later walk carrying a
		// marker >= m can therefore stop at B: it cannot add anything
		// deeper. This makes steady-state bookkeeping O(1) per vote — the
		// paper's "marginal overhead". The optimization is disabled for
		// interval votes (gapped sets do not give downward coverage) and
		// in ModeHeight (keys are threshold inputs there).
		markerCoverage := t.cfg.Mode == ModeRound && !t.cfg.Naive && !v.HasIntervals
		directKey := unconditional
		if markerCoverage {
			directKey = uint64(v.Marker)
		}
		// Direct vote: endorses its own block unconditionally.
		if rec.add(v.Voter, directKey, t.cfg.N) {
			t.noteChanged(certified)
		} else if markerCoverage {
			continue // already covered at or below this marker
		}
		// Indirect: walk ancestors applying the marker/interval rule.
		depth := 0
		for anc := certified.Parent(); anc != nil; anc = anc.Parent() {
			depth++
			if t.cfg.Horizon > 0 && depth > t.cfg.Horizon {
				break
			}
			b := anc.Block()
			if b.IsGenesis() {
				break
			}
			key, ok := t.voteKey(v, b)
			if !ok {
				// Marker mode and marker >= round: deeper ancestors have
				// strictly smaller rounds, so nothing further is endorsed.
				// Interval mode cannot early-exit (sets may have gaps).
				if v.HasIntervals {
					continue
				}
				break
			}
			if markerCoverage {
				key = uint64(v.Marker)
			}
			if recordOf(anc).add(v.Voter, key, t.cfg.N) {
				t.noteChanged(anc)
			} else if markerCoverage {
				// Already endorsed with an equal-or-lower coverage key:
				// everything deeper is covered too.
				break
			}
		}
	}
}

// groupVotes groups the votes by marker into the word-parallel scratch and
// reports whether the certificate has the shape that path serves: round-keyed
// markers, not naive, no interval vote, and every voter in range and once.
func (t *Tracker) groupVotes(votes []types.Vote) bool {
	if t.cfg.Mode != ModeRound || t.cfg.Naive {
		return false
	}
	nw := (t.cfg.N + 63) / 64
	t.seen = appendZeros(t.seen[:0], nw)
	t.markers, t.groups = t.markers[:0], t.groups[:0]
	for i := range votes {
		v := &votes[i]
		if v.HasIntervals || int(v.Voter) >= t.cfg.N {
			return false
		}
		w, m := v.Voter>>6, uint64(1)<<(v.Voter&63)
		if t.seen[w]&m != 0 {
			return false
		}
		t.seen[w] |= m
		g := slices.Index(t.markers, uint64(v.Marker))
		if g < 0 {
			g = len(t.markers)
			t.markers = append(t.markers, uint64(v.Marker))
			t.groups = appendZeros(t.groups, nw)
		}
		t.groups[g*nw+int(w)] |= m
	}
	return true
}

// appendZeros appends n zero words to s, reusing its spare capacity.
func appendZeros(s []uint64, n int) []uint64 {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// unpackGroups is the word-parallel unpack of grouped votes with the same
// effect as unpackVotes: it walks the ancestors once for all groups together.
// At each block a group keeps only the voters the block's record does not
// already cover at or below the group's marker, credits them, and carries
// them on; a group stops once it is empty or its marker reaches the
// ancestor's round. Each vote's walk changes a prefix of the chain, so the
// changed blocks are noted in depth order, as unpackVotes notes them.
func (t *Tracker) unpackGroups(n *blockstore.Node) {
	nw := len(t.seen)
	live := len(t.markers)
	for depth := 0; ; {
		rec := recordOf(n)
		fresh := 0
		live = t.keepGroups(live, func(key uint64, s []uint64) bool {
			for w := range s {
				s[w] &^= rec.covered(w, key)
			}
			if !slices.ContainsFunc(s, nonzero) {
				return false
			}
			if rec.classOf(key) < 0 {
				fresh++
			}
			return true
		})
		if live == 0 {
			return
		}
		rec.reserve(nw, fresh)
		for g := range live {
			for w, add := range t.groups[g*nw:][:nw] {
				if add != 0 {
					rec.credit(w, add, t.markers[g])
				}
			}
		}
		t.changed = append(t.changed, n) // each block once: no dedup needed

		depth++
		if n = n.Parent(); n == nil || t.cfg.Horizon > 0 && depth > t.cfg.Horizon || n.Block().IsGenesis() {
			return
		}
		// Deeper ancestors have strictly smaller rounds: a marker at or
		// above this one's round endorses nothing further.
		round := uint64(n.Block().Round)
		live = t.keepGroups(live, func(key uint64, _ []uint64) bool { return key < round })
	}
}

// keepGroups keeps the first live groups for which keep holds, moving the
// last kept group into a dropped one's place, and returns how many remain.
func (t *Tracker) keepGroups(live int, keep func(key uint64, s []uint64) bool) int {
	nw := len(t.seen)
	for g := live - 1; g >= 0; g-- {
		if keep(t.markers[g], t.groups[g*nw:][:nw]) {
			continue
		}
		live--
		t.markers[g] = t.markers[live]
		copy(t.groups[g*nw:][:nw], t.groups[live*nw:][:nw])
	}
	return live
}

// noteChanged appends n to the changed worklist unless already present. The
// list stays short (bounded by the walk horizon), keeping the linear dedup
// cheaper than a per-OnQC map.
func (t *Tracker) noteChanged(n *blockstore.Node) {
	for _, c := range t.changed {
		if c == n {
			return
		}
	}
	t.changed = append(t.changed, n)
}

// voteKey returns the key to store for v's endorsement of ancestor anc, and
// whether the vote endorses anc at all.
func (t *Tracker) voteKey(v *types.Vote, anc *types.Block) (uint64, bool) {
	if t.cfg.Naive {
		// Appendix C strawman: any indirect vote counts.
		return unconditional, true
	}
	switch t.cfg.Mode {
	case ModeHeight:
		// Streamlet: record the height marker; whether it endorses depends
		// on the commit threshold k, resolved at evaluation time. A marker
		// at or above the ancestor's own height can still k-endorse for a
		// larger k, so everything is recorded.
		return uint64(v.Marker), true
	default:
		// DiemBFT: key is the ancestor's round; endorsement is immediate.
		if v.HasIntervals {
			if v.Intervals.Contains(uint64(anc.Round)) {
				return unconditional, true
			}
			return 0, false
		}
		if v.Marker < anc.Round {
			return unconditional, true
		}
		return 0, false
	}
}

// Endorsers returns the number of endorsers of the block. In ModeRound this
// is the paper's |endorsers| directly; in ModeHeight it is the count of
// voters whose marker permits k-endorsement at the block's own height.
func (t *Tracker) Endorsers(b *types.Block) int {
	n := t.store.Node(b.Height, b.ID())
	if n != nil && t.cfg.Mode == ModeHeight {
		return recordAt(n).countBelow(uint64(n.Block().Height))
	}
	return recordAt(n).size()
}

// EndorsersAt returns the number of voters k-endorsing the block for
// threshold key k (ModeHeight only; in ModeRound every stored entry already
// passed its check, so the threshold is ignored except for direct votes).
func (t *Tracker) EndorsersAt(b *types.Block, k uint64) int {
	return recordAt(t.store.Node(b.Height, b.ID())).countBelow(k)
}

// Strength returns the highest x such that the block is x-strong committed
// at this replica, or -1 if it is not strong committed at all, or is no
// longer stored.
func (t *Tracker) Strength(b *types.Block) int {
	if r := recordAt(t.store.Node(b.Height, b.ID())); r != nil {
		return r.strength
	}
	return -1
}

// nextPass opens a re-evaluation pass: within it reevaluateAround evaluates
// each candidate once.
func (t *Tracker) nextPass() uint64 {
	t.pass++
	return t.pass
}

// reevaluateAround re-runs the strong 3-chain rule for every 3-chain that
// includes n (as first, middle, or last element). Within one pass a
// candidate is evaluated once, at its first occurrence: no count changes
// while a pass re-evaluates, so a repeat finds nothing new. An OnStrength
// callback that feeds a certificate back opens a pass of its own.
func (t *Tracker) reevaluateAround(n *blockstore.Node, pass uint64) {
	// n as the start/middle/end of a 3-chain maps to candidate commit
	// blocks: in ModeRound the committed block is the FIRST of the 3-chain
	// (B_k, B_k+1, B_k+2); in ModeHeight it is the MIDDLE (B_k-1, B_k,
	// B_k+1). Evaluate every candidate whose window could include n.
	cands := append(t.candidates[:0], n)
	t.candidates = nil // detach; see OnQC's reentrancy note
	if p := n.Parent(); p != nil {
		cands = append(cands, p)
		if gp := p.Parent(); gp != nil {
			cands = append(cands, gp)
		}
	}
	// In ModeHeight the middle block can be a grandchild's parent; the
	// child's own evaluation covers it via its window.
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		cands = append(cands, c)
	}
	// Apply the strong commit rule with each candidate as the committed block
	// and raise strength levels where a higher x is now supported. A block
	// without a record has no endorser, so it commits nothing.
	for _, c := range cands {
		rec := recordAt(c)
		if rec == nil || rec.pass == pass {
			continue
		}
		rec.pass = pass
		var x int
		if t.cfg.Mode == ModeHeight {
			x = t.evaluateHeight(c)
		} else if rec.count-t.cfg.F-1 > max(rec.strength, t.cfg.F-1) {
			x = t.evaluateRound(c) // at most count-f-1: worth it only if that is a rise
		} else {
			continue
		}
		if x >= t.cfg.F { // below f it is not even a regular commit yet
			t.raise(c, x)
		}
	}
	clear(cands)
	t.candidates = cands[:0]
}

// evaluateRound computes the best x for SFT-DiemBFT's strong 3-chain rule:
// candidate B_k plus chain successors with rounds r+1 and r+2, each with at
// least x+f+1 endorsers.
func (t *Tracker) evaluateRound(bk *blockstore.Node) int {
	best, round := -1, bk.Block().Round
	for b1 := bk.FirstChild(); b1 != nil; b1 = b1.NextSibling() {
		if b1.Block().Round != round+1 {
			continue
		}
		for b2 := b1.FirstChild(); b2 != nil; b2 = b2.NextSibling() {
			if b2.Block().Round != round+2 {
				continue
			}
			e := min(recordAt(bk).size(), recordAt(b1).size(), recordAt(b2).size())
			best = max(best, e-t.cfg.F-1)
		}
	}
	return best
}

// evaluateHeight computes the best x for SFT-Streamlet's rule: candidate
// B_k (height k) with neighbors B_k-1 and B_k+1 forming consecutive rounds,
// each with at least x+f+1 k-endorsers.
func (t *Tracker) evaluateHeight(bk *blockstore.Node) int {
	prev, round := bk.Parent(), bk.Block().Round
	if prev == nil || round != prev.Block().Round+1 {
		return -1
	}
	k := uint64(bk.Block().Height)
	best := -1
	for next := bk.FirstChild(); next != nil; next = next.NextSibling() {
		if next.Block().Round != round+1 {
			continue
		}
		e := min(recordAt(prev).countBelow(k), recordAt(bk).countBelow(k), recordAt(next).countBelow(k))
		best = max(best, e-t.cfg.F-1)
	}
	return best
}

// raise lifts the strength of n's block to at least x and propagates to
// ancestors ("commits a block B_k and all its ancestors"), emitting
// OnStrength for every block whose level rises.
func (t *Tracker) raise(n *blockstore.Node, x int) {
	for ; n != nil && !n.Block().IsGenesis(); n = n.Parent() {
		rec := recordOf(n)
		if rec.strength >= x {
			return // ancestors below are already at or above x
		}
		rec.strength = x
		if t.cfg.OnStrength != nil {
			t.cfg.OnStrength(n.Block(), x)
		}
	}
}

// Restore rebuilds endorsement state by re-unpacking recovered certificates
// in order. The caller typically mutes its OnStrength callback during
// recovery (levels reached pre-crash are being reinstated, not newly
// observed); the blocks the QCs certify must already be back in the store.
func (t *Tracker) Restore(qcs []*types.QC) {
	for _, qc := range qcs {
		if qc != nil {
			t.OnQC(qc)
		}
	}
}
