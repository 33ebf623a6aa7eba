package core

import (
	"math/bits"

	"repro/internal/blockstore"
	"repro/internal/types"
)

// record is one block's strength bookkeeping, kept on the block's node in the
// store (see Tracker). The endorser set is inline: a presence bitset over
// replica IDs and a flat per-replica key array in one backing array, so
// membership, key updates and counting are array indexing and popcount — no
// hashing on the per-vote path.
type record struct {
	words []uint64 // presence bitset, bit v set ⇔ replica v endorses
	keys  []uint64 // minimum coverage/threshold key per replica, valid where the bit is set
	count int      // number of set bits, maintained incrementally

	// strength is the highest x such that the block is x-strong committed
	// here, -1 while it is not strong committed at all (not even f-strong).
	strength int
	// processed is the number of votes already unpacked from a QC for the
	// block, so re-deliveries and smaller duplicate QCs are skipped cheaply.
	processed int
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

// add records voter with the given key, keeping the minimum key seen, and
// reports whether the record improved (new voter, or a strictly lower key).
// n sizes the set on first use.
func (r *record) add(voter types.ReplicaID, key uint64, n int) bool {
	v := int(voter)
	if v >= len(r.keys) {
		// The first endorsement, or an out-of-range ID, which cannot occur
		// with a well-formed cluster: grow rather than panic so malformed
		// input stays merely ineffective.
		r.grow(max(v+1, n))
	}
	w, m := v>>6, uint64(1)<<(v&63)
	if r.words[w]&m != 0 {
		if r.keys[v] <= key {
			return false
		}
		r.keys[v] = key
		return true
	}
	r.words[w] |= m
	r.keys[v] = key
	r.count++
	return true
}

func (r *record) grow(n int) {
	nw := (n + 63) / 64
	buf := make([]uint64, nw+n)
	copy(buf, r.words)
	copy(buf[nw:], r.keys)
	r.words, r.keys = buf[:nw:nw], buf[nw:]
}

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
	for wi, w := range r.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if key := r.keys[base+b]; key < k || key == unconditional {
				n++
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
	certified := t.store.Node(qc.Block)
	if certified == nil {
		return // nothing is remembered: the QC counts once its block is here
	}
	rec := recordOf(certified)
	if len(qc.Votes) <= rec.processed {
		return // already unpacked an equal or larger QC for this block
	}
	rec.processed = len(qc.Votes)
	for i := range qc.Votes {
		v := &qc.Votes[i]
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
	// Detach the scratch before iterating: OnStrength is a public callback,
	// and if it feeds another QC back into the tracker the nested OnQC must
	// not clobber the worklist we are still walking. The nested call simply
	// allocates fresh scratch; the steady (non-reentrant) path stays
	// allocation-free because the buffer is reattached afterwards.
	changed := t.changed
	t.changed = nil
	for _, n := range changed {
		t.reevaluateAround(n)
	}
	clear(changed)
	t.changed = changed[:0]
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
func (t *Tracker) Endorsers(id types.BlockID) int {
	n := t.store.Node(id)
	if n != nil && t.cfg.Mode == ModeHeight {
		return recordAt(n).countBelow(uint64(n.Block().Height))
	}
	return recordAt(n).size()
}

// EndorsersAt returns the number of voters k-endorsing the block for
// threshold key k (ModeHeight only; in ModeRound every stored entry already
// passed its check, so the threshold is ignored except for direct votes).
func (t *Tracker) EndorsersAt(id types.BlockID, k uint64) int {
	return recordAt(t.store.Node(id)).countBelow(k)
}

// Strength returns the highest x such that the block is x-strong committed
// at this replica, or -1 if it is not strong committed at all, or is no
// longer stored.
func (t *Tracker) Strength(id types.BlockID) int {
	if r := recordAt(t.store.Node(id)); r != nil {
		return r.strength
	}
	return -1
}

// reevaluateAround re-runs the strong 3-chain rule for every 3-chain that
// includes n (as first, middle, or last element).
func (t *Tracker) reevaluateAround(n *blockstore.Node) {
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
	// and raise strength levels where a higher x is now supported.
	for _, c := range cands {
		var x int
		if t.cfg.Mode == ModeHeight {
			x = t.evaluateHeight(c)
		} else {
			x = t.evaluateRound(c)
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
