package core

import (
	"math/bits"

	"repro/internal/blockstore"
	"repro/internal/types"
)

// endorserSet is one block's endorser bookkeeping: a presence bitset over
// replica IDs plus a flat per-replica key array, replacing the former
// map[ReplicaID]uint64 inner maps. Membership, key updates, and counting are
// all plain array indexing and popcount — no hashing on the per-vote path.
type endorserSet struct {
	words []uint64 // presence bitset, bit v set ⇔ replica v endorses
	keys  []uint64 // minimum coverage/threshold key per replica, valid where the bit is set
	count int      // number of set bits, maintained incrementally
}

func newEndorserSet(n int) *endorserSet {
	return &endorserSet{
		words: make([]uint64, (n+63)/64),
		keys:  make([]uint64, n),
	}
}

// add records voter with the given key, keeping the minimum key seen, and
// reports whether the record improved (new voter, or a strictly lower key).
func (s *endorserSet) add(voter types.ReplicaID, key uint64) bool {
	v := int(voter)
	if v >= len(s.keys) {
		// Out-of-range IDs cannot occur with a well-formed cluster; grow
		// rather than panic so malformed input stays merely ineffective.
		s.grow(v + 1)
	}
	w, m := v>>6, uint64(1)<<(v&63)
	if s.words[w]&m != 0 {
		if s.keys[v] <= key {
			return false
		}
		s.keys[v] = key
		return true
	}
	s.words[w] |= m
	s.keys[v] = key
	s.count++
	return true
}

func (s *endorserSet) grow(n int) {
	words := make([]uint64, (n+63)/64)
	copy(words, s.words)
	s.words = words
	keys := make([]uint64, n)
	copy(keys, s.keys)
	s.keys = keys
}

// size returns the number of endorsers regardless of keys.
func (s *endorserSet) size() int {
	if s == nil {
		return 0
	}
	return s.count
}

// countBelow returns the number of endorsers whose key permits k-endorsement
// at threshold k (key < k, or the unconditional key from a direct vote).
func (s *endorserSet) countBelow(k uint64) int {
	if s == nil {
		return 0
	}
	n := 0
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if key := s.keys[base+b]; key < k || key == unconditional {
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
// Not safe for concurrent use; the owning engine serializes events.
type Tracker struct {
	store *blockstore.Store
	cfg   Config

	// endorsed[b] = per-voter endorsement keys for block b (round or height
	// per mode); unconditional (0) for direct votes. In ModeRound the stored
	// key doubles as the marker-coverage key (see OnQC). Inner sets are flat
	// bitset+array structures, not maps — see endorserSet.
	endorsed map[types.BlockID]*endorserSet

	// strength[b] = highest x such that b is x-strong committed here.
	// Missing means not strong committed at all (not even f-strong).
	strength map[types.BlockID]int

	// processed[b] = number of votes already unpacked from a QC for b, so
	// re-deliveries and smaller duplicate QCs are skipped cheaply.
	processed map[types.BlockID]int

	// changed and candidates are reused per-OnQC scratch buffers for the
	// grew-this-QC block set and the 3-chain re-evaluation worklist.
	changed    []*types.Block
	candidates []*types.Block
}

// NewTracker creates a tracker over the replica's block store.
func NewTracker(store *blockstore.Store, cfg Config) *Tracker {
	if cfg.Mode == 0 {
		cfg.Mode = ModeRound
	}
	return &Tracker{
		store:     store,
		cfg:       cfg,
		endorsed:  make(map[types.BlockID]*endorserSet),
		strength:  make(map[types.BlockID]int),
		processed: make(map[types.BlockID]int),
	}
}

// OnQC unpacks a (strong-)QC into endorsements and re-evaluates the strong
// 3-chain rule around every block whose endorser set grew. The certified
// block must already be in the store.
func (t *Tracker) OnQC(qc *types.QC) {
	if len(qc.Votes) <= t.processed[qc.Block] {
		return // already unpacked an equal or larger QC for this block
	}
	certified := t.store.Block(qc.Block)
	if certified == nil {
		return // nothing is remembered: the QC counts once its block is here
	}
	t.processed[qc.Block] = len(qc.Votes)
	t.changed = t.changed[:0]
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
		if t.addEndorsement(qc.Block, v.Voter, directKey) {
			t.noteChanged(certified)
		} else if markerCoverage {
			continue // already covered at or below this marker
		}
		// Indirect: walk ancestors applying the marker/interval rule.
		depth := 0
		t.store.WalkAncestors(qc.Block, func(anc *types.Block) bool {
			depth++
			if t.cfg.Horizon > 0 && depth > t.cfg.Horizon {
				return false
			}
			if anc.IsGenesis() {
				return false
			}
			key, ok := t.voteKey(v, anc)
			if !ok {
				// Marker mode and marker >= round: deeper ancestors have
				// strictly smaller rounds, so nothing further is endorsed.
				// Interval mode cannot early-exit (sets may have gaps).
				return v.HasIntervals
			}
			if markerCoverage {
				key = uint64(v.Marker)
			}
			if t.addEndorsement(anc.ID(), v.Voter, key) {
				t.noteChanged(anc)
				return true
			}
			// Already endorsed with an equal-or-lower coverage key:
			// everything deeper is covered too.
			return !markerCoverage
		})
	}
	// Detach the scratch before iterating: OnStrength is a public callback,
	// and if it feeds another QC back into the tracker the nested OnQC must
	// not clobber the worklist we are still walking. The nested call simply
	// allocates fresh scratch; the steady (non-reentrant) path stays
	// allocation-free because the buffer is reattached afterwards.
	changed := t.changed
	t.changed = nil
	for _, b := range changed {
		t.reevaluateAround(b)
	}
	t.changed = changed[:0]
}

// noteChanged appends b to the changed worklist unless already present.
// Store blocks are unique pointers, so identity comparison suffices; the
// list stays short (bounded by the walk horizon), keeping the linear dedup
// cheaper than a per-OnQC map.
func (t *Tracker) noteChanged(b *types.Block) {
	for _, c := range t.changed {
		if c == b {
			return
		}
	}
	t.changed = append(t.changed, b)
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

// addEndorsement records that voter endorses block above the given key,
// keeping the minimum key seen. It reports whether the record improved.
func (t *Tracker) addEndorsement(block types.BlockID, voter types.ReplicaID, key uint64) bool {
	s, ok := t.endorsed[block]
	if !ok {
		s = newEndorserSet(t.cfg.N)
		t.endorsed[block] = s
	}
	return s.add(voter, key)
}

// Endorsers returns the number of endorsers of the block. In ModeRound this
// is the paper's |endorsers| directly; in ModeHeight it is the count of
// voters whose marker permits k-endorsement at the block's own height.
func (t *Tracker) Endorsers(id types.BlockID) int {
	switch t.cfg.Mode {
	case ModeHeight:
		b := t.store.Block(id)
		if b == nil {
			return 0
		}
		return t.EndorsersAt(id, uint64(b.Height))
	default:
		return t.endorsed[id].size()
	}
}

// EndorsersAt returns the number of voters k-endorsing the block for
// threshold key k (ModeHeight only; in ModeRound every stored entry already
// passed its check, so the threshold is ignored except for direct votes).
func (t *Tracker) EndorsersAt(id types.BlockID, k uint64) int {
	return t.endorsed[id].countBelow(k)
}

// Strength returns the highest x such that the block is x-strong committed
// at this replica, or -1 if it is not strong committed at all.
func (t *Tracker) Strength(id types.BlockID) int {
	if x, ok := t.strength[id]; ok {
		return x
	}
	return -1
}

// reevaluateAround re-runs the strong 3-chain rule for every 3-chain that
// includes b (as first, middle, or last element).
func (t *Tracker) reevaluateAround(b *types.Block) {
	// b as the start/middle/end of a 3-chain maps to candidate commit
	// blocks: in ModeRound the committed block is the FIRST of the 3-chain
	// (B_k, B_k+1, B_k+2); in ModeHeight it is the MIDDLE (B_k-1, B_k,
	// B_k+1). Evaluate every candidate whose window could include b.
	cands := append(t.candidates[:0], b)
	t.candidates = nil // detach; see OnQC's reentrancy note
	if p := t.store.Parent(b.ID()); p != nil {
		cands = append(cands, p)
		if gp := t.store.Parent(p.ID()); gp != nil {
			cands = append(cands, gp)
		}
	}
	t.store.VisitChildren(b.ID(), func(c *types.Block) bool {
		cands = append(cands, c)
		// In ModeHeight the middle block can be a grandchild's parent; the
		// child's own evaluation covers it via its window.
		return true
	})
	for _, c := range cands {
		t.evaluate(c)
	}
	t.candidates = cands[:0]
}

// evaluate applies the strong commit rule with candidate as the committed
// block and raises strength levels if a higher x is now supported.
func (t *Tracker) evaluate(candidate *types.Block) {
	var x int
	switch t.cfg.Mode {
	case ModeHeight:
		x = t.evaluateHeight(candidate)
	default:
		x = t.evaluateRound(candidate)
	}
	if x < t.cfg.F {
		return // not even a regular commit yet
	}
	t.raise(candidate, x)
}

// evaluateRound computes the best x for SFT-DiemBFT's strong 3-chain rule:
// candidate B_k plus chain successors with rounds r+1 and r+2, each with at
// least x+f+1 endorsers.
func (t *Tracker) evaluateRound(bk *types.Block) int {
	best := -1
	t.store.VisitChildren(bk.ID(), func(b1 *types.Block) bool {
		if b1.Round != bk.Round+1 {
			return true
		}
		t.store.VisitChildren(b1.ID(), func(b2 *types.Block) bool {
			if b2.Round != bk.Round+2 {
				return true
			}
			e := min(t.Endorsers(bk.ID()), t.Endorsers(b1.ID()), t.Endorsers(b2.ID()))
			if x := e - t.cfg.F - 1; x > best {
				best = x
			}
			return true
		})
		return true
	})
	return best
}

// evaluateHeight computes the best x for SFT-Streamlet's rule: candidate
// B_k (height k) with neighbors B_k-1 and B_k+1 forming consecutive rounds,
// each with at least x+f+1 k-endorsers.
func (t *Tracker) evaluateHeight(bk *types.Block) int {
	prev := t.store.Parent(bk.ID())
	if prev == nil || bk.Round != prev.Round+1 {
		return -1
	}
	k := uint64(bk.Height)
	best := -1
	t.store.VisitChildren(bk.ID(), func(next *types.Block) bool {
		if next.Round != bk.Round+1 {
			return true
		}
		e := min(
			t.EndorsersAt(prev.ID(), k),
			t.EndorsersAt(bk.ID(), k),
			t.EndorsersAt(next.ID(), k),
		)
		if x := e - t.cfg.F - 1; x > best {
			best = x
		}
		return true
	})
	return best
}

// raise lifts the strength of b to at least x and propagates to ancestors
// ("commits a block B_k and all its ancestors"), emitting OnStrength for
// every block whose level rises.
func (t *Tracker) raise(b *types.Block, x int) {
	for cur := b; cur != nil && !cur.IsGenesis(); cur = t.store.Parent(cur.ID()) {
		old, ok := t.strength[cur.ID()]
		if ok && old >= x {
			return // ancestors below are already at or above x
		}
		t.strength[cur.ID()] = x
		if t.cfg.OnStrength != nil {
			t.cfg.OnStrength(cur, x)
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

// Forget releases the bookkeeping of one block. Every key was a stored block
// when written, so forgetting what the store removes keeps the maps in step.
func (t *Tracker) Forget(id types.BlockID) {
	delete(t.endorsed, id)
	delete(t.processed, id)
	delete(t.strength, id)
}
