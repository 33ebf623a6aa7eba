package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/intervals"
	"repro/internal/types"
)

// strengthEvent is one OnStrength call.
type strengthEvent struct {
	block types.BlockID
	x     int
}

func (e strengthEvent) String() string { return fmt.Sprintf("(%s, %d)", e.block, e.x) }

// The references walk the tree as the ID-keyed store API did, through these
// helpers over the height-keyed lookups.

func parentOf(s *blockstore.Store, b *types.Block) *types.Block {
	if n := s.Node(b.Height, b.ID()); n != nil && n.Parent() != nil {
		return n.Parent().Block()
	}
	return nil
}

func visitChildren(s *blockstore.Store, b *types.Block, fn func(*types.Block) bool) {
	if n := s.Node(b.Height, b.ID()); n != nil {
		for c := n.FirstChild(); c != nil && fn(c.Block()); c = c.NextSibling() {
		}
	}
}

// walkAncestors calls fn on each strict ancestor of the block id at height h,
// parent first, until fn returns false.
func walkAncestors(s *blockstore.Store, h types.Height, id types.BlockID, fn func(*types.Block) bool) {
	if n := s.Node(h, id); n != nil {
		for a := n.Parent(); a != nil && fn(a.Block()); a = a.Parent() {
		}
	}
}

func conflicts(s *blockstore.Store, a, b *types.Block) bool {
	return s.Node(a.Height, a.ID()).Conflicts(s.Node(b.Height, b.ID()))
}

// refTracker is the strength tracker as it was before its state moved onto
// the block tree: maps keyed by block ID, every step an ID-keyed store query,
// and a forget per block the store removes. It exists only here, as the
// definition Tracker's results and OnStrength sequence are held to.
type refTracker struct {
	store     *blockstore.Store
	cfg       core.Config
	endorsed  map[types.BlockID]map[types.ReplicaID]uint64
	strength  map[types.BlockID]int
	processed map[types.BlockID]int
	changed   []*types.Block
}

const refUnconditional = uint64(0)

func newRefTracker(store *blockstore.Store, cfg core.Config) *refTracker {
	return &refTracker{
		store: store, cfg: cfg,
		endorsed:  make(map[types.BlockID]map[types.ReplicaID]uint64),
		strength:  make(map[types.BlockID]int),
		processed: make(map[types.BlockID]int),
	}
}

func (t *refTracker) onQC(qc *types.QC) {
	if len(qc.Votes) <= t.processed[qc.Block] {
		return
	}
	certified := t.store.Block(qc.Height, qc.Block)
	if certified == nil {
		return
	}
	t.processed[qc.Block] = len(qc.Votes)
	t.changed = t.changed[:0]
	for i := range qc.Votes {
		v := &qc.Votes[i]
		markerCoverage := t.cfg.Mode == core.ModeRound && !t.cfg.Naive && !v.HasIntervals
		directKey := refUnconditional
		if markerCoverage {
			directKey = uint64(v.Marker)
		}
		if t.add(qc.Block, v.Voter, directKey) {
			t.noteChanged(certified)
		} else if markerCoverage {
			continue
		}
		depth := 0
		walkAncestors(t.store, qc.Height, qc.Block, func(anc *types.Block) bool {
			depth++
			if t.cfg.Horizon > 0 && depth > t.cfg.Horizon {
				return false
			}
			if anc.IsGenesis() {
				return false
			}
			key, ok := t.voteKey(v, anc)
			if !ok {
				return v.HasIntervals
			}
			if markerCoverage {
				key = uint64(v.Marker)
			}
			if t.add(anc.ID(), v.Voter, key) {
				t.noteChanged(anc)
				return true
			}
			return !markerCoverage
		})
	}
	for _, b := range t.changed {
		t.reevaluateAround(b)
	}
}

func (t *refTracker) noteChanged(b *types.Block) {
	for _, c := range t.changed {
		if c == b {
			return
		}
	}
	t.changed = append(t.changed, b)
}

func (t *refTracker) voteKey(v *types.Vote, anc *types.Block) (uint64, bool) {
	if t.cfg.Naive {
		return refUnconditional, true
	}
	if t.cfg.Mode == core.ModeHeight {
		return uint64(v.Marker), true
	}
	if v.HasIntervals {
		return refUnconditional, v.Intervals.Contains(uint64(anc.Round))
	}
	return refUnconditional, v.Marker < anc.Round
}

func (t *refTracker) add(block types.BlockID, voter types.ReplicaID, key uint64) bool {
	s, ok := t.endorsed[block]
	if !ok {
		s = make(map[types.ReplicaID]uint64)
		t.endorsed[block] = s
	}
	if old, ok := s[voter]; ok && old <= key {
		return false
	}
	s[voter] = key
	return true
}

func (t *refTracker) endorsers(b *types.Block) int {
	if t.cfg.Mode == core.ModeHeight {
		if !t.store.Has(b.Height, b.ID()) {
			return 0
		}
		return t.endorsersAt(b.ID(), uint64(b.Height))
	}
	return len(t.endorsed[b.ID()])
}

func (t *refTracker) endorsersAt(id types.BlockID, k uint64) int {
	n := 0
	for _, key := range t.endorsed[id] {
		if key < k || key == refUnconditional {
			n++
		}
	}
	return n
}

func (t *refTracker) strengthOf(id types.BlockID) int {
	if x, ok := t.strength[id]; ok {
		return x
	}
	return -1
}

func (t *refTracker) reevaluateAround(b *types.Block) {
	cands := []*types.Block{b}
	if p := parentOf(t.store, b); p != nil {
		cands = append(cands, p)
		if gp := parentOf(t.store, p); gp != nil {
			cands = append(cands, gp)
		}
	}
	visitChildren(t.store, b, func(c *types.Block) bool {
		cands = append(cands, c)
		return true
	})
	for _, c := range cands {
		x := t.evaluateRound(c)
		if t.cfg.Mode == core.ModeHeight {
			x = t.evaluateHeight(c)
		}
		if x >= t.cfg.F {
			t.raise(c, x)
		}
	}
}

func (t *refTracker) evaluateRound(bk *types.Block) int {
	best := -1
	visitChildren(t.store, bk, func(b1 *types.Block) bool {
		if b1.Round != bk.Round+1 {
			return true
		}
		visitChildren(t.store, b1, func(b2 *types.Block) bool {
			if b2.Round == bk.Round+2 {
				e := min(t.endorsers(bk), t.endorsers(b1), t.endorsers(b2))
				best = max(best, e-t.cfg.F-1)
			}
			return true
		})
		return true
	})
	return best
}

func (t *refTracker) evaluateHeight(bk *types.Block) int {
	prev := parentOf(t.store, bk)
	if prev == nil || bk.Round != prev.Round+1 {
		return -1
	}
	k, best := uint64(bk.Height), -1
	visitChildren(t.store, bk, func(next *types.Block) bool {
		if next.Round == bk.Round+1 {
			e := min(t.endorsersAt(prev.ID(), k), t.endorsersAt(bk.ID(), k), t.endorsersAt(next.ID(), k))
			best = max(best, e-t.cfg.F-1)
		}
		return true
	})
	return best
}

func (t *refTracker) raise(b *types.Block, x int) {
	for cur := b; cur != nil && !cur.IsGenesis(); cur = parentOf(t.store, cur) {
		if old, ok := t.strength[cur.ID()]; ok && old >= x {
			return
		}
		t.strength[cur.ID()] = x
		t.cfg.OnStrength(cur, x)
	}
}

func (t *refTracker) forget(id types.BlockID) {
	delete(t.endorsed, id)
	delete(t.processed, id)
	delete(t.strength, id)
}

// refDirect is the Appendix B direct-vote tracker in the same old shape.
type refDirect struct {
	store      *blockstore.Store
	f          int
	votes      map[types.BlockID]map[types.ReplicaID]bool
	strength   map[types.BlockID]int
	onStrength func(b *types.Block, x int)
}

func (t *refDirect) onQC(qc *types.QC) {
	for i := range qc.Votes {
		t.addVote(qc.Height, qc.Block, qc.Votes[i].Voter)
	}
}

func (t *refDirect) addVote(h types.Height, block types.BlockID, voter types.ReplicaID) {
	b := t.store.Block(h, block)
	if b == nil || t.votes[block][voter] {
		return
	}
	if t.votes[block] == nil {
		t.votes[block] = make(map[types.ReplicaID]bool)
	}
	t.votes[block][voter] = true
	t.evaluate(b)
	if p := parentOf(t.store, b); p != nil {
		t.evaluate(p)
		if gp := parentOf(t.store, p); gp != nil {
			t.evaluate(gp)
		}
	}
}

func (t *refDirect) strengthOf(id types.BlockID) int {
	if x, ok := t.strength[id]; ok {
		return x
	}
	return -1
}

func (t *refDirect) evaluate(bk *types.Block) {
	best := -1
	visitChildren(t.store, bk, func(b1 *types.Block) bool {
		if b1.Round != bk.Round+1 {
			return true
		}
		visitChildren(t.store, b1, func(b2 *types.Block) bool {
			if b2.Round == bk.Round+2 {
				e := min(len(t.votes[bk.ID()]), len(t.votes[b1.ID()]), len(t.votes[b2.ID()]))
				best = max(best, e-t.f-1)
			}
			return true
		})
		return true
	})
	if best < t.f {
		return
	}
	for cur := bk; cur != nil && !cur.IsGenesis(); cur = parentOf(t.store, cur) {
		if old, ok := t.strength[cur.ID()]; ok && old >= best {
			return
		}
		t.strength[cur.ID()] = best
		t.onStrength(cur, best)
	}
}

func (t *refDirect) forget(id types.BlockID) {
	delete(t.votes, id)
	delete(t.strength, id)
}

// trackerRun drives a tracker and its reference through one op stream over a
// random block tree. pick(n) yields the stream's next choice in [0, n), or ok
// false when the stream is spent. The stream's head picks what runs: the SFT
// tracker keyed by round, by round with naive counting, or by height, with no
// horizon or a small one, or the direct tracker; and a committee of 7, where
// every voter bitset is one word, or of 130, where it is three. The ops:
// extend the tree under the tip, a recent ancestor of it (a fork) or any
// stored block, mostly certifying the new block at once; certify a stored
// block again, with the same certificate, a larger one or an unrelated one;
// feed a certificate (or a vote) ahead of its block and the block later;
// credit one direct vote; prune the store at a cut on the tip's chain; and,
// once, restart: a fresh store and fresh trackers rebuilt from every block
// and every certificate so far. After every op Endorsers, EndorsersAt and
// Strength (DirectVotes and Strength) of every block ever made are compared,
// and the two OnStrength sequences.
type trackerRun struct {
	t     *testing.T
	pick  func(n int) (int, bool)
	store *blockstore.Store
	cfg   core.Config
	sft   bool
	n, f  int

	tr     *core.Tracker
	ref    *refTracker
	direct *core.DirectTracker
	refDir *refDirect
	got    []strengthEvent
	want   []strengthEvent

	blocks   []*types.Block // every block inserted, in insertion order
	pending  []*types.Block // certified, not yet stored
	certs    map[types.BlockID]*types.QC
	fed      []*types.QC // every certificate fed, in order
	tip      *types.Block
	round    types.Round
	compares int
	rises    int
}

func runTrackerOps(t *testing.T, pick func(n int) (int, bool)) (compares, rises int) {
	r := &trackerRun{t: t, pick: pick, certs: make(map[types.BlockID]*types.QC), n: 7, f: 2}
	kind := r.choose(5) // 4 is the direct tracker
	if r.choose(4) == 3 {
		r.n, r.f = 130, 43
	}
	if kind < 4 {
		r.sft = true
		r.cfg = core.Config{N: r.n, F: r.f, Mode: core.ModeRound, Naive: kind == 1}
		if kind >= 2 && r.choose(2) == 1 {
			r.cfg.Mode = core.ModeHeight
		}
		if r.choose(2) == 1 {
			r.cfg.Horizon = 1 + r.choose(4)
		}
	}
	r.boot()
	restarted := false
	for {
		op, ok := pick(16)
		if !ok {
			return r.compares, r.rises
		}
		switch {
		case op < 8:
			r.extend()
		case op < 11:
			r.recertify(r.anyStored())
		case op == 11:
			r.certifyDetached()
		case op == 12:
			r.deliverPending()
		case op == 13:
			r.vote(r.anyStored())
		case op == 14:
			r.prune()
		case !restarted:
			restarted = true
			r.restart()
		}
		r.compare()
	}
}

// boot makes a fresh store and fresh trackers over it.
func (r *trackerRun) boot() {
	r.store = blockstore.New()
	r.tip = r.store.Genesis()
	onGot := func(b *types.Block, x int) { r.got = append(r.got, strengthEvent{b.ID(), x}) }
	onWant := func(b *types.Block, x int) { r.want = append(r.want, strengthEvent{b.ID(), x}) }
	if r.sft {
		cfg, refCfg := r.cfg, r.cfg
		cfg.OnStrength, refCfg.OnStrength = onGot, onWant
		r.tr, r.ref = core.NewTracker(r.store, cfg), newRefTracker(r.store, refCfg)
		return
	}
	r.direct = core.NewDirectTracker(r.store, r.f, onGot)
	r.refDir = &refDirect{
		store: r.store, f: r.f, onStrength: onWant,
		votes: make(map[types.BlockID]map[types.ReplicaID]bool), strength: make(map[types.BlockID]int),
	}
}

func (r *trackerRun) choose(n int) int {
	v, _ := r.pick(n)
	return v
}

func (r *trackerRun) anyStored() *types.Block {
	// Recent blocks: old ones are below the cut. The tip never is.
	if back := r.choose(12); back < len(r.blocks) && r.store.Has(r.blocks[len(r.blocks)-1-back].Height, r.blocks[len(r.blocks)-1-back].ID()) {
		return r.blocks[len(r.blocks)-1-back]
	}
	return r.tip
}

// newBlock takes the next round, or now and then the last block's again (an
// equivocating proposal: the height-keyed rule then has two 3-chains through
// one parent to find, in the children's order).
func (r *trackerRun) newBlock(parent *types.Block) *types.Block {
	if r.round <= parent.Round || r.choose(6) != 0 {
		r.round++
	}
	// The justify names the parent at its height, as any block's does, so
	// that a restart's Restore finds the block it certifies.
	justify := &types.QC{Block: parent.ID(), Height: parent.Height}
	return types.NewBlock(parent.ID(), justify, r.round, parent.Height+1, 0,
		int64(r.round), types.Payload{}, nil)
}

func (r *trackerRun) insert(b *types.Block) {
	if err := r.store.Insert(b); err != nil {
		r.t.Fatalf("insert %v: %v", b, err)
	}
	r.blocks = append(r.blocks, b)
}

func (r *trackerRun) extend() {
	parent := r.tip
	switch c := r.choose(8); {
	case c == 5 || c == 6: // fork off a recent ancestor of the tip
		for up := 1 + r.choose(3); up > 0; up-- {
			if p := parentOf(r.store, parent); p != nil {
				parent = p
			}
		}
	case c == 7: // grow a side branch
		parent = r.anyStored()
	}
	b := r.newBlock(parent)
	r.insert(b)
	r.tip = b
	if r.choose(8) != 0 {
		r.feed(r.newCert(b, nil))
	}
}

// newCert makes a certificate for b: a quorum or more most of the time, fewer
// votes sometimes, or base's votes and a few more when base is given. Its new
// votes carry markers in up to three runs: all zero, or zero then two others
// up to b's round. Now and then it carries odd votes too: in round mode a
// tail of votes with one interval set with a gap, a voter again under another
// marker, or a voter beyond the committee. In round mode only a certificate
// without odd votes takes the tracker's word-parallel path.
func (r *trackerRun) newCert(b *types.Block, base *types.QC) *types.QC {
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
	voted := make(map[types.ReplicaID]bool)
	size := 2*r.f + 1 + r.choose(r.f+1)
	if r.choose(6) == 0 {
		size = 1 + r.choose(2*r.f)
	}
	if base != nil {
		qc.Votes = append(qc.Votes, base.Votes...)
		for _, v := range base.Votes {
			voted[v.Voter] = true
		}
		size = len(base.Votes) + 1 + r.choose(2)
	}
	anyMarker := func() types.Round { return types.Round(r.choose(int(b.Round) + 1)) }
	var markers [3]types.Round
	cuts := [2]int{size, size} // new vote i carries markers[0] below cuts[0], markers[1] below cuts[1]
	if r.choose(2) == 0 {
		markers[1], markers[2] = anyMarker(), anyMarker()
		cuts[0] = r.choose(size + 1)
		cuts[1] = cuts[0] + r.choose(size-cuts[0]+1)
	}
	fresh := len(qc.Votes)
	for next := r.choose(r.n); len(qc.Votes) < min(size, r.n); next++ {
		voter := types.ReplicaID(next % r.n)
		if voted[voter] {
			continue
		}
		voted[voter] = true
		run, i := 0, len(qc.Votes)-fresh
		for run < 2 && i >= cuts[run] {
			run++
		}
		qc.Votes = append(qc.Votes, types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: voter, Marker: markers[run]})
	}
	switch c := r.choose(8); {
	case c == 0 && r.cfg.Mode == core.ModeRound && len(qc.Votes) > fresh:
		lo := 1 + r.choose(int(b.Round))
		set := intervals.New(
			intervals.Interval{Lo: uint64(lo), Hi: uint64(b.Round)},
			intervals.Interval{Lo: 1, Hi: uint64(r.choose(lo))},
		)
		for i := fresh + r.choose(len(qc.Votes)-fresh); i < len(qc.Votes); i++ {
			qc.Votes[i].HasIntervals, qc.Votes[i].Intervals = true, set
		}
	case c == 1 && len(qc.Votes) > 0:
		again := qc.Votes[r.choose(len(qc.Votes))]
		again.Marker = anyMarker()
		qc.Votes = append(qc.Votes, again)
	case c == 2:
		qc.Votes = append(qc.Votes, types.Vote{
			Block: b.ID(), Round: b.Round, Height: b.Height,
			Voter: types.ReplicaID(r.n + r.choose(128)), Marker: markers[r.choose(3)],
		})
	}
	return qc
}

func (r *trackerRun) feed(qc *types.QC) {
	r.certs[qc.Block] = qc
	r.fed = append(r.fed, qc)
	if r.sft {
		r.tr.OnQC(qc)
		r.ref.onQC(qc)
		return
	}
	r.direct.OnQC(qc)
	r.refDir.onQC(qc)
}

func (r *trackerRun) recertify(b *types.Block) {
	if b.IsGenesis() {
		return
	}
	switch last := r.certs[b.ID()]; {
	case last == nil || r.choose(4) == 0:
		r.feed(r.newCert(b, nil))
	case r.choose(2) == 0:
		r.feed(last)
	default:
		r.feed(r.newCert(b, last))
	}
}

func (r *trackerRun) certifyDetached() {
	b := r.newBlock(r.anyStored())
	r.pending = append(r.pending, b)
	r.feed(r.newCert(b, nil))
	r.vote(b)
}

func (r *trackerRun) deliverPending() {
	for _, b := range r.pending {
		if r.store.Has(b.Height-1, b.Parent) {
			r.insert(b)
			if r.choose(4) != 0 {
				r.feed(r.certs[b.ID()])
			}
		}
	}
	r.pending = r.pending[:0]
}

// vote credits one direct vote; the SFT tracker has no such door.
func (r *trackerRun) vote(b *types.Block) {
	if !r.sft {
		v := types.Vote{Block: b.ID(), Height: b.Height, Voter: types.ReplicaID(r.choose(r.n))}
		r.direct.AddVote(&v)
		r.refDir.addVote(v.Height, v.Block, v.Voter)
	}
}

func (r *trackerRun) prune() {
	floor := r.store.PrunedHeight()
	if r.tip.Height <= floor+1 || !r.store.Has(r.tip.Height, r.tip.ID()) {
		return
	}
	span := int(r.tip.Height - floor - 1)
	if r.choose(3) != 0 {
		span = min(span, 3) // mostly a step at a time, as commits move the cut
	}
	for _, b := range r.store.PruneBelow(floor + 1 + types.Height(r.choose(span))) {
		if r.sft {
			r.ref.forget(b.ID())
		} else {
			r.refDir.forget(b.ID())
		}
	}
}

// restart rebuilds store and trackers as a recovery does: every block back in
// insertion order, then every certificate in the order it was fed.
func (r *trackerRun) restart() {
	tip := r.tip
	r.boot()
	r.store.Restore(0, r.blocks, nil)
	r.tip = tip
	if r.sft {
		r.tr.Restore(r.fed)
	}
	for _, qc := range r.fed {
		if r.sft {
			r.ref.onQC(qc)
		} else {
			r.direct.OnQC(qc)
			r.refDir.onQC(qc)
		}
	}
}

func (r *trackerRun) compare() {
	r.compares++
	if len(r.got) != len(r.want) {
		r.t.Fatalf("step %d: %d OnStrength calls, reference %d", r.compares, len(r.got), len(r.want))
	}
	for i := range r.got {
		if r.got[i] != r.want[i] {
			r.t.Fatalf("step %d: OnStrength call %d is %v, reference %v", r.compares, i, r.got[i], r.want[i])
		}
	}
	r.rises += len(r.want)
	r.got, r.want = r.got[:0], r.want[:0]
	for _, group := range [][]*types.Block{{r.store.Genesis()}, r.blocks, r.pending} {
		for _, b := range group {
			id := b.ID()
			if !r.sft {
				if got, want := r.direct.DirectVotes(b), len(r.refDir.votes[id]); got != want {
					r.t.Fatalf("step %d: DirectVotes(%v) = %d, reference %d", r.compares, b, got, want)
				}
				if got, want := r.direct.Strength(b), r.refDir.strengthOf(id); got != want {
					r.t.Fatalf("step %d: direct Strength(%v) = %d, reference %d", r.compares, b, got, want)
				}
				continue
			}
			if got, want := r.tr.Endorsers(b), r.ref.endorsers(b); got != want {
				r.t.Fatalf("step %d: Endorsers(%v) = %d, reference %d", r.compares, b, got, want)
			}
			for _, k := range []uint64{1, uint64(b.Height) + 1, uint64(b.Round)} {
				if got, want := r.tr.EndorsersAt(b, k), r.ref.endorsersAt(id, k); got != want {
					r.t.Fatalf("step %d: EndorsersAt(%v, %d) = %d, reference %d", r.compares, b, k, got, want)
				}
			}
			if got, want := r.tr.Strength(b), r.ref.strengthOf(id); got != want {
				r.t.Fatalf("step %d: Strength(%v) = %d, reference %d", r.compares, b, got, want)
			}
		}
	}
}

// TestTrackerMatchesReference: on 400 seeded random trees — forks, marker and
// interval votes, both modes, naive counting, horizons, certificates early,
// repeated and enlarged, prunes at random cuts and one restart — the trackers
// on the block tree answer every query as the map-keyed ones do and call
// OnStrength with the same blocks and levels in the same order.
func TestTrackerMatchesReference(t *testing.T) {
	compares, rises := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		rng, left := rand.New(rand.NewSource(seed)), 1500
		c, x := runTrackerOps(t, func(n int) (int, bool) {
			left--
			return rng.Intn(n), left > 0
		})
		compares, rises = compares+c, rises+x
	}
	if compares < 50000 || rises < 20000 {
		t.Fatalf("%d steps compared, %d strength rises; the streams are too short to mean anything", compares, rises)
	}
	t.Logf("%d steps compared, %d strength rises", compares, rises)
}

// TestStrengthRisesInChildOrder: one changed block can complete 3-chains
// through two of its children at once (height-keyed rule, equivocating
// proposals); the rises are then announced in the children's insertion order,
// which random streams almost never reach.
func TestStrengthRisesInChildOrder(t *testing.T) {
	w := newWorld(t)
	var got, want []strengthEvent
	cfg := core.Config{N: 4, F: 1, Mode: core.ModeHeight, Horizon: 1}
	cfg.OnStrength = func(b *types.Block, x int) { got = append(got, strengthEvent{b.ID(), x}) }
	tr := core.NewTracker(w.store, cfg)
	cfg.OnStrength = func(b *types.Block, x int) { want = append(want, strengthEvent{b.ID(), x}) }
	ref := newRefTracker(w.store, cfg)

	p := w.mk(w.store.Genesis(), 1)
	c1, c2 := w.mk(p, 2), w.mk(p, 2)
	n1, n2 := w.mk(c1, 3), w.mk(c2, 3)
	// With a horizon of one, each certificate reaches its block and the
	// parent: both forks fill up while p stays one endorser short, and the
	// last certificate changes p alone.
	for _, qc := range []*types.QC{
		qcFor(n1, sameMarkers(0, 0, 1, 2)),
		qcFor(n2, sameMarkers(0, 0, 1, 2)),
		qcFor(c1, sameMarkers(0, 0, 1)),
		qcFor(c2, sameMarkers(0, 0, 1, 2)),
	} {
		if len(got) != 0 {
			t.Fatalf("strength rose before the last certificate: %v", got)
		}
		tr.OnQC(qc)
		ref.onQC(qc)
	}
	expect := []strengthEvent{{c1.ID(), 1}, {p.ID(), 1}, {c2.ID(), 1}}
	if !slices.Equal(got, expect) || !slices.Equal(want, expect) {
		t.Fatalf("OnStrength sequence %v, reference %v, want %v", got, want, expect)
	}
}

// TestOnStrengthMayFeedACertificate: OnQC documents that an OnStrength
// callback may feed another certificate back into the tracker. Here the first
// rise (of b1, by the 3-chain b1 b2 b3) feeds a mixed-marker certificate for
// b4 whose votes lift b1, b2 and b3, blocks the outer re-evaluation has
// already looked at: the nested call must judge them again, in a pass of its
// own, for b2 to commit through b2 b3 b4. The tracker ends where a reference
// fed the two certificates one after the other ends, on every block.
func TestOnStrengthMayFeedACertificate(t *testing.T) {
	w := newWorld(t)
	chain := []*types.Block{w.store.Genesis()}
	for r := types.Round(1); r <= 4; r++ {
		chain = append(chain, w.mk(chain[len(chain)-1], r))
	}
	quorum := sameMarkers(0, 0, 1, 2, 3, 4)
	mixed := qcFor(chain[4], map[types.ReplicaID]types.Round{0: 0, 1: 0, 2: 2, 3: 2, 4: 1, 5: 0, 6: 0})
	cfg := core.Config{N: 7, F: 2, Mode: core.ModeRound}
	nested := 0
	var tr *core.Tracker
	cfg.OnStrength = func(*types.Block, int) {
		if nested == 0 {
			nested++
			tr.OnQC(mixed)
		}
	}
	tr = core.NewTracker(w.store, cfg)
	cfg.OnStrength = func(*types.Block, int) {}
	ref := newRefTracker(w.store, cfg)
	for _, b := range chain[1:4] {
		tr.OnQC(qcFor(b, quorum))
		ref.onQC(qcFor(b, quorum))
	}
	ref.onQC(mixed)
	if nested != 1 {
		t.Fatal("no strength rose, so no certificate was fed back")
	}
	for _, b := range chain {
		if got, want := tr.Endorsers(b), ref.endorsers(b); got != want {
			t.Errorf("Endorsers(%v) = %d, reference %d", b, got, want)
		}
		if got, want := tr.Strength(b), ref.strengthOf(b.ID()); got != want {
			t.Errorf("Strength(%v) = %d, reference %d", b, got, want)
		}
	}
	if got := tr.Strength(chain[2]); got != 4 {
		t.Errorf("b2 has strength %d after the fed-back certificate, want 4", got)
	}
}

// FuzzTrackerMatchesReference reads the same op stream from the fuzzer's
// bytes, one choice per byte.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 9, 0, 1, 5, 1, 1, 14, 0, 2, 11, 3, 12, 1, 15, 0, 1, 0, 1})
	f.Add([]byte{4, 0, 1, 0, 1, 0, 1, 13, 2, 3, 13, 1, 5, 0, 1, 14, 1, 0, 15, 0, 1})
	f.Add([]byte{3, 1, 1, 2, 0, 1, 0, 1, 0, 1, 0, 1, 6, 1, 1, 9, 2, 14, 0, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 1, 1, 0, 2, 5, 1, 0, 3, 40, 0, 1, 1, 0, 0, 7, 1, 0, 9, 1, 0, 1, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		runTrackerOps(t, func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			c := int(data[0]) % n
			data = data[1:]
			return c, true
		})
	})
}
