// Package blockstore maintains each replica's local block tree: every block
// it has seen, parent/child links, certification state (which blocks have
// QCs), the highest known QC, and the ancestry/conflict queries on which
// both the voting rules and the SFT endorsement bookkeeping rely.
package blockstore

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// Common errors returned by Store operations.
var (
	ErrUnknownBlock  = errors.New("blockstore: unknown block")
	ErrMissingParent = errors.New("blockstore: missing parent")
	ErrBadHeight     = errors.New("blockstore: height not parent+1")
	ErrBadRound      = errors.New("blockstore: round not greater than parent round")
)

// Node is one stored block's place in the tree, handed out by Store.Node so
// that a caller working along the chain pays one map lookup and then follows
// pointers. The links are intrusive, so a stored block is one allocation and
// the height index costs the node no more than a children slice used to.
type Node struct {
	block   *types.Block
	parent  *Node     // nil for genesis and above a pruned edge
	child   *Node     // first child, in insertion order
	sibling *Node     // next child of the same parent
	qc      *types.QC // certificate for this block, if one is known
	level   *Node     // next stored node at the same height (see Store.levels)

	// Record is the owner's per-block state (internal/core's strength tracker
	// keeps its bookkeeping here). The store never reads it and drops it with
	// the node, so that state needs no forgetting of its own.
	Record any
}

// Block, QC and Parent read the node; Parent is nil for genesis, above a
// pruned edge and on a removed node. The children are walked in insertion
// order: for c := n.FirstChild(); c != nil; c = c.NextSibling().
func (n *Node) Block() *types.Block { return n.block }
func (n *Node) QC() *types.QC       { return n.qc }
func (n *Node) Parent() *Node       { return n.parent }
func (n *Node) FirstChild() *Node   { return n.child }
func (n *Node) NextSibling() *Node  { return n.sibling }

// Store is one replica's block tree. It is not safe for concurrent use; the
// engines own their store and the runtime serializes engine events.
type Store struct {
	genesis *types.Block
	nodes   map[types.BlockID]*Node
	highQC  *types.QC
	// prunedHeight is the height below which everything has been discarded;
	// ancestor walks stop at that boundary. top is the highest stored height.
	prunedHeight, top types.Height
	// levels indexes the nodes by height, so that pruning visits the blocks
	// it removes and not the whole map: levels[h&(len(levels)-1)] heads the
	// list (through node.level) of the nodes at height h in [prunedHeight,
	// top]. The ring's length is a power of two and doubles when outgrown.
	levels  []*Node
	removed []*types.Block // PruneBelow's result, reused
}

// New creates a store seeded with the canonical genesis block and its
// conventional round-0 QC.
func New() *Store {
	g := types.Genesis()
	s := &Store{
		genesis: g,
		nodes:   make(map[types.BlockID]*Node),
		levels:  make([]*Node, 64),
		highQC:  types.NewGenesisQC(g.ID()),
	}
	s.levels[0] = &Node{block: g, qc: s.highQC}
	s.nodes[g.ID()] = s.levels[0]
	return s
}

// Genesis returns the genesis block.
func (s *Store) Genesis() *types.Block { return s.genesis }

// HighQC returns the highest-ranked QC seen so far (never nil).
func (s *Store) HighQC() *types.QC { return s.highQC }

// Len returns the number of blocks stored, including genesis.
func (s *Store) Len() int { return len(s.nodes) }

// Node returns the stored block's node, or nil if unknown.
func (s *Store) Node(id types.BlockID) *Node { return s.nodes[id] }

// Block returns the block with the given ID, or nil if unknown.
func (s *Store) Block(id types.BlockID) *types.Block {
	if n, ok := s.nodes[id]; ok {
		return n.block
	}
	return nil
}

// Has reports whether the block is stored.
func (s *Store) Has(id types.BlockID) bool {
	_, ok := s.nodes[id]
	return ok
}

// Insert adds a block whose parent is already stored, validating the basic
// chain invariants: height is parent height + 1 and round exceeds the
// parent's round.
func (s *Store) Insert(b *types.Block) error {
	id := b.ID()
	if _, ok := s.nodes[id]; ok {
		return nil // duplicate inserts are harmless
	}
	p, ok := s.nodes[b.Parent]
	if !ok {
		return fmt.Errorf("%w: parent %s of %s", ErrMissingParent, b.Parent, b)
	}
	if b.Height != p.block.Height+1 {
		return fmt.Errorf("%w: %s over parent h%d", ErrBadHeight, b, p.block.Height)
	}
	if b.Round <= p.block.Round {
		return fmt.Errorf("%w: %s over parent r%d", ErrBadRound, b, p.block.Round)
	}
	if b.Height > s.top {
		s.top = b.Height
		if span := int(s.top-s.prunedHeight) + 1; span > len(s.levels) {
			s.growLevels()
		}
	}
	head := &s.levels[int(b.Height)&(len(s.levels)-1)]
	n := &Node{block: b, parent: p, level: *head}
	*head = n
	last := &p.child
	for *last != nil {
		last = &(*last).sibling
	}
	*last = n
	s.nodes[id] = n
	return nil
}

// growLevels doubles the height ring. Each height's list moves as a whole.
func (s *Store) growLevels() {
	old := s.levels
	s.levels = make([]*Node, 2*len(old))
	for h := s.prunedHeight; h < s.top; h++ {
		s.levels[int(h)&(len(s.levels)-1)] = old[int(h)&(len(old)-1)]
	}
}

// RegisterQC records a certificate for a stored block and updates the
// highest QC. It returns the certified block's node and whether the
// certificate improved stored state (first or larger cert for the block, or a
// new high QC) — the durability journal uses the flag to log each certificate
// once instead of on every re-delivery. The only error is ErrUnknownBlock.
func (s *Store) RegisterQC(qc *types.QC) (*Node, bool, error) {
	n, ok := s.nodes[qc.Block]
	if !ok {
		// Bare: DiemBFT learns this way that a certificate is ahead of its block.
		return nil, false, ErrUnknownBlock
	}
	improved := false
	if n.qc == nil || len(qc.Votes) > len(n.qc.Votes) {
		// Keep the largest certificate seen for the block: Figure 8's
		// extra-wait experiment produces QCs with more than 2f+1 votes and
		// bigger certificates carry more endorsement information.
		n.qc = qc
		improved = true
	}
	if qc.RanksHigher(s.highQC) {
		s.highQC = qc
		improved = true
	}
	return n, improved, nil
}

// QCFor returns the certificate stored for the block, or nil.
func (s *Store) QCFor(id types.BlockID) *types.QC {
	if n, ok := s.nodes[id]; ok {
		return n.qc
	}
	return nil
}

// IsCertified reports whether a QC is known for the block.
func (s *Store) IsCertified(id types.BlockID) bool {
	n, ok := s.nodes[id]
	return ok && n.qc != nil
}

// Parent returns the parent block, or nil for genesis or unknown blocks.
func (s *Store) Parent(id types.BlockID) *types.Block {
	n, ok := s.nodes[id]
	if !ok || n.parent == nil {
		return nil
	}
	return n.parent.block
}

// VisitChildren calls fn on each stored child of a block in insertion order,
// stopping early if fn returns false. It performs no allocation, which
// matters to the SFT tracker's per-QC re-evaluation loops. fn must not mutate
// the store.
func (s *Store) VisitChildren(id types.BlockID, fn func(*types.Block) bool) {
	n, ok := s.nodes[id]
	if !ok {
		return
	}
	for c := n.child; c != nil; c = c.sibling {
		if !fn(c.block) {
			return
		}
	}
}

// IsAncestor reports whether anc is an ancestor of (or equal to) desc,
// i.e. desc extends anc in the paper's terminology.
func (s *Store) IsAncestor(anc, desc types.BlockID) bool {
	a, ok := s.nodes[anc]
	if !ok {
		return false
	}
	d, ok := s.nodes[desc]
	if !ok {
		return false
	}
	for d != nil && d.block.Height > a.block.Height {
		d = d.parent
	}
	return d == a
}

// Conflicts reports whether the two stored blocks conflict: neither extends
// the other (Section 2.1).
func (s *Store) Conflicts(a, b types.BlockID) bool {
	if a == b {
		return false
	}
	return !s.IsAncestor(a, b) && !s.IsAncestor(b, a)
}

// CommonAncestor returns the highest common ancestor of two stored blocks,
// or nil if either is unknown. If one extends the other, the lower block
// itself is returned.
func (s *Store) CommonAncestor(a, b types.BlockID) *types.Block {
	na, ok := s.nodes[a]
	if !ok {
		return nil
	}
	nb, ok := s.nodes[b]
	if !ok {
		return nil
	}
	for na.block.Height > nb.block.Height {
		na = na.parent
	}
	for nb.block.Height > na.block.Height {
		nb = nb.parent
	}
	for na != nb {
		if na.parent == nil || nb.parent == nil {
			return nil
		}
		na = na.parent
		nb = nb.parent
	}
	return na.block
}

// AncestorAtHeight returns the ancestor of id at exactly height h (possibly
// the block itself), or nil.
func (s *Store) AncestorAtHeight(id types.BlockID, h types.Height) *types.Block {
	n, ok := s.nodes[id]
	if !ok {
		return nil
	}
	for n != nil && n.block.Height > h {
		n = n.parent
	}
	if n == nil || n.block.Height != h {
		return nil
	}
	return n.block
}

// ChainBetween returns the blocks from anc (exclusive) to desc (inclusive),
// ordered by increasing height, or nil if desc does not extend anc.
func (s *Store) ChainBetween(anc, desc types.BlockID) []*types.Block {
	if !s.IsAncestor(anc, desc) {
		return nil
	}
	var rev []*types.Block
	n := s.nodes[desc]
	for n != nil && n.block.ID() != anc {
		rev = append(rev, n.block)
		n = n.parent
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// WalkAncestors calls fn on each strict ancestor of id from parent upward,
// stopping when fn returns false or genesis is passed.
func (s *Store) WalkAncestors(id types.BlockID, fn func(*types.Block) bool) {
	n, ok := s.nodes[id]
	if !ok {
		return
	}
	for n = n.parent; n != nil; n = n.parent {
		if !fn(n.block) {
			return
		}
	}
}

// Snapshot returns every stored block except genesis in parent-before-child
// order (ascending height), suitable for bulk Restore or for serving a full
// state transfer. Certificates are not included; callers that need them pair
// the snapshot with QCFor.
func (s *Store) Snapshot() []*types.Block {
	out := make([]*types.Block, 0, len(s.nodes))
	for h := max(s.prunedHeight, 1); h <= s.top; h++ { // genesis is alone at 0
		for n := s.levels[int(h)&(len(s.levels)-1)]; n != nil; n = n.level {
			out = append(out, n.block)
		}
	}
	return out
}

// Restore bulk-inserts a journal replay (or a snapshot) into a fresh store,
// registering each block's embedded justify certificate, and returns how
// many blocks were installed. With floor > 0 the store first becomes what
// PruneBelow(floor) leaves: genesis is gone, blocks below the floor are
// skipped, and the blocks at the floor are installed as parentless roots
// (their justifies certify blocks the store no longer holds). Every block
// above the floor must find its parent already installed: a missing parent
// means the log was reordered or lost a record, and Restore stops with an
// error naming the block, as it does for any other refusal — a block at the
// wrong height or round, a justify naming a block the store does not hold.
// Duplicates are skipped silently.
//
// onInstall, if non-nil, observes each newly installed block together with
// whether its justify improved the stored certificate state; the engines'
// recovery hooks use it to rebuild their own bookkeeping (proposed rounds,
// endorsement trackers) alongside the tree.
func (s *Store) Restore(floor types.Height, blocks []*types.Block, onInstall func(b *types.Block, qcImproved bool)) (int, error) {
	if floor > 0 {
		s.PruneBelow(floor)
	}
	installed := 0
	for _, b := range blocks {
		if b == nil || b.Height < floor || s.Has(b.ID()) {
			continue
		}
		if b.Height == floor && floor > 0 {
			s.insertRoot(b)
		} else if err := s.Insert(b); err != nil {
			return installed, err
		}
		installed++
		improved := false
		if b.Justify != nil && b.Height > floor {
			var err error
			if _, improved, err = s.RegisterQC(b.Justify); err != nil {
				return installed, fmt.Errorf("%w: justify of %s", err, b)
			}
		}
		if onInstall != nil {
			onInstall(b, improved)
		}
	}
	return installed, nil
}

// insertRoot installs b without a parent, at the pruned height.
func (s *Store) insertRoot(b *types.Block) {
	if b.Height > s.top {
		s.top = b.Height
	}
	head := &s.levels[int(b.Height)&(len(s.levels)-1)]
	n := &Node{block: b, level: *head}
	*head = n
	s.nodes[b.ID()] = n
}

// PruneBelow discards every block below height h and returns the removed
// blocks (valid until the next call), visiting only those, through the
// height index. The blocks at height h lose their parent link, the committed
// chain's and every side fork's alike, so ancestry walks end there; a fork's
// own turn comes when the cut passes it. The caller picks h on the chain it
// means to keep. Engines call this so long runs do not grow without bound.
//
// A removed node is severed, links and Record, so the owner's per-block state
// goes with it and a handle somebody still holds retains nothing: child links
// point up the chain, and one unsevered stale handle would keep every block
// from there to the tip alive.
func (s *Store) PruneBelow(h types.Height) []*types.Block {
	clear(s.removed) // the last call's blocks are not kept alive past this one
	s.removed = s.removed[:0]
	for ; s.prunedHeight < h && s.prunedHeight <= s.top; s.prunedHeight++ {
		head := &s.levels[int(s.prunedHeight)&(len(s.levels)-1)]
		for n := *head; n != nil; {
			// Orphan surviving children; ancestry walks then terminate at a
			// nil parent above the cut.
			for c := n.child; c != nil; c = c.sibling {
				c.parent = nil
			}
			delete(s.nodes, n.block.ID())
			s.removed = append(s.removed, n.block)
			next := n.level
			n.parent, n.child, n.sibling, n.level, n.Record = nil, nil, nil, nil, nil
			n = next
		}
		*head = nil
	}
	s.prunedHeight = max(s.prunedHeight, h)
	return s.removed
}

// PrunedHeight returns the height below which every block was discarded.
func (s *Store) PrunedHeight() types.Height { return s.prunedHeight }
