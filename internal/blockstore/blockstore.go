// Package blockstore maintains each replica's local block tree: every block
// it has seen, parent/child links, certification state (which blocks have
// QCs), the highest known QC, and the ancestry/conflict queries on which
// both the voting rules and the SFT endorsement bookkeeping rely.
package blockstore

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/types"
	"repro/internal/window"
)

// Common errors returned by Store operations.
var (
	ErrUnknownBlock  = errors.New("blockstore: unknown block")
	ErrMissingParent = errors.New("blockstore: missing parent")
	ErrBadRound      = errors.New("blockstore: round not greater than parent round")
)

// Node is one stored block's place in the tree, handed out by Store.Node so
// that a caller working along the chain pays one lookup and then follows
// pointers. The links are intrusive, so a stored block is one allocation and
// the height index costs the node one pointer.
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

// Height is the block's height.
func (n *Node) Height() types.Height { return n.block.Height }

// Ancestor returns the node's ancestor at height h (the node itself at its
// own height), or nil when h is above it or the parent links end first.
func (n *Node) Ancestor(h types.Height) *Node {
	for n != nil && n.block.Height > h {
		n = n.parent
	}
	if n == nil || n.block.Height != h {
		return nil
	}
	return n
}

// Extends reports whether n extends anc: anc is n or one of its ancestors.
// A nil node extends nothing and is extended by nothing.
func (n *Node) Extends(anc *Node) bool {
	return anc != nil && n.Ancestor(anc.block.Height) == anc
}

// Conflicts reports whether neither node extends the other (Section 2.1). A
// nil node, a block the store does not hold, conflicts with every node.
func (n *Node) Conflicts(o *Node) bool {
	return n != o && !n.Extends(o) && !o.Extends(n)
}

// AppendChain appends the blocks from anc (exclusive) to desc (inclusive) to
// dst in increasing height and reports whether desc extends anc; if not, dst
// comes back unchanged. It allocates only when dst must grow.
func AppendChain(dst []*types.Block, anc, desc *Node) ([]*types.Block, bool) {
	if !desc.Extends(anc) {
		return dst, false
	}
	start := len(dst)
	for n := desc; n != anc; n = n.parent {
		dst = append(dst, n.block)
	}
	slices.Reverse(dst[start:])
	return dst, true
}

// Store is one replica's block tree. It is not safe for concurrent use, and
// a lookup reorders what it walks (Node); the engines own their store and the
// runtime serializes engine events.
type Store struct {
	genesis *types.Block
	highQC  *types.QC
	// prunedHeight is the height below which everything has been discarded;
	// ancestor walks stop at that boundary. top is the highest stored height.
	prunedHeight, top types.Height
	// levels is the store's one index: a ring of per-height lists (through
	// node.level) of the nodes at the heights in [prunedHeight, top], the
	// list of height h at slot (base + h - prunedHeight) mod len(levels). A
	// lookup names the height and walks that list; pruning visits exactly the
	// blocks it removes. The ring grows to window.Fit of the kept span when
	// the span outgrows it.
	levels  []*Node
	base    int
	count   int
	removed []*types.Block // PruneBelow's result, reused
}

// New creates a store seeded with the canonical genesis block and its
// conventional round-0 QC.
func New() *Store {
	g := types.Genesis()
	s := &Store{
		genesis: g,
		levels:  make([]*Node, window.Fit(1)),
		highQC:  types.NewGenesisQC(g.ID()),
		count:   1,
	}
	s.levels[0] = &Node{block: g, qc: s.highQC}
	return s
}

// Genesis returns the genesis block.
func (s *Store) Genesis() *types.Block { return s.genesis }

// HighQC returns the highest-ranked QC seen so far (never nil).
func (s *Store) HighQC() *types.QC { return s.highQC }

// Len returns the number of blocks stored, including genesis.
func (s *Store) Len() int { return s.count }

// Levels returns the height ring's slot count, for footprint checks.
func (s *Store) Levels() int { return len(s.levels) }

// head returns the list head of height h, which must lie in [prunedHeight,
// prunedHeight+len(levels)).
func (s *Store) head(h types.Height) **Node {
	i := s.base + int(h-s.prunedHeight)
	if i >= len(s.levels) {
		i -= len(s.levels)
	}
	return &s.levels[i]
}

// Node returns the node of the block id stored at height h, or nil. A block
// is found only at its own height: a height and an ID that disagree miss
// exactly as an unknown block does. The node found moves to the front of its
// height's list, so an equivocating leader's k blocks at one height cost the
// certified one O(k) once, not at every lookup.
func (s *Store) Node(h types.Height, id types.BlockID) *Node {
	if h < s.prunedHeight || h > s.top {
		return nil
	}
	head := s.head(h)
	var prev *Node
	for n := *head; n != nil; prev, n = n, n.level {
		if n.block.ID() != id {
			continue
		}
		if prev != nil {
			prev.level, n.level, *head = n.level, *head, n
		}
		return n
	}
	return nil
}

// Block returns the block id stored at height h, or nil.
func (s *Store) Block(h types.Height, id types.BlockID) *types.Block {
	if n := s.Node(h, id); n != nil {
		return n.block
	}
	return nil
}

// Has reports whether the block id is stored at height h.
func (s *Store) Has(h types.Height, id types.BlockID) bool { return s.Node(h, id) != nil }

// Insert adds a block whose parent is already stored at the height below
// it, and whose round exceeds the parent's. A block that names a stored
// parent with a height that is not the parent's + 1 finds no parent. A block
// already stored is accepted again and changes nothing: it is one of its
// parent's children, which Insert walks anyway to append, or a root at the
// pruned height.
func (s *Store) Insert(b *types.Block) error {
	id := b.ID()
	p := s.Node(b.Height-1, b.Parent)
	if p == nil {
		if s.Has(b.Height, id) {
			return nil
		}
		return fmt.Errorf("%w: parent %s of %s", ErrMissingParent, b.Parent, b)
	}
	last := &p.child
	for ; *last != nil; last = &(*last).sibling {
		if (*last).block.ID() == id {
			return nil
		}
	}
	if b.Round <= p.block.Round {
		return fmt.Errorf("%w: %s over parent r%d", ErrBadRound, b, p.block.Round)
	}
	n := s.link(b)
	n.parent = p
	*last = n
	return nil
}

// link adds a node for b at the front of its height's list, growing the ring
// first if b raises the top past it.
func (s *Store) link(b *types.Block) *Node {
	if b.Height > s.top {
		if span := int(b.Height-s.prunedHeight) + 1; span > len(s.levels) {
			s.growLevels(span)
		}
		s.top = b.Height
	}
	head := s.head(b.Height)
	n := &Node{block: b, level: *head}
	*head = n
	s.count++
	return n
}

// growLevels moves the ring to window.Fit(span) slots, base at 0. Each
// height's list moves as a whole.
func (s *Store) growLevels(span int) {
	levels := make([]*Node, window.Fit(span))
	for h := s.prunedHeight; h <= s.top; h++ {
		levels[h-s.prunedHeight] = *s.head(h)
	}
	s.levels, s.base = levels, 0
}

// RegisterQC records a certificate for a stored block and updates the
// highest QC. It returns the certified block's node and whether the
// certificate improved stored state (first or larger cert for the block, or a
// new high QC) — the durability journal uses the flag to log each certificate
// once instead of on every re-delivery. The only error is ErrUnknownBlock,
// also for a certificate whose height is not its block's.
func (s *Store) RegisterQC(qc *types.QC) (*Node, bool, error) {
	n := s.Node(qc.Height, qc.Block)
	if n == nil {
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

// Snapshot returns every stored block except genesis in parent-before-child
// order (ascending height), suitable for bulk Restore or for serving a full
// state transfer. Certificates are not included; callers that need them pair
// the snapshot with QCFor.
func (s *Store) Snapshot() []*types.Block {
	out := make([]*types.Block, 0, s.count)
	for h := max(s.prunedHeight, 1); h <= s.top; h++ { // genesis is alone at 0
		for n := *s.head(h); n != nil; n = n.level {
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
		if b == nil || b.Height < floor || s.Has(b.Height, b.ID()) {
			continue
		}
		if b.Height == floor && floor > 0 {
			s.link(b) // a root: its parent is below the floor
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
		head := &s.levels[s.base]
		for n := *head; n != nil; {
			// Orphan surviving children; ancestry walks then terminate at a
			// nil parent above the cut.
			for c := n.child; c != nil; c = c.sibling {
				c.parent = nil
			}
			s.removed = append(s.removed, n.block)
			next := n.level
			n.parent, n.child, n.sibling, n.level, n.Record = nil, nil, nil, nil, nil
			n = next
		}
		*head = nil
		if s.base++; s.base == len(s.levels) {
			s.base = 0
		}
	}
	s.count -= len(s.removed)
	s.prunedHeight = max(s.prunedHeight, h)
	return s.removed
}

// PrunedHeight returns the height below which every block was discarded.
func (s *Store) PrunedHeight() types.Height { return s.prunedHeight }
