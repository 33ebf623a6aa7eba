// Package app is the deterministic execution layer: application state
// machines that engines run under the execute-before-vote discipline. A
// replica executes every proposal it accepts BEFORE voting on it and carries
// the resulting 32-byte state root (the AppHash) inside the vote's signing
// payload, so a quorum certificate certifies the post-state of the block,
// not merely its position in the chain — the HotStuff-style design in which
// parent links remain by BlockHash while the certified root detects state
// divergence: an honest replica whose execution disagrees with a proposal's
// justify certificate refuses to vote, turning non-determinism or a lying
// proposer into a visible liveness event instead of a silent fork.
//
// The contract every StateMachine must honor is strict determinism: Apply is
// a pure function of (parent state root, block bytes). Wall clocks, map
// iteration order, randomness, and floating point are all forbidden inputs.
// Two honest replicas that execute the same chain MUST produce bit-identical
// roots; the consensus layer treats any disagreement as Byzantine evidence.
package app

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/types"
)

// Code classifies the outcome of executing one transaction. Codes are part
// of the deterministic output: every honest replica assigns the same code to
// the same transaction at the same chain position.
type Code uint8

// Transaction result codes.
const (
	CodeOK           Code = 0 // applied
	CodeMalformed    Code = 1 // undecodable or structurally invalid
	CodeBadSignature Code = 2 // signature check failed
	CodeBadNonce     Code = 3 // nonce is not the account's next
	CodeInsufficient Code = 4 // balance too low
)

// String renders the code for logs.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeMalformed:
		return "malformed"
	case CodeBadSignature:
		return "bad-signature"
	case CodeBadNonce:
		return "bad-nonce"
	case CodeInsufficient:
		return "insufficient-funds"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// TxResult is the execution outcome of one transaction within a block,
// exposed on commit events so subscribers act on results without re-decoding
// payloads.
type TxResult struct {
	Sender uint32
	Seq    uint64
	Code   Code
}

// StateMachine is the application the execution layer drives. Implementations
// must be deterministic (see the package comment); they own fork bookkeeping
// through the parent-root parameter: consensus may execute competing blocks
// extending the same parent, and only Commit collapses the speculation.
type StateMachine interface {
	// GenesisRoot returns the state root of the initial (pre-genesis-block)
	// state. Every replica must derive the identical value without
	// communication.
	GenesisRoot() [32]byte
	// Apply executes the block's transactions against the state identified
	// by parent (the parent block's state root) and returns the resulting
	// root plus one result per transaction. Apply must not mutate the state
	// at parent — the block may lose to a sibling — and must be idempotent
	// across identical calls. An error means the block cannot be executed
	// (unknown parent state); the engine then refuses to vote on it.
	Apply(parent [32]byte, b *types.Block) ([32]byte, []TxResult, error)
	// Commit finalizes root as the durable base state. Speculative states
	// not on the committed path may be discarded.
	Commit(root [32]byte) error
	// Snapshot serializes the committed base state. Speculative
	// (uncommitted) state is not included. Its caller is
	// Executor.Checkpoint, which the journal writes at each prune-cut
	// checkpoint so that a restarted replica resumes from the snapshot
	// instead of re-executing the chain.
	Snapshot() []byte
	// Restore replaces the committed base state from a Snapshot.
	Restore(snap []byte) error
}

// prune keeps this many heights of executed-root history behind the
// committed height, covering late strength rises and stragglers re-fetching
// results before entries are dropped.
const prune = 256

type rootEntry struct {
	root    [32]byte
	height  types.Height
	results []TxResult
}

// Executor is the engine-facing harness around a StateMachine: it maps block
// IDs to executed state roots, memoizes per-block results, resolves parent
// roots across forks, and drives Commit as consensus finalizes blocks. It is
// not safe for concurrent use; the engine's event loop owns it.
type Executor struct {
	sm     StateMachine
	roots  map[types.BlockID]rootEntry
	commit struct {
		root   [32]byte
		height types.Height
	}
	executed int64
}

// NewExecutor wraps sm, seeding the genesis block's root so height-1 blocks
// resolve their parent state.
func NewExecutor(sm StateMachine) *Executor {
	e := &Executor{sm: sm, roots: make(map[types.BlockID]rootEntry)}
	g := sm.GenesisRoot()
	e.roots[types.Genesis().ID()] = rootEntry{root: g}
	e.commit.root = g
	return e
}

// StateMachine returns the wrapped application.
func (e *Executor) StateMachine() StateMachine { return e.sm }

// Execute runs b through the state machine (idempotently: re-executing an
// already-executed block returns the memoized root) and returns its state
// root. It fails when the parent's root is unknown — the block is then
// unexecutable and must not be voted on.
func (e *Executor) Execute(b *types.Block) ([32]byte, error) {
	if ent, ok := e.roots[b.ID()]; ok {
		return ent.root, nil
	}
	parent, ok := e.roots[b.Parent]
	if !ok {
		return [32]byte{}, fmt.Errorf("app: parent %v of %v not executed", b.Parent, b)
	}
	root, results, err := e.sm.Apply(parent.root, b)
	if err != nil {
		return [32]byte{}, fmt.Errorf("app: execute %v: %w", b, err)
	}
	e.roots[b.ID()] = rootEntry{root: root, height: b.Height, results: results}
	e.executed++
	return root, nil
}

// Root returns the executed state root of block id, if known.
func (e *Executor) Root(id types.BlockID) ([32]byte, bool) {
	ent, ok := e.roots[id]
	return ent.root, ok
}

// Results returns the memoized per-transaction results of block id (nil if
// the block was never executed here or has been pruned).
func (e *Executor) Results(id types.BlockID) []TxResult {
	return e.roots[id].results
}

// OnCommit finalizes b's state: the state machine's base advances to b's
// root and executed-root history far below the committed height is pruned.
// The block is executed first if it never was (a commit implies the replica
// accepted the chain).
func (e *Executor) OnCommit(b *types.Block) error {
	root, err := e.Execute(b)
	if err != nil {
		return err
	}
	if err := e.sm.Commit(root); err != nil {
		return fmt.Errorf("app: commit %v: %w", b, err)
	}
	e.commit.root = root
	e.commit.height = b.Height
	if b.Height > prune {
		floor := b.Height - prune
		for id, ent := range e.roots {
			if ent.height < floor && ent.height > 0 {
				delete(e.roots, id)
			}
		}
	}
	return nil
}

// CommittedRoot returns the state root of the latest committed block (the
// genesis root before any commit).
func (e *Executor) CommittedRoot() [32]byte { return e.commit.root }

// CommittedHeight returns the height of the latest committed block.
func (e *Executor) CommittedHeight() types.Height { return e.commit.height }

// Executed returns the number of blocks run through the state machine.
func (e *Executor) Executed() int64 { return e.executed }

// checkpointMagic versions Checkpoint's wire form.
var checkpointMagic = []byte("execcp/1/")

// Checkpoint serializes what a restarted replica needs to resume execution
// where this executor stands: the committed height and root, the state
// machine's Snapshot of the committed base, and the executed roots of the
// blocks at or below the committed height it still memoizes (per-transaction
// results are not kept). Roots above the committed height are left out: their
// blocks are re-executed from the journal over the restored base.
func (e *Executor) Checkpoint() []byte {
	type entry struct {
		id types.BlockID
		rootEntry
	}
	kept := make([]entry, 0, len(e.roots))
	for id, ent := range e.roots {
		if ent.height <= e.commit.height {
			kept = append(kept, entry{id, ent})
		}
	}
	slices.SortFunc(kept, func(a, b entry) int {
		if c := cmp.Compare(a.height, b.height); c != 0 {
			return c
		}
		return slices.Compare(a.id[:], b.id[:])
	})
	snap := e.sm.Snapshot()
	out := make([]byte, 0, len(checkpointMagic)+48+len(snap)+72*len(kept))
	out = append(out, checkpointMagic...)
	out = types.AppendUint64(out, uint64(e.commit.height))
	out = append(out, e.commit.root[:]...)
	out = types.AppendBytes(out, snap)
	out = types.AppendUint32(out, uint32(len(kept)))
	for _, k := range kept {
		out = append(out, k.id[:]...)
		out = append(out, k.root[:]...)
		out = types.AppendUint64(out, uint64(k.height))
	}
	return out
}

// RestoreCheckpoint replaces the executor's state with a Checkpoint's: the
// state machine's committed base, the committed point and the memoized roots
// (the genesis root stays, as NewExecutor seeds it).
func (e *Executor) RestoreCheckpoint(cp []byte) error {
	b, err := consume(cp, checkpointMagic)
	if err != nil {
		return err
	}
	h, b, err := types.ConsumeUint64(b)
	if err != nil {
		return err
	}
	if len(b) < 32 {
		return types.ErrShortBuffer
	}
	var root [32]byte
	copy(root[:], b)
	snap, b, err := types.ConsumeBytes(b[32:])
	if err != nil {
		return err
	}
	n, b, err := types.ConsumeUint32(b)
	if err != nil {
		return err
	}
	if uint64(n)*72 != uint64(len(b)) {
		return fmt.Errorf("app: checkpoint holds %d bytes for %d roots", len(b), n)
	}
	if err := e.sm.Restore(snap); err != nil {
		return err
	}
	g := types.Genesis().ID()
	e.roots = map[types.BlockID]rootEntry{g: e.roots[g]}
	for i := uint32(0); i < n; i++ {
		var id types.BlockID
		var ent rootEntry
		copy(id[:], b)
		copy(ent.root[:], b[32:])
		eh, _, _ := types.ConsumeUint64(b[64:])
		ent.height = types.Height(eh)
		e.roots[id] = ent
		b = b[72:]
	}
	e.commit.root, e.commit.height = root, types.Height(h)
	return nil
}
