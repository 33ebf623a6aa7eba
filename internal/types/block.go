package types

import (
	"crypto/sha256"
	"fmt"
	"sync"
)

// StrengthRecord is one entry of the strong-commit Log a proposal carries
// for light clients (Section 5): it announces that, in the proposer's view,
// block Block at height Height reached strong-commit strength X (in units of
// replicas tolerated, i.e. x of "x-strong").
type StrengthRecord struct {
	Block  BlockID
	Height Height
	Round  Round
	X      int
}

// Encode appends the deterministic encoding of the record.
func (s StrengthRecord) Encode(b []byte) []byte {
	b = append(b, s.Block[:]...)
	b = AppendUint64(b, uint64(s.Height))
	b = AppendUint64(b, uint64(s.Round))
	b = AppendUint64(b, uint64(s.X))
	return b
}

// Block is a chain block B_k = (H(B_{k-1}), qc, txn) per Section 2.1, plus
// the round number, proposer, a virtual-time creation stamp (used by the
// harness to measure commit latency the way the paper does: from block
// creation to commit), and the optional light-client Log.
type Block struct {
	Parent    BlockID
	Justify   *QC // certifies Parent; nil only inside genesis
	Round     Round
	Height    Height
	Proposer  ReplicaID
	Timestamp int64 // virtual nanoseconds at creation
	Payload   Payload
	CommitLog []StrengthRecord

	id BlockID // cached hash of the encoding above
}

// NewBlock assembles a block and computes its ID. justify must certify
// parent (justify.Block == parent).
func NewBlock(parent BlockID, justify *QC, round Round, height Height, proposer ReplicaID, ts int64, payload Payload, log []StrengthRecord) *Block {
	b := &Block{
		Parent:    parent,
		Justify:   justify,
		Round:     round,
		Height:    height,
		Proposer:  proposer,
		Timestamp: ts,
		Payload:   payload,
		CommitLog: log,
	}
	b.id = b.computeID()
	return b
}

// Genesis returns the canonical genesis block: height 0, round 0, no parent.
// Every replica constructs the identical genesis, so its ID agrees
// everywhere without communication.
func Genesis() *Block {
	b := &Block{Round: 0, Height: 0, Proposer: 0, Timestamp: 0}
	b.id = b.computeID()
	return b
}

// ID returns the block's hash, computing and caching it if the block was
// decoded from the wire rather than built with NewBlock.
func (b *Block) ID() BlockID {
	if b.id.IsZero() {
		b.id = b.computeID()
	}
	return b.id
}

func (b *Block) computeID() BlockID {
	// The ID preimage IS the block's wire encoding (see wire.go), so a block
	// decoded from the WAL or a state-sync frame recomputes the same ID.
	// Every replica hashes every proposal it receives, so the preimage is
	// built in a pooled buffer: a ~100 KB block would otherwise grow a fresh
	// one through a dozen reallocations each time.
	bp := idScratch.Get().(*[]byte)
	*bp = b.AppendEncoding((*bp)[:0])
	id := BlockID(sha256.Sum256(*bp))
	idScratch.Put(bp)
	return id
}

var idScratch = sync.Pool{New: func() any { return new([]byte) }}

// IsGenesis reports whether the block is the genesis block.
func (b *Block) IsGenesis() bool { return b.Height == 0 && b.Parent.IsZero() }

// Size returns the modeled wire size of the block in bytes.
func (b *Block) Size() int {
	n := 32 + 8 + 8 + 4 + 8 + b.Payload.Size() + 16*len(b.CommitLog)
	if b.Justify != nil {
		n += b.Justify.Size()
	}
	return n
}

// String renders the block for logs.
func (b *Block) String() string {
	return fmt.Sprintf("block{%s h%d r%d by %s}", b.ID(), b.Height, b.Round, b.Proposer)
}
