// Package workload generates the synthetic client load of the paper's
// evaluation: each proposed block carries roughly 1000 transactions and
// ~450KB of payload, and leaders are never starved.
package workload

import (
	"math/rand"
	"time"

	"repro/internal/types"
)

// Paper workload constants (Section 4, "Experimental setup").
const (
	// PaperTxnsPerBlock is the ~1000 transactions per proposed block.
	PaperTxnsPerBlock = 1000
	// PaperBlockBytes is the ~450KB block size.
	PaperBlockBytes = 450 * 1024
)

// Generator produces deterministic synthetic transactions.
type Generator struct {
	rng     *rand.Rand
	clients uint32
	seq     []uint64
	txnSize int
}

// NewGenerator creates a generator with the given number of synthetic
// clients and per-transaction data size.
func NewGenerator(seed int64, clients uint32, txnSize int) *Generator {
	if clients == 0 {
		clients = 1
	}
	return &Generator{
		rng:     rand.New(rand.NewSource(seed)),
		clients: clients,
		seq:     make([]uint64, clients),
		txnSize: txnSize,
	}
}

// Next returns one new transaction from a random client.
func (g *Generator) Next() types.Transaction {
	c := uint32(g.rng.Intn(int(g.clients)))
	g.seq[c]++
	data := make([]byte, g.txnSize)
	g.rng.Read(data)
	return types.Transaction{Sender: c, Seq: g.seq[c], Data: data}
}

// Batch returns n new transactions.
func (g *Generator) Batch(n int) []types.Transaction {
	out := make([]types.Transaction, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// PaperPayload returns a payload source (the engines' PayloadNow hook) for
// the simulator that models the
// paper's block shape — txns transactions and blockBytes total size — while
// keeping hashing cheap: a handful of representative transactions plus
// Padding accounting for the rest of the bytes. Sampling a few real
// transactions keeps block IDs unique per (round, leader).
func PaperPayload(seed int64, txns, blockBytes int) func(types.Round, time.Duration) types.Payload {
	g := NewGenerator(seed, 64, 128)
	return func(types.Round, time.Duration) types.Payload {
		sample := g.Batch(4)
		size := 0
		for _, t := range sample {
			size += t.Size()
		}
		pad := blockBytes - size
		if pad < 0 {
			pad = 0
		}
		return types.Payload{Txns: sample, Padding: uint32(pad)}
	}
}

// FullPayload returns a payload source (the engines' PayloadNow hook) that
// materializes every transaction (used by the real TCP cluster and the
// throughput accounting tests).
func FullPayload(g *Generator, txns int) func(types.Round, time.Duration) types.Payload {
	return func(types.Round, time.Duration) types.Payload {
		return types.Payload{Txns: g.Batch(txns)}
	}
}
