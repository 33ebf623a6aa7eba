package simnet

import (
	"math/rand"
	"time"

	"repro/internal/types"
)

// LatencyModel computes the one-way delivery delay for a message.
type LatencyModel interface {
	// Delay returns the delivery latency from one replica to another. rng is
	// the simulation's deterministic source for jitter.
	Delay(from, to types.ReplicaID, size int, rng *rand.Rand) time.Duration
}

// RegionModel is the geo-distributed latency model of the paper's Section 4:
// replicas are partitioned into regions; same-region pairs see Intra delay,
// cross-region pairs see Inter[a][b]. Uniform jitter in [0, Jitter) plus an
// optional per-replica processing penalty (the paper's "stragglers") is
// added on top.
type RegionModel struct {
	// RegionOf maps each replica to its region index.
	RegionOf []int
	// Intra is the same-region one-way delay.
	Intra time.Duration
	// Inter[a][b] is the one-way delay from region a to region b (symmetric
	// models fill both directions).
	Inter [][]time.Duration
	// Jitter adds a uniform random [0, Jitter) to every delivery.
	Jitter time.Duration
	// Penalty adds a fixed per-destination-replica processing delay; nil
	// means none. It models the out-of-sync stragglers the paper blames for
	// the 2f-strong latency tail (Section 4.1).
	Penalty map[types.ReplicaID]time.Duration
}

// Delay implements LatencyModel.
func (m *RegionModel) Delay(from, to types.ReplicaID, size int, rng *rand.Rand) time.Duration {
	var d time.Duration
	ra, rb := m.RegionOf[from], m.RegionOf[to]
	if ra == rb {
		d = m.Intra
	} else {
		d = m.Inter[ra][rb]
	}
	if m.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(m.Jitter)))
	}
	if m.Penalty != nil {
		d += m.Penalty[from] + m.Penalty[to]
	}
	return d
}

// NewSymmetricModel builds the paper's symmetric setting: replicas split
// evenly into `regions` regions with delay delta between any pair of
// replicas in different regions (Figure 6, left).
func NewSymmetricModel(n, regions int, intra, delta, jitter time.Duration) *RegionModel {
	regionOf := make([]int, n)
	for i := 0; i < n; i++ {
		// First region gets the remainder, matching the paper's 34/33/33.
		regionOf[i] = i * regions / n
	}
	inter := make([][]time.Duration, regions)
	for a := range inter {
		inter[a] = make([]time.Duration, regions)
		for b := range inter[a] {
			if a == b {
				inter[a][b] = intra
			} else {
				inter[a][b] = delta
			}
		}
	}
	return &RegionModel{RegionOf: regionOf, Intra: intra, Inter: inter, Jitter: jitter}
}

// UniformModel delivers every message with the same base delay plus jitter;
// the simplest model, used by unit tests.
type UniformModel struct {
	Base   time.Duration
	Jitter time.Duration
}

// Delay implements LatencyModel.
func (m *UniformModel) Delay(from, to types.ReplicaID, size int, rng *rand.Rand) time.Duration {
	d := m.Base
	if m.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(m.Jitter)))
	}
	return d
}
