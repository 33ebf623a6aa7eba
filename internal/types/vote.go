package types

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/intervals"
)

// Vote is a strong-vote ⟨vote, B, r, marker⟩ (Section 3.2) or its
// generalized form ⟨vote, B, r, I⟩ (Section 3.4). A plain DiemBFT vote is a
// strong-vote whose marker is ignored, so one type serves both the baseline
// and the SFT protocols.
//
// In the DiemBFT engines Marker is the largest *round* of any conflicting
// block the voter ever voted for; in the Streamlet engines (Appendix D) the
// same field carries the largest *height* of any conflicting voted block.
type Vote struct {
	Block  BlockID
	Round  Round
	Height Height
	Voter  ReplicaID

	// Marker is the single-marker summary of the voter's conflicting
	// history. Default 0 endorses all ancestors.
	Marker Round

	// Intervals, when HasIntervals is set, is the generalized endorsement
	// set I of Section 3.4. Rounds in I are endorsed.
	Intervals    intervals.Set
	HasIntervals bool

	// AppHash is the state root the voter computed by executing Block before
	// voting (execute-before-vote). The zero hash means "no execution layer":
	// nodes without an application emit it, and the signing payload then
	// degrades to the exact legacy encoding, so pre-execution vectors and
	// fixed-seed determinism pins decode and reproduce unchanged. A non-zero
	// AppHash enters the signing payload, so a certificate over such votes
	// certifies the state, not just the ordering.
	AppHash [32]byte

	Signature []byte
}

// Vote payload flag bits. The trailing flag byte of the signing payload is a
// bitfield: bit 0 marks an interval set (the pre-existing 0/1 flag), bit 1
// marks a trailing 32-byte AppHash. Legacy encoders only ever wrote 0 or 1,
// so old vectors decode unchanged and new encoders emit old bytes whenever
// the AppHash is zero.
const (
	voteFlagIntervals = 1 << 0
	voteFlagAppHash   = 1 << 1
)

// HasAppHash reports whether the vote carries an execution state root.
func (v *Vote) HasAppHash() bool { return v.AppHash != ([32]byte{}) }

// SigningPayload returns the deterministic byte string a replica signs to
// produce the vote signature. It covers everything except the signature.
func (v Vote) SigningPayload() []byte {
	return v.AppendSigningPayload(make([]byte, 0, 96))
}

// AppendSigningPayload appends the signing payload to b and returns the
// extended slice. Hot paths (signing and per-vote QC verification) call it
// with a reused scratch buffer so that payload construction is
// allocation-free in steady state.
func (v *Vote) AppendSigningPayload(b []byte) []byte {
	b = append(b, "vote/"...)
	b = append(b, v.Block[:]...)
	b = AppendUint64(b, uint64(v.Round))
	b = AppendUint64(b, uint64(v.Height))
	b = AppendUint32(b, uint32(v.Voter))
	b = AppendUint64(b, uint64(v.Marker))
	var flags byte
	if v.HasIntervals {
		flags |= voteFlagIntervals
	}
	if v.HasAppHash() {
		flags |= voteFlagAppHash
	}
	b = append(b, flags)
	if v.HasIntervals {
		b = v.Intervals.Encode(b)
	}
	if flags&voteFlagAppHash != 0 {
		b = append(b, v.AppHash[:]...)
	}
	return b
}

// Endorses reports whether this strong-vote endorses a block at round
// (or, for Streamlet, height) target on the chain the vote extends.
// Per Figure 4 the vote endorses its own block unconditionally and any
// ancestor whose round exceeds the marker (or lies in the interval set).
// The caller is responsible for the chain-extension check; Endorses only
// evaluates the marker/interval condition.
func (v Vote) Endorses(target Round) bool {
	if target == v.Round {
		// Direct vote: B = B'.
		return true
	}
	if v.HasIntervals {
		return v.Intervals.Contains(uint64(target))
	}
	return v.Marker < target
}

// Size returns the modeled wire size of the vote in bytes. The paper's
// efficiency claim is that a strong-vote adds only one integer (or a small
// interval set) to a regular vote.
func (v *Vote) Size() int {
	n := 32 + 8 + 8 + 4 + 8 + 1 + len(v.Signature)
	if v.HasIntervals {
		n += 4 + 16*v.Intervals.Len()
	}
	if v.HasAppHash() {
		n += 32
	}
	return n
}

// String renders the vote for logs.
func (v Vote) String() string {
	if v.HasIntervals {
		return fmt.Sprintf("vote{%s r%d by %s I=%s}", v.Block, v.Round, v.Voter, v.Intervals)
	}
	return fmt.Sprintf("vote{%s r%d by %s m=%d}", v.Block, v.Round, v.Voter, v.Marker)
}

// AggCert is the compact certificate form: one aggregated 32-byte signature
// plus a signer bitmap replaces the per-vote signature vector, making the
// certificate constant-size in the committee (the bitmap grows one u64 per
// 64 replicas). See internal/crypto/agg.go for the aggregation scheme and
// the package doc for the wire layout.
type AggCert struct {
	// Sig is the aggregated signature scalar, big-endian.
	Sig [32]byte
	// Signers is the voter bitmap: bit i of word i/64 set means replica i's
	// vote is aggregated into Sig.
	Signers []uint64
}

// MaxAggWords bounds the signer bitmap at 16 words (1024 replicas), matching
// CheckStructure's stack bitset; decoders reject anything larger before
// allocating.
const MaxAggWords = 16

// Has reports whether replica id's bit is set in the signer bitmap.
func (a *AggCert) Has(id ReplicaID) bool {
	w := int(id) >> 6
	return w < len(a.Signers) && a.Signers[w]&(1<<(id&63)) != 0
}

// Count returns the number of set bits (aggregated voters).
func (a *AggCert) Count() int {
	n := 0
	for _, w := range a.Signers {
		n += bits.OnesCount64(w)
	}
	return n
}

// QC is a quorum certificate: 2f+1 distinct signed strong-votes for one
// block. With SFT enabled it is the paper's strong-QC; the embedded votes
// keep their markers so that every replica can recompute endorsements.
//
// A QC exists in one of two forms. The vector form (Agg == nil) carries the
// full signed votes. The compact form (Agg != nil) carries the aggregated
// signature and signer bitmap instead; Votes is still populated — decoders
// materialize one vote per bitmap bit, markers restored from the sparse
// override table — but the per-vote Signature fields are nil. Everything
// downstream of verification (endorsement tracking, orphan-QC ranking,
// journal replay) reads Votes and works identically on both forms.
type QC struct {
	Block  BlockID
	Round  Round
	Height Height
	Votes  []Vote

	// Agg, when non-nil, marks the compact form.
	Agg *AggCert
}

// NewGenesisQC builds the conventional round-0 certificate for the genesis
// block, treated as valid without votes by convention.
func NewGenesisQC(genesisID BlockID) *QC {
	return &QC{Block: genesisID, Round: 0, Height: 0}
}

// AppHash returns the execution state root the certificate certifies: the
// (structurally uniform) AppHash of its votes. Genesis certificates and
// certificates formed without an execution layer return the zero hash. The
// value is derived from the votes rather than stored, so the certificate can
// never disagree with what its voters actually signed.
func (q *QC) AppHash() [32]byte {
	if len(q.Votes) > 0 {
		return q.Votes[0].AppHash
	}
	return [32]byte{}
}

// RanksHigher reports whether q should replace other as the highest known
// QC. QCs are ranked by round number (Section 2.1).
func (q *QC) RanksHigher(other *QC) bool {
	if other == nil {
		return true
	}
	return q.Round > other.Round
}

// CheckStructure validates everything about the QC that does not require
// cryptography: at least quorum votes, all for the same block, round and height,
// from distinct voters. Genesis QCs (round 0, no votes) pass by convention.
// Compact QCs additionally require the signer bitmap to agree exactly with
// the materialized vote set.
func (q *QC) CheckStructure(quorum int) error {
	if q.Round == 0 && len(q.Votes) == 0 && q.Agg == nil {
		return nil
	}
	if a := q.Agg; a != nil {
		if len(a.Signers) > MaxAggWords {
			return fmt.Errorf("qc for %s r%d: %d bitmap words exceeds %d", q.Block, q.Round, len(a.Signers), MaxAggWords)
		}
		if a.Count() != len(q.Votes) {
			return fmt.Errorf("qc for %s r%d: bitmap has %d signers, %d votes", q.Block, q.Round, a.Count(), len(q.Votes))
		}
		for i := range q.Votes {
			if !a.Has(q.Votes[i].Voter) {
				return fmt.Errorf("qc for %s r%d: voter %s missing from signer bitmap", q.Block, q.Round, q.Votes[i].Voter)
			}
		}
	}
	if len(q.Votes) < quorum {
		return fmt.Errorf("qc for %s r%d: %d votes < quorum %d", q.Block, q.Round, len(q.Votes), quorum)
	}
	// Duplicate-voter detection runs on every QC a replica receives, so the
	// common case (replica IDs below 1024, i.e. any realistic cluster) uses a
	// stack bitset instead of allocating a map per call.
	var bits [16]uint64
	var seen map[ReplicaID]bool
	for i := range q.Votes {
		v := &q.Votes[i]
		if v.Block != q.Block || v.Round != q.Round || v.Height != q.Height {
			// The height too: stores find a block by height and ID, so a
			// certificate relabelled to another height must not pass for one
			// its voters signed.
			return fmt.Errorf("qc for %s r%d: vote %s mismatched", q.Block, q.Round, v)
		}
		// Execute-before-vote: a certificate certifies exactly one state
		// root, so every aggregated vote must carry the same AppHash. A
		// Byzantine leader cannot launder a minority wrong-root vote into a
		// quorum this way.
		if v.AppHash != q.Votes[0].AppHash {
			return fmt.Errorf("qc for %s r%d: vote %s certifies a different AppHash", q.Block, q.Round, v)
		}
		if v.Voter < ReplicaID(len(bits)*64) {
			w, m := v.Voter>>6, uint64(1)<<(v.Voter&63)
			if bits[w]&m != 0 {
				return fmt.Errorf("qc for %s r%d: duplicate voter %s", q.Block, q.Round, v.Voter)
			}
			bits[w] |= m
			continue
		}
		if seen == nil {
			seen = make(map[ReplicaID]bool, len(q.Votes))
		}
		if seen[v.Voter] {
			return fmt.Errorf("qc for %s r%d: duplicate voter %s", q.Block, q.Round, v.Voter)
		}
		seen[v.Voter] = true
	}
	return nil
}

// Voters returns the set of replica IDs whose votes form the certificate.
func (q *QC) Voters() []ReplicaID {
	out := make([]ReplicaID, len(q.Votes))
	for i, v := range q.Votes {
		out[i] = v.Voter
	}
	return out
}

// Size returns the modeled wire size of the QC in bytes. The compact form
// counts its actual encoding (header, bitmap, sparse marker overrides,
// aggregated signature) — constant in the committee size apart from one
// bitmap word per 64 replicas.
func (q *QC) Size() int {
	n := 32 + 8 + 8 + 4
	if q.Agg != nil {
		n += 4 + 8*len(q.Agg.Signers) + 4 + len(q.Agg.Sig)
		if q.AppHash() != ([32]byte{}) {
			n += 32
		}
		for i := range q.Votes {
			v := &q.Votes[i]
			if v.Marker == 0 && !v.HasIntervals {
				continue
			}
			n += 4 + 8 + 1
			if v.HasIntervals {
				n += 4 + 16*v.Intervals.Len()
			}
		}
		return n
	}
	for i := range q.Votes {
		n += q.Votes[i].Size()
	}
	return n
}

// aggSentinel marks the compact encoding in the vote-count slot. It can
// never collide with a legacy vote count: DecodeQC bounds real counts by
// input length / minVoteFrame, which 0xFFFFFFFF always exceeds.
// aggAppSentinel (same technique, next value down) marks a compact
// certificate whose body is prefixed with the 32-byte AppHash its votes
// certify — the versioned extension the execution layer rides on, leaving
// pre-execution compact vectors decoding byte-for-byte as before.
const (
	aggSentinel    = 0xFFFFFFFF
	aggAppSentinel = 0xFFFFFFFE
)

// Encode appends a deterministic encoding of the QC, used when hashing the
// block that carries it. Per-vote payloads are appended in place (length
// prefix backfilled) so encoding a QC performs no per-vote allocations.
//
// Versioning: both forms share the header (block, round, height). The vector
// form follows with the vote count and the per-vote payload+signature
// frames. The compact form writes aggSentinel in the count slot, then the
// signer bitmap (word count + words), a sparse override table carrying only
// the votes whose marker state is non-default (voter, marker, interval
// flag/set), and the 32-byte aggregated signature. Steady state — every
// marker 0 — the override table is empty and the encoding is constant-size
// plus one bitmap word per 64 replicas.
func (q *QC) Encode(b []byte) []byte {
	b = append(b, q.Block[:]...)
	b = AppendUint64(b, uint64(q.Round))
	b = AppendUint64(b, uint64(q.Height))
	if a := q.Agg; a != nil {
		if app := q.AppHash(); app != ([32]byte{}) {
			b = AppendUint32(b, aggAppSentinel)
			b = append(b, app[:]...)
		} else {
			b = AppendUint32(b, aggSentinel)
		}
		b = AppendUint32(b, uint32(len(a.Signers)))
		for _, w := range a.Signers {
			b = AppendUint64(b, w)
		}
		mark := len(b)
		b = append(b, 0, 0, 0, 0) // sparse count, backfilled below
		sparse := 0
		for i := range q.Votes {
			v := &q.Votes[i]
			if v.Marker == 0 && !v.HasIntervals {
				continue
			}
			sparse++
			b = AppendUint32(b, uint32(v.Voter))
			b = AppendUint64(b, uint64(v.Marker))
			if v.HasIntervals {
				b = append(b, 1)
				b = v.Intervals.Encode(b)
			} else {
				b = append(b, 0)
			}
		}
		binary.BigEndian.PutUint32(b[mark:], uint32(sparse))
		return append(b, a.Sig[:]...)
	}
	b = AppendUint32(b, uint32(len(q.Votes)))
	for i := range q.Votes {
		v := &q.Votes[i]
		mark := len(b)
		b = append(b, 0, 0, 0, 0) // length prefix, backfilled below
		b = v.AppendSigningPayload(b)
		binary.BigEndian.PutUint32(b[mark:], uint32(len(b)-mark-4))
		b = AppendBytes(b, v.Signature)
	}
	return b
}

// String renders the QC for logs.
func (q *QC) String() string {
	return fmt.Sprintf("qc{%s r%d, %d votes}", q.Block, q.Round, len(q.Votes))
}
