package types

import (
	"fmt"
	"math/bits"

	"repro/internal/intervals"
)

// This file adds decoders for the pinned deterministic encodings the rest of
// the package defines (Vote.AppendSigningPayload, QC.Encode, Block ID
// preimages). The encodings are what replicas hash and sign, so they are
// frozen; the write-ahead log (internal/wal, internal/core.Journal) persists
// exactly these bytes and recovery decodes them back. Round-tripping through
// the ID preimage means a decoded block recomputes the identical BlockID.

// Wire format magic prefixes, shared by encoders and decoders.
var (
	voteMagic  = []byte("vote/")
	blockMagic = []byte("block/")
)

// consumeMagic strips an expected prefix from the front of b.
func consumeMagic(b, magic []byte) ([]byte, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("types: bad magic, want %q", magic)
	}
	return b[len(magic):], nil
}

// consumeID reads a BlockID from the front of b.
func consumeID(b []byte) (BlockID, []byte, error) {
	var id BlockID
	if len(b) < len(id) {
		return id, nil, ErrShortBuffer
	}
	copy(id[:], b)
	return id, b[len(id):], nil
}

// Encode appends the full deterministic encoding of the vote — the signing
// payload followed by the length-prefixed signature — and returns the
// extended slice. DecodeVote reverses it.
func (v *Vote) Encode(b []byte) []byte {
	b = v.AppendSigningPayload(b)
	return AppendBytes(b, v.Signature)
}

// decodeVotePayload parses the signing-payload portion of a vote (everything
// Encode writes before the signature) from the front of b.
func decodeVotePayload(b []byte) (Vote, []byte, error) {
	var v Vote
	b, err := consumeMagic(b, voteMagic)
	if err != nil {
		return v, nil, err
	}
	v.Block, b, err = consumeID(b)
	if err != nil {
		return v, nil, err
	}
	r, b, err := ConsumeUint64(b)
	if err != nil {
		return v, nil, err
	}
	h, b, err := ConsumeUint64(b)
	if err != nil {
		return v, nil, err
	}
	voter, b, err := ConsumeUint32(b)
	if err != nil {
		return v, nil, err
	}
	m, b, err := ConsumeUint64(b)
	if err != nil {
		return v, nil, err
	}
	if len(b) < 1 {
		return v, nil, ErrShortBuffer
	}
	flags := b[0]
	b = b[1:]
	v.Round, v.Height, v.Voter, v.Marker = Round(r), Height(h), ReplicaID(voter), Round(m)
	if flags&^(voteFlagIntervals|voteFlagAppHash) != 0 {
		return v, nil, fmt.Errorf("types: bad vote flags %d", flags)
	}
	if flags&voteFlagIntervals != 0 {
		v.HasIntervals = true
		v.Intervals, b, err = intervals.Decode(b)
		if err != nil {
			return v, nil, err
		}
	}
	if flags&voteFlagAppHash != 0 {
		if len(b) < len(v.AppHash) {
			return v, nil, ErrShortBuffer
		}
		copy(v.AppHash[:], b)
		b = b[len(v.AppHash):]
		if !v.HasAppHash() {
			// A zero AppHash must be encoded as flag 0 (the legacy form);
			// accepting a flagged zero would make the encoding ambiguous and
			// break the decode→encode fixpoint the fuzzers pin.
			return v, nil, fmt.Errorf("types: vote flags a zero AppHash")
		}
	}
	return v, b, nil
}

// DecodeVote parses a vote encoded by Vote.Encode from the front of b,
// returning the vote and the remaining bytes. The signature is copied, so
// the vote does not alias b.
func DecodeVote(b []byte) (Vote, []byte, error) {
	v, b, err := decodeVotePayload(b)
	if err != nil {
		return v, nil, err
	}
	sig, b, err := ConsumeBytes(b)
	if err != nil {
		return v, nil, err
	}
	if len(sig) > 0 {
		v.Signature = append([]byte(nil), sig...)
	}
	return v, b, nil
}

// DecodeQC parses a certificate encoded by QC.Encode from the front of b.
func DecodeQC(b []byte) (*QC, []byte, error) {
	q := &QC{}
	var err error
	q.Block, b, err = consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	r, b, err := ConsumeUint64(b)
	if err != nil {
		return nil, nil, err
	}
	h, b, err := ConsumeUint64(b)
	if err != nil {
		return nil, nil, err
	}
	n, b, err := ConsumeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	q.Round, q.Height = Round(r), Height(h)
	if n == aggSentinel || n == aggAppSentinel {
		var appHash [32]byte
		if n == aggAppSentinel {
			if len(b) < len(appHash) {
				return nil, nil, ErrShortBuffer
			}
			copy(appHash[:], b)
			b = b[len(appHash):]
			if appHash == ([32]byte{}) {
				return nil, nil, fmt.Errorf("types: compact qc flags a zero AppHash")
			}
		}
		b, err = decodeCompactQC(q, b, appHash)
		if err != nil {
			return nil, nil, err
		}
		return q, b, nil
	}
	if n > 0 {
		// A vote frame is at least its 4-byte length prefix, the 66-byte
		// minimal signing payload, and a 4-byte empty-signature prefix.
		// Bounding the count by that floor caps the slice pre-allocation at
		// ~2x the input size, so a corrupt count fails cleanly instead of
		// attempting a multi-GB allocation during recovery.
		const minVoteFrame = 4 + 66 + 4
		if uint64(n)*minVoteFrame > uint64(len(b)) {
			return nil, nil, ErrShortBuffer
		}
		q.Votes = make([]Vote, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		payload, rest, err := ConsumeBytes(b)
		if err != nil {
			return nil, nil, err
		}
		v, trailing, err := decodeVotePayload(payload)
		if err != nil {
			return nil, nil, err
		}
		if len(trailing) != 0 {
			return nil, nil, fmt.Errorf("types: %d trailing bytes in vote payload", len(trailing))
		}
		sig, rest, err := ConsumeBytes(rest)
		if err != nil {
			return nil, nil, err
		}
		if len(sig) > 0 {
			v.Signature = append([]byte(nil), sig...)
		}
		q.Votes = append(q.Votes, v)
		b = rest
	}
	return q, b, nil
}

// decodeCompactQC parses the compact certificate body (everything after the
// aggSentinel vote-count slot, or after the AppHash that follows an
// aggAppSentinel): signer bitmap, sparse marker overrides, aggregated
// signature. It materializes one vote per bitmap bit, ascending by voter —
// each carrying the certificate-level appHash, which is uniform across the
// votes by CheckStructure — so every consumer of qc.Votes (endorsement
// tracking, quorum comparisons, journal replay) sees the same view as the
// vector form, minus the per-vote signatures, which the compact form does
// not carry.
func decodeCompactQC(q *QC, b []byte, appHash [32]byte) ([]byte, error) {
	words, b, err := ConsumeUint32(b)
	if err != nil {
		return nil, err
	}
	if words < 1 || words > MaxAggWords {
		return nil, fmt.Errorf("types: compact qc bitmap of %d words (max %d)", words, MaxAggWords)
	}
	a := &AggCert{Signers: make([]uint64, words)}
	for i := range a.Signers {
		a.Signers[i], b, err = ConsumeUint64(b)
		if err != nil {
			return nil, err
		}
	}
	voters := a.Count()
	if voters == 0 {
		return nil, fmt.Errorf("types: compact qc with empty signer bitmap")
	}
	q.Agg = a
	q.Votes = make([]Vote, 0, voters)
	for w, word := range a.Signers {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << bit
			q.Votes = append(q.Votes, Vote{
				Block:   q.Block,
				Round:   q.Round,
				Height:  q.Height,
				Voter:   ReplicaID(w*64 + bit),
				AppHash: appHash,
			})
		}
	}
	sparse, b, err := ConsumeUint32(b)
	if err != nil {
		return nil, err
	}
	if int(sparse) > voters {
		return nil, fmt.Errorf("types: compact qc with %d overrides for %d voters", sparse, voters)
	}
	prev := -1
	idx := 0
	for i := uint32(0); i < sparse; i++ {
		voter, rest, err := ConsumeUint32(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if int(voter) <= prev || !a.Has(ReplicaID(voter)) {
			return nil, fmt.Errorf("types: compact qc override for voter %d out of order or unset", voter)
		}
		prev = int(voter)
		m, rest, err := ConsumeUint64(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if len(b) < 1 {
			return nil, ErrShortBuffer
		}
		hasIntervals := b[0]
		b = b[1:]
		// Overrides and materialized votes are both ascending by voter, so a
		// single forward scan lines them up.
		for idx < len(q.Votes) && q.Votes[idx].Voter != ReplicaID(voter) {
			idx++
		}
		v := &q.Votes[idx]
		v.Marker = Round(m)
		switch hasIntervals {
		case 0:
		case 1:
			v.HasIntervals = true
			v.Intervals, b, err = intervals.Decode(b)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("types: bad interval flag %d", hasIntervals)
		}
	}
	if len(b) < len(a.Sig) {
		return nil, ErrShortBuffer
	}
	copy(a.Sig[:], b)
	return b[len(a.Sig):], nil
}

// GobEncode routes encoding/gob through the pinned QC encoding. Dead on the
// wire: the TCP transport frames the pinned encodings directly
// (msgcodec.go). It stays, with intervals.Set's, only because the
// benchmark's types.proposal_gob_encode_us probe still gob-encodes a
// proposal; it goes when a benchmark issue retires that probe.
func (q *QC) GobEncode() ([]byte, error) { return q.Encode(nil), nil }

// GobDecode reverses GobEncode.
func (q *QC) GobDecode(data []byte) error {
	dec, rest, err := DecodeQC(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("types: %d trailing bytes after gob-decoded qc", len(rest))
	}
	// A composite literal, not field stores: it also clears any door record,
	// which vouched for the old content.
	*q = QC{Block: dec.Block, Round: dec.Round, Height: dec.Height, Votes: dec.Votes, Agg: dec.Agg}
	return nil
}

// AppendEncoding appends the block's full deterministic encoding — the exact
// SHA-256 preimage of its ID — and returns the extended slice. DecodeBlock
// reverses it, so a decoded block recomputes the identical BlockID.
func (b *Block) AppendEncoding(buf []byte) []byte {
	buf = append(buf, blockMagic...)
	buf = append(buf, b.Parent[:]...)
	if b.Justify != nil {
		buf = append(buf, 1)
		buf = b.Justify.Encode(buf)
	} else {
		buf = append(buf, 0)
	}
	buf = AppendUint64(buf, uint64(b.Round))
	buf = AppendUint64(buf, uint64(b.Height))
	buf = AppendUint32(buf, uint32(b.Proposer))
	buf = AppendUint64(buf, uint64(b.Timestamp))
	buf = b.Payload.Encode(buf)
	buf = AppendUint32(buf, uint32(len(b.CommitLog)))
	for _, rec := range b.CommitLog {
		buf = rec.Encode(buf)
	}
	return buf
}

// DecodeStrengthRecord parses one light-client log entry from the front of b.
func DecodeStrengthRecord(b []byte) (StrengthRecord, []byte, error) {
	var s StrengthRecord
	var err error
	s.Block, b, err = consumeID(b)
	if err != nil {
		return s, nil, err
	}
	h, b, err := ConsumeUint64(b)
	if err != nil {
		return s, nil, err
	}
	r, b, err := ConsumeUint64(b)
	if err != nil {
		return s, nil, err
	}
	x, b, err := ConsumeUint64(b)
	if err != nil {
		return s, nil, err
	}
	s.Height, s.Round, s.X = Height(h), Round(r), int(x)
	return s, b, nil
}

// DecodeBlock parses a block encoded by AppendEncoding from the front of b.
func DecodeBlock(b []byte) (*Block, []byte, error) {
	b, err := consumeMagic(b, blockMagic)
	if err != nil {
		return nil, nil, err
	}
	blk := &Block{}
	blk.Parent, b, err = consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 1 {
		return nil, nil, ErrShortBuffer
	}
	hasJustify := b[0]
	b = b[1:]
	switch hasJustify {
	case 0:
	case 1:
		blk.Justify, b, err = DecodeQC(b)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("types: bad justify flag %d", hasJustify)
	}
	r, b, err := ConsumeUint64(b)
	if err != nil {
		return nil, nil, err
	}
	h, b, err := ConsumeUint64(b)
	if err != nil {
		return nil, nil, err
	}
	proposer, b, err := ConsumeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	ts, b, err := ConsumeUint64(b)
	if err != nil {
		return nil, nil, err
	}
	blk.Round, blk.Height = Round(r), Height(h)
	blk.Proposer, blk.Timestamp = ReplicaID(proposer), int64(ts)
	blk.Payload, b, err = DecodePayload(b)
	if err != nil {
		return nil, nil, err
	}
	n, b, err := ConsumeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if n > 0 {
		if uint64(n)*56 > uint64(len(b)) {
			return nil, nil, ErrShortBuffer
		}
		blk.CommitLog = make([]StrengthRecord, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var rec StrengthRecord
		rec, b, err = DecodeStrengthRecord(b)
		if err != nil {
			return nil, nil, err
		}
		blk.CommitLog = append(blk.CommitLog, rec)
	}
	return blk, b, nil
}
