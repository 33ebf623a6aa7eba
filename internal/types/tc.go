package types

import (
	"fmt"
	"sort"
)

// TCAttestation is one replica's contribution to a timeout certificate: the
// (sender, highest-QC-round) pair under the sender's timeout signature. The
// signature covers TimeoutSigningPayload(round, sender, highRound), i.e. the
// exact bytes the sender signed on its Timeout message, so a TC is verifiable
// without shipping the 2f+1 full HighQC certificates.
type TCAttestation struct {
	Sender    ReplicaID
	HighRound Round
	Signature []byte
}

// TC is a timeout certificate: 2f+1 distinct signed timeouts for one round,
// reduced to their attestations. It proves that a quorum gave up on Round —
// legal justification for entering Round+1 — and its highest attested QC
// round bounds what the next leader may extend (a leader proposing below
// MaxHighRound after a TC is discarding certified work and is rejected).
type TC struct {
	Round        Round
	Attestations []TCAttestation
}

// NewTC assembles a certificate from 2f+1 collected timeouts, attestations
// sorted ascending by sender so the encoding is deterministic regardless of
// arrival order.
func NewTC(round Round, timeouts []*Timeout) *TC {
	tc := &TC{Round: round, Attestations: make([]TCAttestation, 0, len(timeouts))}
	for _, t := range timeouts {
		tc.Attestations = append(tc.Attestations, TCAttestation{
			Sender:    t.Sender,
			HighRound: t.HighRound,
			Signature: t.Signature,
		})
	}
	sort.Slice(tc.Attestations, func(i, j int) bool {
		return tc.Attestations[i].Sender < tc.Attestations[j].Sender
	})
	return tc
}

// MaxHighRound returns the highest QC round any attester claimed — the floor
// a TC-justified proposal must extend.
func (tc *TC) MaxHighRound() Round {
	var high Round
	for i := range tc.Attestations {
		if r := tc.Attestations[i].HighRound; r > high {
			high = r
		}
	}
	return high
}

// CheckStructure validates everything about the TC that does not require
// cryptography: at least quorum attestations, ascending distinct senders
// (which also pins the deterministic encoding order), and no attested QC
// round at or above the certificate's own round.
func (tc *TC) CheckStructure(quorum int) error {
	if len(tc.Attestations) < quorum {
		return fmt.Errorf("tc r%d: %d attestations < quorum %d", tc.Round, len(tc.Attestations), quorum)
	}
	prev := -1
	for i := range tc.Attestations {
		a := &tc.Attestations[i]
		if int(a.Sender) <= prev {
			return fmt.Errorf("tc r%d: attester %s out of order or duplicated", tc.Round, a.Sender)
		}
		prev = int(a.Sender)
		if a.HighRound >= tc.Round {
			return fmt.Errorf("tc r%d: attested high round %d not below certificate round", tc.Round, a.HighRound)
		}
	}
	return nil
}

// Size returns the modeled wire size of the TC in bytes.
func (tc *TC) Size() int {
	n := len(tcMagic) + 8 + 4
	for i := range tc.Attestations {
		n += 4 + 8 + 4 + len(tc.Attestations[i].Signature)
	}
	return n
}

// String renders the TC for logs.
func (tc *TC) String() string {
	return fmt.Sprintf("tc{r%d, %d attestations}", tc.Round, len(tc.Attestations))
}

var tcMagic = []byte("tc/")

// Encode appends the deterministic encoding of the TC — magic, round,
// attestation count, then per-attestation (sender, high round, signature)
// frames — and returns the extended slice. DecodeTC reverses it.
func (tc *TC) Encode(b []byte) []byte {
	b = append(b, tcMagic...)
	b = AppendUint64(b, uint64(tc.Round))
	b = AppendUint32(b, uint32(len(tc.Attestations)))
	for i := range tc.Attestations {
		a := &tc.Attestations[i]
		b = AppendUint32(b, uint32(a.Sender))
		b = AppendUint64(b, uint64(a.HighRound))
		b = AppendBytes(b, a.Signature)
	}
	return b
}

// DecodeTC parses a certificate encoded by TC.Encode from the front of b,
// returning the TC and the remaining bytes. Signatures are copied, so the
// certificate does not alias b.
func DecodeTC(b []byte) (*TC, []byte, error) {
	b, err := consumeMagic(b, tcMagic)
	if err != nil {
		return nil, nil, err
	}
	r, b, err := ConsumeUint64(b)
	if err != nil {
		return nil, nil, err
	}
	n, b, err := ConsumeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	tc := &TC{Round: Round(r)}
	if n > 0 {
		// An attestation frame is at least its 4-byte sender, 8-byte high
		// round, and 4-byte empty-signature prefix. Bounding the count by that
		// floor caps the pre-allocation at ~2x the input size, so a corrupt
		// count fails cleanly instead of attempting a huge allocation.
		const minAttFrame = 4 + 8 + 4
		if uint64(n)*minAttFrame > uint64(len(b)) {
			return nil, nil, ErrShortBuffer
		}
		tc.Attestations = make([]TCAttestation, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var a TCAttestation
		sender, rest, err := ConsumeUint32(b)
		if err != nil {
			return nil, nil, err
		}
		high, rest, err := ConsumeUint64(rest)
		if err != nil {
			return nil, nil, err
		}
		sig, rest, err := ConsumeBytes(rest)
		if err != nil {
			return nil, nil, err
		}
		a.Sender, a.HighRound = ReplicaID(sender), Round(high)
		if len(sig) > 0 {
			a.Signature = append([]byte(nil), sig...)
		}
		tc.Attestations = append(tc.Attestations, a)
		b = rest
	}
	return tc, b, nil
}

// GobEncode mirrors QC.GobEncode and, like it, is dead on the wire: kept
// only for the benchmark's gob probe.
func (tc *TC) GobEncode() ([]byte, error) { return tc.Encode(nil), nil }

// GobDecode reverses GobEncode.
func (tc *TC) GobDecode(data []byte) error {
	dec, rest, err := DecodeTC(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("types: %d trailing bytes after gob-decoded tc", len(rest))
	}
	*tc = *dec
	return nil
}
