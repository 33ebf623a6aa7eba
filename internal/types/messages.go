package types

import "fmt"

// MsgType discriminates the wire messages of the consensus engines.
type MsgType uint8

// Message types. Streamlet shares Proposal/VoteMsg; EchoMsg wraps a relayed
// message for Streamlet's echo mechanism.
const (
	MsgProposal MsgType = iota + 1
	MsgVote
	MsgTimeout
	MsgEcho
	MsgExtraVote // FBFT baseline: a late vote multicast by the leader
	// Tags 6 and 7 carried a per-block sync protocol that state sync
	// superseded. They are retired, never reused: DecodeMessage rejects them.
	_
	_
	MsgStateSyncRequest
	MsgStateSyncResponse
	MsgRoundEntry // active pacemaker: justified round-entry announcement
)

// Message is the interface implemented by every consensus wire message.
type Message interface {
	// Type returns the message discriminator.
	Type() MsgType
	// Size returns the modeled wire size in bytes, used by the harness to
	// account for bandwidth overhead.
	Size() int
}

// Proposal carries ⟨propose, B_k, r⟩_{L_r}: the leader's block for round r.
// The block embeds the justifying QC, so no separate QC field is needed.
type Proposal struct {
	Block     *Block
	Round     Round
	Sender    ReplicaID
	Signature []byte
}

// Type implements Message.
func (p *Proposal) Type() MsgType { return MsgProposal }

// Size implements Message. A nil block (possible on a decoded frame from a
// malicious peer; receivers reject it) counts only the envelope.
func (p *Proposal) Size() int {
	n := 1 + 8 + 4 + len(p.Signature)
	if p.Block != nil {
		n += p.Block.Size()
	}
	return n
}

// SigningPayload returns the bytes the proposer signs.
func (p *Proposal) SigningPayload() []byte {
	b := make([]byte, 0, 64)
	b = append(b, "prop/"...)
	id := p.Block.ID()
	b = append(b, id[:]...)
	b = AppendUint64(b, uint64(p.Round))
	b = AppendUint32(b, uint32(p.Sender))
	return b
}

// String renders the proposal for logs.
func (p *Proposal) String() string {
	return fmt.Sprintf("proposal{r%d %s}", p.Round, p.Block)
}

// VoteMsg carries one strong-vote to its recipient (the next leader in
// DiemBFT; everyone in Streamlet).
type VoteMsg struct {
	Vote Vote
}

// Type implements Message.
func (m *VoteMsg) Type() MsgType { return MsgVote }

// Size implements Message.
func (m *VoteMsg) Size() int { return 1 + m.Vote.Size() }

// String renders the message for logs.
func (m *VoteMsg) String() string { return m.Vote.String() }

// Timeout carries ⟨timeout, r, qc_high⟩_i: replica i gave up on round r and
// reports its highest QC so the next leader can extend it.
type Timeout struct {
	Round  Round
	HighQC *QC
	// HighRound duplicates HighQC.Round under the signature, so a timeout
	// certificate can carry just the 2f+1 (sender, high-round, signature)
	// attestations — verifiable without shipping 2f+1 full QCs — and bound
	// the next leader's proposal by the highest attested QC round. Receivers
	// reject timeouts whose HighRound disagrees with the embedded HighQC.
	HighRound Round
	Sender    ReplicaID
	Signature []byte
}

// Type implements Message.
func (t *Timeout) Type() MsgType { return MsgTimeout }

// Size implements Message.
func (t *Timeout) Size() int {
	n := 1 + 8 + 8 + 4 + len(t.Signature)
	if t.HighQC != nil {
		n += t.HighQC.Size()
	}
	return n
}

// TimeoutSigningPayload appends the bytes a replica signs for a timeout of
// round r claiming highest QC round high, and returns the extended slice.
// Shared by Timeout.SigningPayload and TC attestation verification, which
// reconstructs the same payload from the attestation fields alone.
func TimeoutSigningPayload(b []byte, r Round, sender ReplicaID, high Round) []byte {
	b = append(b, "timeout/"...)
	b = AppendUint64(b, uint64(r))
	b = AppendUint32(b, uint32(sender))
	b = AppendUint64(b, uint64(high))
	return b
}

// SigningPayload returns the bytes the sender signs.
func (t *Timeout) SigningPayload() []byte {
	return TimeoutSigningPayload(make([]byte, 0, 32), t.Round, t.Sender, t.HighRound)
}

// String renders the timeout for logs.
func (t *Timeout) String() string { return fmt.Sprintf("timeout{r%d by %s}", t.Round, t.Sender) }

// Echo wraps a message relayed by Streamlet's "echo every previously unseen
// message" rule.
type Echo struct {
	Inner   Message
	Relayer ReplicaID
}

// Type implements Message.
func (e *Echo) Type() MsgType { return MsgEcho }

// Size implements Message. A nil inner message (malicious relay) counts
// only the wrapper.
func (e *Echo) Size() int {
	n := 1 + 4
	if e.Inner != nil {
		n += e.Inner.Size()
	}
	return n
}

// String renders the echo for logs.
func (e *Echo) String() string { return fmt.Sprintf("echo{%v by %s}", e.Inner, e.Relayer) }

// StateSyncRequest asks a peer for the certified chain above the
// requester's committed height. It is the catch-up message of
// internal/statesync: a replica that recovered from its journal, or met a
// proposal whose parent it does not hold, asks for everything after the
// point it got to.
type StateSyncRequest struct {
	// Have is the requester's committed height; responders send certified
	// blocks strictly above it.
	Have   Height
	Sender ReplicaID
}

// Type implements Message.
func (s *StateSyncRequest) Type() MsgType { return MsgStateSyncRequest }

// Size implements Message.
func (s *StateSyncRequest) Size() int { return 1 + 8 + 4 }

// String renders the request for logs.
func (s *StateSyncRequest) String() string {
	return fmt.Sprintf("statesyncreq{above h%d by %s}", s.Have, s.Sender)
}

// StateSyncResponse carries a contiguous ascending certified chain segment
// starting just above the requester's committed height. Interior blocks are
// certified by their successor's embedded justify QC; HighQC certifies the
// final block when the segment reaches the responder's tip.
type StateSyncResponse struct {
	Blocks []*Block
	HighQC *QC
	Sender ReplicaID
}

// Type implements Message.
func (s *StateSyncResponse) Type() MsgType { return MsgStateSyncResponse }

// Size implements Message.
func (s *StateSyncResponse) Size() int {
	n := 1 + 4
	for _, b := range s.Blocks {
		if b != nil {
			n += b.Size()
		}
	}
	if s.HighQC != nil {
		n += s.HighQC.Size()
	}
	return n
}

// String renders the response for logs.
func (s *StateSyncResponse) String() string {
	return fmt.Sprintf("statesyncresp{%d blocks by %s}", len(s.Blocks), s.Sender)
}

// ExtraVote is the Appendix B FBFT baseline message: after a QC already
// formed with 2f+1 votes, the round's leader multicasts each additional
// late vote so that replicas can grow the block's direct-vote quorum.
type ExtraVote struct {
	Vote   Vote
	Leader ReplicaID
}

// Type implements Message.
func (m *ExtraVote) Type() MsgType { return MsgExtraVote }

// Size implements Message.
func (m *ExtraVote) Size() int { return 1 + 4 + m.Vote.Size() }

// String renders the message for logs.
func (m *ExtraVote) String() string {
	return fmt.Sprintf("extravote{%v via %s}", m.Vote, m.Leader)
}

// RoundEntry announces justified entry into a round (the active pacemaker's
// Jolteon-style advance message): exactly one of Justify (a QC for round
// Round-1) or TC (a timeout certificate for round Round-1) proves the sender
// entered Round legally. Replicas reject entries whose justification does not
// prove the advance, so a liar cannot drag honest replicas into future views.
type RoundEntry struct {
	Round     Round
	Justify   *QC // QC path: certifies round Round-1
	TC        *TC // TC path: 2f+1 timeouts for round Round-1
	Sender    ReplicaID
	Signature []byte
}

// Type implements Message.
func (e *RoundEntry) Type() MsgType { return MsgRoundEntry }

// Size implements Message.
func (e *RoundEntry) Size() int {
	n := 1 + 8 + 4 + len(e.Signature)
	if e.Justify != nil {
		n += e.Justify.Size()
	}
	if e.TC != nil {
		n += e.TC.Size()
	}
	return n
}

// SigningPayload returns the bytes the sender signs: round, sender, and the
// justification's identity (kind, round, and — for the QC path — the
// certified block), so a signature cannot be replayed onto a different
// justification.
func (e *RoundEntry) SigningPayload() []byte {
	b := make([]byte, 0, 64)
	b = append(b, "entry/"...)
	b = AppendUint64(b, uint64(e.Round))
	b = AppendUint32(b, uint32(e.Sender))
	switch {
	case e.Justify != nil:
		b = append(b, 1)
		b = AppendUint64(b, uint64(e.Justify.Round))
		b = append(b, e.Justify.Block[:]...)
	case e.TC != nil:
		b = append(b, 2)
		b = AppendUint64(b, uint64(e.TC.Round))
	default:
		b = append(b, 0)
	}
	return b
}

// String renders the entry for logs.
func (e *RoundEntry) String() string {
	switch {
	case e.Justify != nil:
		return fmt.Sprintf("entry{r%d by %s, qc r%d}", e.Round, e.Sender, e.Justify.Round)
	case e.TC != nil:
		return fmt.Sprintf("entry{r%d by %s, tc r%d}", e.Round, e.Sender, e.TC.Round)
	default:
		return fmt.Sprintf("entry{r%d by %s, unjustified}", e.Round, e.Sender)
	}
}
