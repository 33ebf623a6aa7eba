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
	// Tag 10 carried the round entry of a removed pacemaker mode. It is
	// retired the same way; the blank keeps the next new tag off it.
	_
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
	// HighRound duplicates HighQC.Round under the signature. Receivers
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

// SigningPayload returns the bytes the sender signs: round, sender and the
// claimed high-QC round.
func (t *Timeout) SigningPayload() []byte {
	b := append(make([]byte, 0, 32), "timeout/"...)
	b = AppendUint64(b, uint64(t.Round))
	b = AppendUint32(b, uint32(t.Sender))
	return AppendUint64(b, uint64(t.HighRound))
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
