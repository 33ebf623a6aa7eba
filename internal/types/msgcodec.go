package types

import "fmt"

// This file is the wire codec for the seven consensus messages: a one-byte
// MsgType tag followed by a body assembled from the pinned encodings the
// package already defines (Block.AppendEncoding, QC.Encode, Vote.Encode).
// internal/tcpnet frames these bytes; doc.go holds the layout table. Optional
// pointers (a proposal's block, a timeout's high QC) are a presence byte 0/1
// followed by the value, so a nil field survives the round trip and receivers
// reject it as before.
//
// Like the other decoders here, DecodeMessage accepts non-canonical input
// (interval sets normalize on decode), so byte identity with the input is
// not guaranteed — only that encode→decode→encode reaches a fixpoint. A
// decoded block's ID is therefore the hash of its re-encoding, never of the
// bytes that arrived.

// MaxEchoDepth bounds how many Echo wrappers DecodeMessage unwraps before
// rejecting the frame, so nested relays cannot recurse the decoder into a
// stack overflow. Engines cap the depth they act on lower still.
const MaxEchoDepth = 8

// minBlockEncoding is the size of the smallest block AppendEncoding can
// produce (magic, parent, justify flag, round, height, proposer, timestamp,
// empty payload, empty commit log); it bounds block-count pre-allocation.
const minBlockEncoding = 6 + 32 + 1 + 8 + 8 + 4 + 8 + 8 + 4

// AppendMessage appends m's type tag and body to b. It fails only for a nil
// interface, a message type outside the seven this package defines, or a sync
// response holding a nil block.
func AppendMessage(b []byte, m Message) ([]byte, error) {
	switch m := m.(type) {
	case *Proposal:
		b = append(b, byte(MsgProposal))
		b = appendOptBlock(b, m.Block)
		b = AppendUint64(b, uint64(m.Round))
		b = AppendUint32(b, uint32(m.Sender))
		return AppendBytes(b, m.Signature), nil
	case *VoteMsg:
		return m.Vote.Encode(append(b, byte(MsgVote))), nil
	case *Timeout:
		b = append(b, byte(MsgTimeout))
		b = AppendUint64(b, uint64(m.Round))
		b = appendOptQC(b, m.HighQC)
		b = AppendUint64(b, uint64(m.HighRound))
		b = AppendUint32(b, uint32(m.Sender))
		return AppendBytes(b, m.Signature), nil
	case *Echo:
		b = append(b, byte(MsgEcho))
		b = AppendUint32(b, uint32(m.Relayer))
		if m.Inner == nil {
			return append(b, 0), nil
		}
		return AppendMessage(append(b, 1), m.Inner)
	case *ExtraVote:
		b = m.Vote.Encode(append(b, byte(MsgExtraVote)))
		return AppendUint32(b, uint32(m.Leader)), nil
	case *StateSyncRequest:
		b = append(b, byte(MsgStateSyncRequest))
		b = AppendUint64(b, uint64(m.Have))
		return AppendUint32(b, uint32(m.Sender)), nil
	case *StateSyncResponse:
		b = append(b, byte(MsgStateSyncResponse))
		b = AppendUint32(b, uint32(m.Sender))
		b = appendOptQC(b, m.HighQC)
		return appendBlocks(b, m.Blocks)
	}
	return nil, fmt.Errorf("types: cannot encode message %T", m)
}

// DecodeMessage parses one message encoded by AppendMessage. The whole of b
// must be consumed. The message does not alias b.
func DecodeMessage(b []byte) (Message, error) {
	r := &msgReader{b: b}
	m := r.message(0)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after %T", len(r.b), m)
	}
	return m, nil
}

// msgReader consumes a message body front to back. The first failure sticks
// in err and every later read returns a zero value, so the per-type decoders
// below read as the field lists they are; callers check err once at the end.
type msgReader struct {
	b   []byte
	err error
}

func (r *msgReader) message(depth int) Message {
	tag := MsgType(r.byte())
	if r.err != nil {
		return nil
	}
	// Composite-literal fields are evaluated in source order, which is the
	// wire order.
	switch tag {
	case MsgProposal:
		return &Proposal{Block: r.optBlock(), Round: Round(r.u64()), Sender: ReplicaID(r.u32()), Signature: r.sig()}
	case MsgVote:
		return &VoteMsg{Vote: r.vote()}
	case MsgTimeout:
		return &Timeout{Round: Round(r.u64()), HighQC: r.optQC(), HighRound: Round(r.u64()), Sender: ReplicaID(r.u32()), Signature: r.sig()}
	case MsgEcho:
		if depth >= MaxEchoDepth {
			r.err = fmt.Errorf("types: echo nested deeper than %d", MaxEchoDepth)
			return nil
		}
		m := &Echo{Relayer: ReplicaID(r.u32())}
		if r.flag() {
			m.Inner = r.message(depth + 1)
		}
		return m
	case MsgExtraVote:
		return &ExtraVote{Vote: r.vote(), Leader: ReplicaID(r.u32())}
	case MsgStateSyncRequest:
		return &StateSyncRequest{Have: Height(r.u64()), Sender: ReplicaID(r.u32())}
	case MsgStateSyncResponse:
		return &StateSyncResponse{Sender: ReplicaID(r.u32()), HighQC: r.optQC(), Blocks: r.blocks()}
	}
	r.err = fmt.Errorf("types: unknown message tag %d", tag)
	return nil
}

// consume runs one of the package's (value, rest, error) decoders against
// the reader.
func consume[T any](r *msgReader, decode func([]byte) (T, []byte, error)) T {
	var zero T
	if r.err != nil {
		return zero
	}
	v, rest, err := decode(r.b)
	if err != nil {
		r.err = err
		return zero
	}
	r.b = rest
	return v
}

func (r *msgReader) u64() uint64 { return consume(r, ConsumeUint64) }
func (r *msgReader) u32() uint32 { return consume(r, ConsumeUint32) }
func (r *msgReader) vote() Vote  { return consume(r, DecodeVote) }

func (r *msgReader) byte() byte {
	if r.err == nil && len(r.b) < 1 {
		r.err = ErrShortBuffer
	}
	if r.err != nil {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// flag reads a presence byte, which must be exactly 0 or 1 so every message
// has one encoding.
func (r *msgReader) flag() bool {
	c := r.byte()
	if c > 1 {
		r.err = fmt.Errorf("types: bad presence flag %d", c)
	}
	return r.err == nil && c == 1
}

// sig reads a length-prefixed signature, copied off the input; an empty one
// decodes to nil.
func (r *msgReader) sig() []byte {
	sig := consume(r, ConsumeBytes)
	if len(sig) == 0 {
		return nil
	}
	return append([]byte(nil), sig...)
}

func (r *msgReader) optQC() *QC {
	if !r.flag() {
		return nil
	}
	return consume(r, DecodeQC)
}

func (r *msgReader) optBlock() *Block {
	if !r.flag() {
		return nil
	}
	return consume(r, DecodeBlock)
}

func (r *msgReader) blocks() []*Block {
	n := r.u32()
	if r.err != nil || n == 0 {
		return nil
	}
	if uint64(n)*minBlockEncoding > uint64(len(r.b)) {
		r.err = ErrShortBuffer
		return nil
	}
	blocks := make([]*Block, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		blocks = append(blocks, consume(r, DecodeBlock))
	}
	return blocks
}

func appendOptBlock(b []byte, blk *Block) []byte {
	if blk == nil {
		return append(b, 0)
	}
	return blk.AppendEncoding(append(b, 1))
}

func appendOptQC(b []byte, qc *QC) []byte {
	if qc == nil {
		return append(b, 0)
	}
	return qc.Encode(append(b, 1))
}

func appendBlocks(b []byte, blocks []*Block) ([]byte, error) {
	b = AppendUint32(b, uint32(len(blocks)))
	for _, blk := range blocks {
		if blk == nil {
			return nil, fmt.Errorf("types: cannot encode a nil block in a sync segment")
		}
		b = blk.AppendEncoding(b)
	}
	return b, nil
}
