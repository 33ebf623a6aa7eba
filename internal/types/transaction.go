package types

// Transaction is a client request replicated by the protocol. The consensus
// layer treats the data as opaque; Sender/Seq exist so tests and the
// linearizability checker can identify transactions.
type Transaction struct {
	Sender uint32 // originating client
	Seq    uint64 // per-client sequence number
	Data   []byte // opaque command
}

// Size returns the modeled wire size of the transaction in bytes.
func (t Transaction) Size() int {
	return 12 + len(t.Data)
}

// Encode appends the deterministic encoding of the transaction.
func (t Transaction) Encode(b []byte) []byte {
	b = AppendUint32(b, t.Sender)
	b = AppendUint64(b, t.Seq)
	b = AppendBytes(b, t.Data)
	return b
}

// DecodeTransaction parses one transaction from the front of b.
func DecodeTransaction(b []byte) (Transaction, []byte, error) {
	var t Transaction
	sender, b, err := ConsumeUint32(b)
	if err != nil {
		return t, nil, err
	}
	seq, b, err := ConsumeUint64(b)
	if err != nil {
		return t, nil, err
	}
	data, b, err := ConsumeBytes(b)
	if err != nil {
		return t, nil, err
	}
	t.Sender = sender
	t.Seq = seq
	t.Data = append([]byte(nil), data...)
	return t, b, nil
}

// Payload is the batch of transactions carried by one block. The paper's
// experiments use ~1000 transactions / ~450KB per block.
//
// Padding models block bytes without materializing them: the simulator
// counts Padding toward the wire Size (so bandwidth accounting matches a
// ~450KB block) while the hash covers only the padding *length*, keeping
// block hashing cheap in long simulations. Real deployments set Padding 0.
type Payload struct {
	Txns    []Transaction
	Padding uint32
}

// Size returns the modeled wire size of the payload in bytes.
func (p Payload) Size() int {
	n := 8 + int(p.Padding)
	for _, t := range p.Txns {
		n += t.Size()
	}
	return n
}

// Encode appends the deterministic encoding of the payload.
func (p Payload) Encode(b []byte) []byte {
	b = AppendUint32(b, p.Padding)
	b = AppendUint32(b, uint32(len(p.Txns)))
	for _, t := range p.Txns {
		b = t.Encode(b)
	}
	return b
}

// minTxnEncoding is a transaction with empty data: sender, sequence number
// and the data length prefix.
const minTxnEncoding = 4 + 8 + 4

// DecodePayload parses a payload from the front of b. The transactions' data
// is copied off b into one shared backing array — a block of a thousand
// transactions costs two allocations, not a thousand — and the count is
// bounded by the input length before anything is allocated.
func DecodePayload(b []byte) (Payload, []byte, error) {
	padding, b, err := ConsumeUint32(b)
	if err != nil {
		return Payload{}, nil, err
	}
	n, b, err := ConsumeUint32(b)
	if err != nil {
		return Payload{}, nil, err
	}
	p := Payload{Padding: padding}
	if n == 0 {
		return p, b, nil
	}
	if uint64(n)*minTxnEncoding > uint64(len(b)) {
		return Payload{}, nil, ErrShortBuffer
	}
	dataLen := 0
	for scan, i := b, uint32(0); i < n; i++ {
		if len(scan) < minTxnEncoding {
			return Payload{}, nil, ErrShortBuffer
		}
		data, rest, err := ConsumeBytes(scan[minTxnEncoding-4:])
		if err != nil {
			return Payload{}, nil, err
		}
		dataLen += len(data)
		scan = rest
	}
	p.Txns = make([]Transaction, n)
	backing := make([]byte, 0, dataLen)
	for i := range p.Txns {
		t := &p.Txns[i]
		t.Sender, b, _ = ConsumeUint32(b)
		t.Seq, b, _ = ConsumeUint64(b)
		var data []byte
		data, b, _ = ConsumeBytes(b) // lengths were checked by the scan above
		if len(data) > 0 {
			off := len(backing)
			backing = append(backing, data...)
			t.Data = backing[off:len(backing):len(backing)]
		}
	}
	return p, b, nil
}
