package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/types"
)

// The wire format (the table lives in the repository's doc.go): every frame,
// the hello included, is
//
//	uint32-BE length | uint32-BE sender | type tag | body
//
// where length counts everything after itself and tag+body is
// types.AppendMessage's output. A frame is built once, never modified, and
// shared by every queue it is pushed to; a frame read from a peer is relayed
// to observers as the bytes that arrived.

const (
	// MaxFrame bounds the length field. A state-sync segment of 128 blocks
	// of ~100 KB is the largest legitimate frame; 64 MiB leaves headroom
	// while a forged length cannot claim gigabytes.
	MaxFrame = 64 << 20

	frameHeader = 4 + 4 // length, sender; the tag opens the message

	// tagHello marks the handshake, the first frame on every connection. Its
	// body is one flags byte. types.MsgType starts at 1, so the tag can
	// never collide with a message.
	tagHello      = 0
	helloObserver = 1 << 0 // the dialer is a non-voting observer

	// readChunk is how much of a frame readFrame allocates ahead of the
	// bytes actually arriving.
	readChunk = 1 << 20
)

// errBadFrame marks input that breaks the framing itself — as opposed to a
// transport failure (EOF, reset), which is an ordinary disconnect.
var errBadFrame = errors.New("tcpnet: bad frame")

// scratch holds encode buffers: a message is encoded into a pooled buffer,
// then copied to an exactly-sized frame, so steady state costs one
// allocation per frame however large the message.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// encodeFrame builds the immutable frame carrying msg from sender.
func encodeFrame(sender types.ReplicaID, msg types.Message) ([]byte, error) {
	bp := scratch.Get().(*[]byte)
	defer scratch.Put(bp)
	b := append((*bp)[:0], 0, 0, 0, 0)
	b = types.AppendUint32(b, uint32(sender))
	b, err := types.AppendMessage(b, msg)
	if err != nil {
		return nil, err
	}
	*bp = b
	if len(b)-4 > MaxFrame {
		return nil, fmt.Errorf("tcpnet: %T of %d bytes exceeds MaxFrame", msg, len(b)-4)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return append(make([]byte, 0, len(b)), b...), nil
}

// helloFrame builds the handshake frame.
func helloFrame(sender types.ReplicaID, observer bool) []byte {
	var flags byte
	if observer {
		flags = helloObserver
	}
	b := types.AppendUint32(make([]byte, 0, frameHeader+2), 4+2)
	b = types.AppendUint32(b, uint32(sender))
	return append(b, tagHello, flags)
}

// readFrame reads one frame, length prefix included. A length that cannot
// hold the sender or exceeds MaxFrame is errBadFrame before anything is
// allocated, and a large frame is allocated only as its bytes arrive, so a
// header claiming 64 MiB costs the sender 64 MiB of traffic.
func readFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 4 || n > MaxFrame {
		return nil, fmt.Errorf("%w: length %d", errBadFrame, n)
	}
	frame := append(make([]byte, 0, 4+min(n, readChunk)), hdr[:]...)
	for n > 0 {
		k := min(n, readChunk)
		frame = slices.Grow(frame, k)
		if _, err := io.ReadFull(br, frame[len(frame):len(frame)+k]); err != nil {
			return nil, err
		}
		frame = frame[:len(frame)+k]
		n -= k
	}
	return frame, nil
}

// frameSender returns the sender a frame claims.
func frameSender(frame []byte) types.ReplicaID {
	return types.ReplicaID(binary.BigEndian.Uint32(frame[4:8]))
}

// frameMessage decodes the message a frame carries.
func frameMessage(frame []byte) (types.Message, error) {
	return types.DecodeMessage(frame[frameHeader:])
}

// readHello reads the handshake: who is on the other end, and whether it is
// an observer.
func readHello(br *bufio.Reader) (from types.ReplicaID, observer bool, err error) {
	frame, err := readFrame(br)
	if err != nil {
		return 0, false, err
	}
	if len(frame) != frameHeader+2 || frame[8] != tagHello || frame[9]&^helloObserver != 0 {
		return 0, false, fmt.Errorf("%w: not a hello", errBadFrame)
	}
	return frameSender(frame), frame[9]&helloObserver != 0, nil
}
