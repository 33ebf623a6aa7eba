package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/runtime"
	"repro/internal/types"
)

// fuzzNet is a Net with no socket: just enough state for serveFrames to run
// over a byte slice.
func fuzzNet(self types.ReplicaID) *Net {
	return &Net{
		inbox: inbox{recv: make(chan runtime.Inbound, 4096), ctx: context.Background()},
		cfg:   Config{ID: self},
		peers: map[types.ReplicaID]*outQueue{3: newOutQueue(3, nil)},
	}
}

// serveAll runs the frame parser over data and returns what it delivered.
// It drains concurrently: an input decoding to more messages than the
// channel buffers must not deadlock the parser (the real transport always has
// a reader).
func serveAll(n *Net, data []byte) []runtime.Inbound {
	done := make(chan []runtime.Inbound, 1)
	go func() {
		var got []runtime.Inbound
		for in := range n.recv {
			got = append(got, in)
		}
		done <- got
	}()
	n.serveFrames(bytes.NewReader(data), nil)
	close(n.recv)
	return <-done
}

// walkFrames is the reference framing: how many whole frames data holds, and
// whether it then breaks the framing (a length that cannot hold a sender, or
// above MaxFrame) rather than just ending.
func walkFrames(data []byte) (frames [][]byte, bad bool) {
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if n < 4 || n > MaxFrame {
			return frames, true
		}
		if len(data)-4 < n {
			break
		}
		frames = append(frames, data[:4+n])
		data = data[4+n:]
	}
	return frames, false
}

func mustFrame(f testing.TB, sender types.ReplicaID, msg types.Message) []byte {
	frame, err := encodeFrame(sender, msg)
	if err != nil {
		f.Fatal(err)
	}
	return frame
}

// fuzzSeeds are raw streams in the wire format: a handshake followed by
// well-formed, spoofed, garbage and restricted frames, plus truncations.
func fuzzSeeds(f testing.TB) [][]byte {
	var id types.BlockID
	id[0] = 1
	g := types.Genesis()
	vote := &types.VoteMsg{Vote: types.Vote{Block: id, Round: 4, Voter: 2, Signature: []byte("s")}}
	odd := &types.VoteMsg{Vote: types.Vote{Block: id, Round: 3, Voter: 2}}
	prop := &types.Proposal{Block: types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 2, 0, types.Payload{Txns: []types.Transaction{{Sender: 1, Seq: 2, Data: []byte("tx")}}}, nil), Round: 1, Sender: 2}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	valid := cat(helloFrame(2, false), mustFrame(f, 2, vote), mustFrame(f, 2, prop), mustFrame(f, 2, odd))
	return [][]byte{
		valid,
		cat(helloFrame(2, false), mustFrame(f, 3, vote), mustFrame(f, 2, vote)),                                       // spoofed, then genuine
		cat(helloFrame(0, false), mustFrame(f, 0, vote)),                                                              // self-handshake
		cat(helloFrame(1, false), mustFrame(f, 1, vote)),                                                              // self for the second parser
		cat(helloFrame(2, false), []byte{0, 0, 0, 5, 0, 0, 0, 2, 0xEE}, mustFrame(f, 2, vote)),                        // no such tag, then genuine
		cat(helloFrame(2, false), []byte{0, 0, 0, 4, 0, 0, 0, 2}, mustFrame(f, 2, vote)),                              // no tag at all
		cat(helloFrame(2, false), helloFrame(2, false), mustFrame(f, 2, vote)),                                        // hello mid-stream
		cat(helloFrame(2, false), []byte{0xFF, 0xFF, 0xFF, 0xFF}, mustFrame(f, 2, vote)),                              // 4 GiB length
		cat(helloFrame(2, false), []byte{0, 0, 0, 3, 1, 2, 3}),                                                        // length below a sender
		cat(helloFrame(4, true), mustFrame(f, 4, vote), mustFrame(f, 4, &types.StateSyncRequest{Have: 1, Sender: 4})), // observer: restricted, then allowed
		cat(helloFrame(3, true), mustFrame(f, 3, &types.StateSyncRequest{Have: 1, Sender: 3})),                        // a voting peer posing as observer
		cat([]byte{0, 0, 0, 6, 0, 0, 0, 2, 0, 2}, mustFrame(f, 2, vote)),                                              // hello with unknown flag bits
		cat(mustFrame(f, 2, vote)), // no hello
		valid[:len(valid)/2],
		valid[:7],
		[]byte("not a frame at all"),
		{},
	}
}

// FuzzServeFrames feeds raw attacker-controlled bytes to the TCP frame
// parser — the handshake + frame stream every accepted connection runs — and
// pins that it never panics, never surfaces a frame whose sender differs
// from the handshake identity or claims to be this node, never delivers a nil
// message or a restricted one from an observer, and that every frame on the
// stream is accounted for: delivered, or counted in exactly one drop counter.
// The real listener gives each peer its own reader goroutine running exactly
// this loop, so these properties are the transport's whole anti-spoofing
// contract.
func FuzzServeFrames(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNet(0)
		// A prevalidation hook that rejects odd rounds exercises the
		// verified/dropped paths too.
		n.prevalidate = func(from types.ReplicaID, msg types.Message) error {
			if vm, ok := msg.(*types.VoteMsg); ok && vm.Vote.Round%2 == 1 {
				return fmt.Errorf("odd round")
			}
			return nil
		}
		got := serveAll(n, data)
		stats := n.FrameStats()

		frames, bad := walkFrames(data)
		hello := len(frames) > 0 && len(frames[0]) == frameHeader+2 && frames[0][8] == tagHello && frames[0][9] <= helloObserver
		if !hello {
			// Nothing is served without a handshake; garbage in its place
			// counts once, a stream that merely ends counts nothing.
			want := FrameStats{}
			if bad || len(frames) > 0 {
				want.Malformed = 1
			}
			if len(got) != 0 || stats != want {
				t.Fatalf("no handshake: delivered %d, stats %+v, want %+v", len(got), stats, want)
			}
			return
		}
		from, observer := frameSender(frames[0]), frames[0][9] == helloObserver
		if from == 0 || (observer && from == 3) {
			if len(got) != 0 || stats != (FrameStats{Spoofed: 1}) {
				t.Fatalf("spoofed handshake from %d: delivered %d, stats %+v", from, len(got), stats)
			}
			return
		}
		for _, in := range got {
			if in.Msg == nil {
				t.Fatal("nil message surfaced to the engine loop")
			}
			if in.From != from {
				t.Fatalf("frame from %d surfaced on a connection that shook hands as %d", in.From, from)
			}
			if !in.Verified {
				t.Fatal("unverified frame surfaced despite a prevalidation hook")
			}
			if vm, ok := in.Msg.(*types.VoteMsg); ok && vm.Vote.Round%2 == 1 {
				t.Fatal("frame the hook rejected was delivered")
			}
			if observer && !observerMay(in.Msg) {
				t.Fatalf("observer connection delivered a %T", in.Msg)
			}
		}
		want := int64(len(frames) - 1)
		if bad {
			want++ // the frame that broke the stream
		}
		if sum := int64(len(got)) + stats.Spoofed + stats.Malformed + stats.Prevalidated + stats.Restricted; sum != want {
			t.Fatalf("%d frames after the handshake, but %d delivered + %+v", want, len(got), stats)
		}
		if !observer && stats.Restricted != 0 {
			t.Fatalf("restricted drops on a peer connection: %+v", stats)
		}
	})
}

// FuzzServeFramesMultiPeer replays the same bytes through two parsers with
// different self-IDs: the spoofing filter must key on the handshake, not on
// absolute IDs.
func FuzzServeFramesMultiPeer(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, self := range []types.ReplicaID{0, 1} {
			for _, in := range serveAll(fuzzNet(self), data) {
				if in.From == self {
					t.Fatalf("self=%d surfaced a frame claiming self origin", self)
				}
			}
		}
	})
}
