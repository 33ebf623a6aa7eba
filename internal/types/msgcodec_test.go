package types_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/intervals"
	"repro/internal/types"
)

// payloadOf builds a payload of n 64-byte transactions (nil for n == 0).
func payloadOf(n int) types.Payload {
	var p types.Payload
	for i := 0; i < n; i++ {
		p.Txns = append(p.Txns, types.Transaction{Sender: uint32(i % 7), Seq: uint64(i), Data: bytes.Repeat([]byte{byte(i)}, 64)})
	}
	return p
}

// blocksOf visits every block a message carries.
func blocksOf(m types.Message, visit func(*types.Block)) {
	switch m := m.(type) {
	case *types.Proposal:
		if m.Block != nil {
			visit(m.Block)
		}
	case *types.Echo:
		if m.Inner != nil {
			blocksOf(m.Inner, visit)
		}
	case *types.StateSyncResponse:
		for _, b := range m.Blocks {
			visit(b)
		}
	}
}

func encodeMessage(t testing.TB, m types.Message) []byte {
	t.Helper()
	b, err := types.AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return b
}

// TestMessageCodecRoundTrip pins, for every message type and the field
// shapes the engines produce, that decode(encode(m)) is deep-equal to m and
// that encode→decode→encode is a byte fixpoint.
func TestMessageCodecRoundTrip(t *testing.T) {
	vectorQC, compactQC := seedQC(), mkCompactQC(0, 2, 5, 64)
	compactQC.Votes[1].Marker = 4
	compactQC.Votes[2].HasIntervals = true
	compactQC.Votes[2].Intervals = intervals.New(intervals.Interval{Lo: 2, Hi: 6})
	small := seedBlock()
	empty := types.NewBlock(vectorQC.Block, compactQC, 44, 19, 1, 99, types.Payload{}, nil)
	big := types.NewBlock(vectorQC.Block, vectorQC, 45, 20, 3, 100, payloadOf(1024), nil)
	appVote := seedVote()
	appVote.AppHash = [32]byte{1, 2, 3}
	proposal := &types.Proposal{Block: small, Round: 43, Sender: 2, Signature: []byte("prop-sig")}

	cases := []struct {
		name string
		msg  types.Message
	}{
		{"proposal", proposal},
		{"proposal/empty payload, compact justify", &types.Proposal{Block: empty, Round: 44, Sender: 1}},
		{"proposal/1024 txns", &types.Proposal{Block: big, Round: 45, Sender: 3, Signature: []byte("s")}},
		{"proposal/nil block", &types.Proposal{Round: 9, Sender: 4, Signature: []byte("s")}},
		{"vote/marker", &types.VoteMsg{Vote: seedVote()}},
		{"vote/intervals", &types.VoteMsg{Vote: seedIntervalVote()}},
		{"vote/apphash", &types.VoteMsg{Vote: appVote}},
		{"vote/zero", &types.VoteMsg{}},
		{"timeout/vector qc", &types.Timeout{Round: 50, HighQC: vectorQC, HighRound: 42, Sender: 6, Signature: []byte("to-sig")}},
		{"timeout/compact qc", &types.Timeout{Round: 50, HighQC: compactQC, HighRound: 7, Sender: 6}},
		{"timeout/nil high qc", &types.Timeout{Round: 51, Sender: 1, Signature: []byte("s")}},
		{"echo", &types.Echo{Inner: proposal, Relayer: 3}},
		{"echo/nested", &types.Echo{Inner: &types.Echo{Inner: &types.VoteMsg{Vote: seedVote()}, Relayer: 1}, Relayer: 2}},
		{"echo/nil inner", &types.Echo{Relayer: 5}},
		{"extra vote", &types.ExtraVote{Vote: seedIntervalVote(), Leader: 4}},
		{"state sync request", &types.StateSyncRequest{Have: 3, Sender: 9}},
		{"state sync response", &types.StateSyncResponse{Blocks: []*types.Block{small, empty, big}, HighQC: compactQC, Sender: 0}},
		{"state sync response/nil high qc", &types.StateSyncResponse{Blocks: []*types.Block{empty}, Sender: 0}},
		{"state sync response/no blocks", &types.StateSyncResponse{Sender: 1}},
	}
	seen := map[types.MsgType]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen[tc.msg.Type()] = true
			e1 := encodeMessage(t, tc.msg)
			if types.MsgType(e1[0]) != tc.msg.Type() {
				t.Fatalf("tag %d, want %d", e1[0], tc.msg.Type())
			}
			got, err := types.DecodeMessage(e1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// A decoded block computes its ID on first use; do that on both
			// sides so the cached field compares equal — and the IDs must.
			blocksOf(tc.msg, func(b *types.Block) { b.ID() })
			blocksOf(got, func(b *types.Block) { b.ID() })
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatalf("round trip changed the message:\n got %#v\nwant %#v", got, tc.msg)
			}
			if e2 := encodeMessage(t, got); !bytes.Equal(e1, e2) {
				t.Fatal("encode→decode→encode is not a fixpoint")
			}
			if _, err := types.DecodeMessage(append(e1[:len(e1):len(e1)], 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
			if _, err := types.DecodeMessage(e1[:len(e1)-1]); err == nil {
				t.Fatal("truncated message accepted")
			}
		})
	}
	if len(seen) != 7 {
		t.Fatalf("table covers %d message types, want all 7", len(seen))
	}
}

func TestMessageCodecRejects(t *testing.T) {
	if _, err := types.AppendMessage(nil, nil); err == nil {
		t.Fatal("nil message encoded")
	}
	if _, err := types.AppendMessage(nil, &types.StateSyncResponse{Blocks: []*types.Block{nil}}); err == nil {
		t.Fatal("nil block in a sync segment encoded")
	}
	for _, in := range [][]byte{nil, {0}, {11}, {0xFF, 1, 2}} {
		if m, err := types.DecodeMessage(in); err == nil {
			t.Fatalf("%x decoded to %v", in, m)
		}
	}
	// A presence byte other than 0/1 would give one message two encodings.
	bad := encodeMessage(t, &types.Proposal{Round: 1})
	bad[1] = 2
	if _, err := types.DecodeMessage(bad); err == nil {
		t.Fatal("presence flag 2 accepted")
	}

	// Echo nesting is capped on decode so hostile wrappers cannot recurse
	// the decoder: MaxEchoDepth wrappers pass, one more does not.
	var msg types.Message = &types.VoteMsg{}
	for i := 0; i < types.MaxEchoDepth; i++ {
		msg = &types.Echo{Inner: msg}
	}
	if _, err := types.DecodeMessage(encodeMessage(t, msg)); err != nil {
		t.Fatalf("%d echo wrappers rejected: %v", types.MaxEchoDepth, err)
	}
	_, err := types.DecodeMessage(encodeMessage(t, &types.Echo{Inner: msg}))
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("%d echo wrappers: err = %v, want a nesting error", types.MaxEchoDepth+1, err)
	}
}

// retiredFrames returns well-formed bodies of the message types that left the
// wire, as the last commit that spoke them encoded them: tag 6 (block, have,
// sender), tag 7 (sender, block count, blocks) and tag 10, the round entry
// (round, optional QC, optional timeout certificate, sender, signature) in its
// QC-justified, TC-justified and unjustified forms.
func retiredFrames() [][]byte {
	id := seedBlock().ID()
	req := append([]byte{6}, id[:]...)
	req = types.AppendUint32(types.AppendUint64(req, 17), 2)
	resp := seedBlock().AppendEncoding(types.AppendUint32(types.AppendUint32([]byte{7}, 1), 1))

	entryQC := mkCompactQC(0, 1, 2).Encode(append(types.AppendUint64([]byte{10}, 8), 1))
	entryQC = types.AppendBytes(types.AppendUint32(append(entryQC, 0), 2), []byte("e"))
	// The certificate: magic, round, attestation count, then (sender, high
	// round, signature) per attester in ascending sender order.
	tc := types.AppendUint32(types.AppendUint64([]byte("tc/"), 9), 3)
	for _, a := range []struct{ sender, high uint64 }{{0, 5}, {2, 7}, {5, 8}} {
		tc = types.AppendUint64(types.AppendUint32(tc, uint32(a.sender)), a.high)
		tc = types.AppendBytes(tc, []byte(fmt.Sprintf("sig-%d", a.sender)))
	}
	entryTC := append(append(types.AppendUint64([]byte{10}, 10), 0, 1), tc...)
	entryTC = types.AppendBytes(types.AppendUint32(entryTC, 2), nil)
	entryBare := types.AppendBytes(types.AppendUint32(append(types.AppendUint64([]byte{10}, 10), 0, 0), 2), nil)
	return [][]byte{req, resp, {6}, {7}, entryQC, entryTC, entryBare, {10}}
}

// TestRetiredTagsRejected: tags 6, 7 and 10 are never reused — a body that
// starts with any of them is an unknown tag — and the tags that outlived them
// keep their numbers, so a peer at an older commit and one at this commit
// agree on every frame both still speak.
func TestRetiredTagsRejected(t *testing.T) {
	for _, frame := range retiredFrames() {
		m, err := types.DecodeMessage(frame)
		if err == nil || !strings.Contains(err.Error(), "unknown message tag") {
			t.Fatalf("tag %d body decoded to %v, err %v; want an unknown-tag error", frame[0], m, err)
		}
	}
	for tag, want := range map[types.MsgType]uint8{
		types.MsgProposal: 1, types.MsgVote: 2, types.MsgTimeout: 3, types.MsgEcho: 4, types.MsgExtraVote: 5,
		types.MsgStateSyncRequest: 8, types.MsgStateSyncResponse: 9,
	} {
		if uint8(tag) != want {
			t.Fatalf("message tag renumbered: got %d, want %d", tag, want)
		}
	}
	for _, m := range []types.Message{&types.StateSyncRequest{}, &types.StateSyncResponse{}} {
		if e := encodeMessage(t, m); types.MsgType(e[0]) != m.Type() {
			t.Fatalf("%T encodes under tag %d, Type() says %d", m, e[0], m.Type())
		}
	}
}

// TestDecodeCountsBoundAllocation: element counts come off the wire ahead of
// the elements, so each decoder must bound its count by the bytes actually
// present before it allocates. Every input here claims ~4 billion elements.
func TestDecodeCountsBoundAllocation(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xF0}
	payload := append(types.AppendUint32(nil, 0), huge...) // padding, then the txn count
	// Sender, no high QC, then the block count.
	segment := append([]byte{byte(types.MsgStateSyncResponse), 0, 0, 0, 1, 0}, huge...)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := types.DecodePayload(payload); err == nil {
			t.Fatal("payload with a forged transaction count decoded")
		}
		if _, err := types.DecodeMessage(segment); err == nil {
			t.Fatal("sync segment with a forged block count decoded")
		}
	})
	if allocs > 4 {
		t.Fatalf("forged counts cost %.0f allocations per decode", allocs)
	}
}

// FuzzDecodeMessage drives the message codec — every byte a TCP peer sends
// after the frame header lands here — with the same contract as the other
// decoders: never panic, and decode→encode must reach a fixpoint.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []types.Message{
		&types.Proposal{Block: seedBlock(), Round: 43, Sender: 2, Signature: []byte("sig")},
		&types.Proposal{Round: 1},
		&types.VoteMsg{Vote: seedIntervalVote()},
		&types.Timeout{Round: 50, HighQC: seedQC(), HighRound: 42, Sender: 6, Signature: []byte("sig")},
		&types.Echo{Inner: &types.Echo{Inner: &types.VoteMsg{Vote: seedVote()}, Relayer: 1}, Relayer: 2},
		&types.ExtraVote{Vote: seedVote(), Leader: 4},
		&types.StateSyncRequest{Have: 3, Sender: 9},
		&types.StateSyncResponse{Blocks: []*types.Block{seedBlock(), types.Genesis()}, HighQC: mkCompactQC(0, 1, 2), Sender: 0},
	}
	for _, m := range seeds {
		e := encodeMessage(f, m)
		f.Add(e)
		f.Add(e[:len(e)/2])
	}
	f.Add([]byte{})
	for _, frame := range retiredFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := types.DecodeMessage(data)
		if err != nil {
			return
		}
		e1, err := types.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		m2, err := types.DecodeMessage(e1)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		e2, err := types.AppendMessage(nil, m2)
		if err != nil || !bytes.Equal(e1, e2) {
			t.Fatalf("encode not a fixpoint (%v):\n e1: %x\n e2: %x", err, e1, e2)
		}
	})
}
