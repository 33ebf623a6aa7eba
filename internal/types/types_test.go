package types_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/intervals"
	"repro/internal/types"
)

func TestEncodingRoundTripPrimitives(t *testing.T) {
	b := types.AppendUint64(nil, 0xDEADBEEFCAFE)
	b = types.AppendUint32(b, 42)
	b = types.AppendBytes(b, []byte("hello"))

	v64, b, err := types.ConsumeUint64(b)
	if err != nil || v64 != 0xDEADBEEFCAFE {
		t.Fatalf("uint64 round trip: %x, %v", v64, err)
	}
	v32, b, err := types.ConsumeUint32(b)
	if err != nil || v32 != 42 {
		t.Fatalf("uint32 round trip: %d, %v", v32, err)
	}
	s, b, err := types.ConsumeBytes(b)
	if err != nil || string(s) != "hello" {
		t.Fatalf("bytes round trip: %q, %v", s, err)
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
}

func TestEncodingShortBuffers(t *testing.T) {
	if _, _, err := types.ConsumeUint64([]byte{1, 2}); err == nil {
		t.Error("ConsumeUint64 accepted short buffer")
	}
	if _, _, err := types.ConsumeUint32([]byte{1}); err == nil {
		t.Error("ConsumeUint32 accepted short buffer")
	}
	// Length prefix claims more bytes than available.
	bad := types.AppendUint32(nil, 100)
	if _, _, err := types.ConsumeBytes(bad); err == nil {
		t.Error("ConsumeBytes accepted truncated payload")
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	check := func(sender uint32, seq uint64, data []byte) bool {
		in := types.Transaction{Sender: sender, Seq: seq, Data: data}
		out, rest, err := types.DecodeTransaction(in.Encode(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		return out.Sender == in.Sender && out.Seq == in.Seq && bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	in := types.Payload{
		Padding: 1234,
		Txns: []types.Transaction{
			{Sender: 1, Seq: 2, Data: []byte("a")},
			{Sender: 3, Seq: 4, Data: nil},
		},
	}
	out, rest, err := types.DecodePayload(in.Encode(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d rest)", err, len(rest))
	}
	if out.Padding != in.Padding || len(out.Txns) != len(in.Txns) {
		t.Fatalf("mismatch: %+v", out)
	}
	if in.Size() != out.Size() {
		t.Fatalf("size mismatch: %d vs %d", in.Size(), out.Size())
	}
}

func TestBlockIDDeterminism(t *testing.T) {
	g := types.Genesis()
	if g.ID() != types.Genesis().ID() {
		t.Fatal("genesis not deterministic")
	}
	qc := types.NewGenesisQC(g.ID())
	b1 := types.NewBlock(g.ID(), qc, 1, 1, 0, 100, types.Payload{}, nil)
	b2 := types.NewBlock(g.ID(), qc, 1, 1, 0, 100, types.Payload{}, nil)
	if b1.ID() != b2.ID() {
		t.Fatal("identical blocks hash differently")
	}
	// Any field change must change the ID.
	for name, blk := range map[string]*types.Block{
		"round":     types.NewBlock(g.ID(), qc, 2, 1, 0, 100, types.Payload{}, nil),
		"height":    types.NewBlock(g.ID(), qc, 1, 2, 0, 100, types.Payload{}, nil),
		"proposer":  types.NewBlock(g.ID(), qc, 1, 1, 1, 100, types.Payload{}, nil),
		"timestamp": types.NewBlock(g.ID(), qc, 1, 1, 0, 101, types.Payload{}, nil),
		"payload":   types.NewBlock(g.ID(), qc, 1, 1, 0, 100, types.Payload{Padding: 1}, nil),
		"log": types.NewBlock(g.ID(), qc, 1, 1, 0, 100, types.Payload{},
			[]types.StrengthRecord{{Height: 1, X: 3}}),
	} {
		if blk.ID() == b1.ID() {
			t.Errorf("changing %s did not change the block ID", name)
		}
	}
}

func TestVoteEndorses(t *testing.T) {
	tests := []struct {
		name   string
		vote   types.Vote
		target types.Round
		want   bool
	}{
		{"direct vote always endorses", types.Vote{Round: 5, Marker: 99}, 5, true},
		{"marker below target", types.Vote{Round: 9, Marker: 3}, 5, true},
		{"marker equals target", types.Vote{Round: 9, Marker: 5}, 5, false},
		{"marker above target", types.Vote{Round: 9, Marker: 7}, 5, false},
		{"default marker endorses all", types.Vote{Round: 9, Marker: 0}, 1, true},
		{
			"interval contains target",
			types.Vote{Round: 9, HasIntervals: true, Intervals: intervals.New(intervals.Interval{Lo: 4, Hi: 6})},
			5, true,
		},
		{
			"interval gap excludes target",
			types.Vote{Round: 9, HasIntervals: true,
				Intervals: intervals.New(intervals.Interval{Lo: 1, Hi: 3}, intervals.Interval{Lo: 7, Hi: 9})},
			5, false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.vote.Endorses(tc.target); got != tc.want {
				t.Errorf("Endorses(%d) = %v, want %v", tc.target, got, tc.want)
			}
		})
	}
}

func TestVoteSigningPayloadBindsFields(t *testing.T) {
	base := types.Vote{Block: types.BlockID{1}, Round: 2, Height: 3, Voter: 4, Marker: 5}
	mut := []types.Vote{
		{Block: types.BlockID{9}, Round: 2, Height: 3, Voter: 4, Marker: 5},
		{Block: types.BlockID{1}, Round: 9, Height: 3, Voter: 4, Marker: 5},
		{Block: types.BlockID{1}, Round: 2, Height: 9, Voter: 4, Marker: 5},
		{Block: types.BlockID{1}, Round: 2, Height: 3, Voter: 9, Marker: 5},
		{Block: types.BlockID{1}, Round: 2, Height: 3, Voter: 4, Marker: 9},
		{Block: types.BlockID{1}, Round: 2, Height: 3, Voter: 4, Marker: 5, HasIntervals: true},
	}
	ref := string(base.SigningPayload())
	for i, v := range mut {
		if string(v.SigningPayload()) == ref {
			t.Errorf("mutation %d not reflected in signing payload", i)
		}
	}
}

func TestQCCheckStructure(t *testing.T) {
	id := types.BlockID{7}
	mkVote := func(voter types.ReplicaID) types.Vote {
		return types.Vote{Block: id, Round: 3, Voter: voter}
	}
	tests := []struct {
		name    string
		qc      *types.QC
		quorum  int
		wantErr bool
	}{
		{"valid", &types.QC{Block: id, Round: 3, Votes: []types.Vote{mkVote(0), mkVote(1), mkVote(2)}}, 3, false},
		{"genesis passes empty", &types.QC{Block: id, Round: 0}, 3, false},
		{"below quorum", &types.QC{Block: id, Round: 3, Votes: []types.Vote{mkVote(0)}}, 3, true},
		{"duplicate voter", &types.QC{Block: id, Round: 3, Votes: []types.Vote{mkVote(0), mkVote(0), mkVote(1)}}, 3, true},
		{
			"mismatched block",
			&types.QC{Block: id, Round: 3, Votes: []types.Vote{mkVote(0), mkVote(1), {Block: types.BlockID{8}, Round: 3, Voter: 2}}},
			3, true,
		},
		{
			"mismatched round",
			&types.QC{Block: id, Round: 3, Votes: []types.Vote{mkVote(0), mkVote(1), {Block: id, Round: 4, Voter: 2}}},
			3, true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.qc.CheckStructure(tc.quorum)
			if (err != nil) != tc.wantErr {
				t.Errorf("CheckStructure: err=%v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestQCRanksHigher(t *testing.T) {
	low := &types.QC{Round: 3}
	high := &types.QC{Round: 5}
	if !high.RanksHigher(low) || low.RanksHigher(high) {
		t.Error("rank by round broken")
	}
	if !low.RanksHigher(nil) {
		t.Error("anything outranks nil")
	}
	same := &types.QC{Round: 3}
	if low.RanksHigher(same) {
		t.Error("equal rounds must not outrank")
	}
}

func TestMessageSizesPositive(t *testing.T) {
	g := types.Genesis()
	b := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 0, types.Payload{Padding: 1000}, nil)
	msgs := []types.Message{
		&types.Proposal{Block: b, Round: 1},
		&types.VoteMsg{Vote: types.Vote{Round: 1}},
		&types.Timeout{Round: 1, HighQC: types.NewGenesisQC(g.ID())},
		&types.Echo{Inner: &types.VoteMsg{}, Relayer: 1},
		&types.ExtraVote{Vote: types.Vote{Round: 1}, Leader: 0},
	}
	seen := make(map[types.MsgType]bool)
	for _, m := range msgs {
		if m.Size() <= 0 {
			t.Errorf("%T has non-positive size", m)
		}
		if seen[m.Type()] {
			t.Errorf("%T reuses message type %d", m, m.Type())
		}
		seen[m.Type()] = true
	}
	// Padding must be counted in proposal size.
	small := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 0, types.Payload{}, nil)
	if (&types.Proposal{Block: b}).Size() <= (&types.Proposal{Block: small}).Size() {
		t.Error("padding not reflected in proposal size")
	}
}

func TestStrengthRecordEncodeDeterminism(t *testing.T) {
	rec := types.StrengthRecord{Block: types.BlockID{1}, Height: 2, Round: 3, X: 4}
	if !bytes.Equal(rec.Encode(nil), rec.Encode(nil)) {
		t.Error("record encoding not deterministic")
	}
	other := types.StrengthRecord{Block: types.BlockID{1}, Height: 2, Round: 3, X: 5}
	if bytes.Equal(rec.Encode(nil), other.Encode(nil)) {
		t.Error("X not bound in record encoding")
	}
}
