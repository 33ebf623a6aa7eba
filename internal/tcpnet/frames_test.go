package tcpnet_test

import (
	"testing"
	"time"

	"repro/internal/tcpnet"
	"repro/internal/types"
)

func TestUnknownPeerRejected(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	if err := nt.Send(9, &types.VoteMsg{}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestSpoofedSenderDropped(t *testing.T) {
	nt, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	// Handshake as replica 2, then claim frames are from replica 3.
	p := dialRaw(t, nt.Addr().String(), 2)
	defer p.conn.Close()
	// Spoofed frame: must be dropped.
	p.send(t, 3, &types.VoteMsg{Vote: types.Vote{Round: 1}})
	// Genuine frame: must arrive.
	p.send(t, 2, &types.VoteMsg{Vote: types.Vote{Round: 2}})

	select {
	case in := <-nt.Recv():
		if in.From != 2 {
			t.Fatalf("received frame from %v", in.From)
		}
		if vm, ok := in.Msg.(*types.VoteMsg); !ok || vm.Vote.Round != 2 {
			t.Fatalf("wrong message surfaced: %v", in.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("genuine frame never arrived")
	}
	select {
	case in := <-nt.Recv():
		t.Fatalf("unexpected second frame: %+v", in)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestMessageRoundTripAllTypes(t *testing.T) {
	a, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.Listen(tcpnet.Config{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers(map[types.ReplicaID]string{1: b.Addr().String()})

	g := types.Genesis()
	blk := types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), 1, 1, 0, 7,
		types.Payload{Txns: []types.Transaction{{Sender: 3, Seq: 4, Data: []byte("x")}}, Padding: 9},
		[]types.StrengthRecord{{Block: g.ID(), Height: 0, Round: 0, X: 2}})
	msgs := []types.Message{
		&types.Proposal{Block: blk, Round: 1, Sender: 0, Signature: []byte("s")},
		&types.VoteMsg{Vote: types.Vote{Block: blk.ID(), Round: 1, Voter: 0, Marker: 5}},
		&types.Timeout{Round: 2, HighQC: types.NewGenesisQC(g.ID()), Sender: 0},
		&types.Echo{Inner: &types.VoteMsg{Vote: types.Vote{Round: 3}}, Relayer: 0},
		&types.ExtraVote{Vote: types.Vote{Round: 4}, Leader: 0},
		&types.StateSyncRequest{Have: 3, Sender: 0},
		&types.StateSyncResponse{Blocks: []*types.Block{blk}, HighQC: types.NewGenesisQC(g.ID()), Sender: 0},
	}
	for _, m := range msgs {
		if err := a.Send(1, m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	for i := range msgs {
		select {
		case in := <-b.Recv():
			if in.Msg.Type() != msgs[i].Type() {
				t.Fatalf("message %d: type %d, want %d", i, in.Msg.Type(), msgs[i].Type())
			}
			if p, ok := in.Msg.(*types.Proposal); ok {
				if p.Block.ID() != blk.ID() {
					t.Fatal("block hash changed across the wire")
				}
				if p.Block.Payload.Padding != 9 || len(p.Block.CommitLog) != 1 {
					t.Fatal("block fields lost across the wire")
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}
