package tcpnet_test

import (
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/statesync"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testBlock(round types.Round) *types.Block {
	g := types.Genesis()
	return types.NewBlock(g.ID(), types.NewGenesisQC(g.ID()), round, types.Height(round), 0, 0, types.Payload{}, nil)
}

// recvMsg drains ch until a message of the wanted dynamic type arrives.
func recvMsg[T types.Message](t *testing.T, ch <-chan runtime.Inbound) (types.ReplicaID, T) {
	t.Helper()
	for {
		select {
		case in := <-ch:
			if m, ok := in.Msg.(T); ok {
				return in.From, m
			}
		case <-time.After(10 * time.Second):
			var zero T
			t.Fatalf("no %T delivered", zero)
		}
	}
}

// TestObserverMirrorAndRestrictions covers the wire contract between a
// replica and an attached observer: certified-chain traffic (peer frames and
// the replica's own broadcasts) is mirrored out, catch-up requests are let
// in, and anything resembling a consensus action from the observer is
// dropped and counted — an observer's vote power is structurally zero.
func TestObserverMirrorAndRestrictions(t *testing.T) {
	nt0, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt0.Close()
	nt1, err := tcpnet.Listen(tcpnet.Config{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt1.Close()
	peers := map[types.ReplicaID]string{0: nt0.Addr().String(), 1: nt1.Addr().String()}
	nt0.SetPeers(peers)
	nt1.SetPeers(peers)

	obs, err := tcpnet.DialObservers(tcpnet.ObserverConfig{
		ID:        4,
		Upstreams: map[types.ReplicaID]string{0: nt0.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	waitCond(t, "observer handshake", func() bool {
		return obs.Connected() == 1 && nt0.Observers() == 1
	})

	// A peer frame arriving at the replica is mirrored to the observer with
	// its original sender identity.
	prop := &types.Proposal{Block: testBlock(1), Round: 1, Sender: 1}
	if err := nt1.Send(0, prop); err != nil {
		t.Fatal(err)
	}
	if from, _ := recvMsg[*types.Proposal](t, nt0.Recv()); from != 1 {
		t.Fatalf("replica got proposal from %d, want 1", from)
	}
	if from, got := recvMsg[*types.Proposal](t, obs.Recv()); from != 1 || got.Round != 1 {
		t.Fatalf("observer mirror: from=%d round=%d, want peer frame from 1", from, got.Round)
	}

	// The replica's own broadcast reaches the observer too (it never crosses
	// the replica's inbound path), and its voting peer as before.
	own := &types.Proposal{Block: testBlock(2), Round: 2, Sender: 0}
	if err := nt0.Broadcast(own); err != nil {
		t.Fatal(err)
	}
	if from, got := recvMsg[*types.Proposal](t, obs.Recv()); from != 0 || got.Round != 2 {
		t.Fatalf("observer mirror: from=%d round=%d, want local frame from 0", from, got.Round)
	}
	if from, got := recvMsg[*types.Proposal](t, nt1.Recv()); from != 0 || got.Round != 2 {
		t.Fatalf("peer got broadcast from=%d round=%d, want 0 and 2", from, got.Round)
	}

	// Anything but a catch-up request from an observer — a vote, a proposal,
	// a catch-up response — must be dropped and counted, never delivered.
	restricted := []types.Message{
		&types.VoteMsg{Vote: types.Vote{Block: testBlock(1).ID(), Round: 1, Voter: 4}},
		&types.Proposal{Block: testBlock(3), Round: 3, Sender: 4},
		&types.StateSyncResponse{Blocks: []*types.Block{testBlock(3)}, Sender: 4},
	}
	for _, m := range restricted {
		if err := obs.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "restricted frame count", func() bool {
		return nt0.FrameStats().Restricted == int64(len(restricted))
	})

	// A catch-up request is whitelisted through with the observer's identity.
	if err := obs.Send(0, statesync.NewRequest(0, 4)); err != nil {
		t.Fatal(err)
	}
	if from, _ := recvMsg[*types.StateSyncRequest](t, nt0.Recv()); from != 4 {
		t.Fatalf("state-sync request from %d, want observer 4", from)
	}
	select {
	case in := <-nt0.Recv():
		t.Fatalf("observer's %T reached the replica's event loop", in.Msg)
	default:
	}
}

// TestObserverSpoofRejected: an "observer" handshake claiming a configured
// peer identity is a spoof attempt and the connection is dropped.
func TestObserverSpoofRejected(t *testing.T) {
	nt0, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt0.Close()
	nt0.SetPeers(map[types.ReplicaID]string{0: nt0.Addr().String(), 1: "127.0.0.1:1"})

	obs, err := tcpnet.DialObservers(tcpnet.ObserverConfig{
		ID:        1, // a voting replica's identity
		Upstreams: map[types.ReplicaID]string{0: nt0.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	waitCond(t, "spoofed handshake rejection", func() bool {
		return nt0.FrameStats().Spoofed >= 1
	})
	if nt0.Observers() != 0 {
		t.Fatal("spoofed observer registered")
	}
}

// TestObserverReconnectResumes: after an observer connection dies, a new
// observer with the same identity re-registers and the mirror stream resumes
// — the transport half of crash recovery (the engine half re-syncs state via
// statesync, tested in internal/observer).
func TestObserverReconnectResumes(t *testing.T) {
	nt0, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nt0.Close()
	nt0.SetPeers(map[types.ReplicaID]string{0: nt0.Addr().String()})

	obs1, err := tcpnet.DialObservers(tcpnet.ObserverConfig{
		ID:        4,
		Upstreams: map[types.ReplicaID]string{0: nt0.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "first observer attach", func() bool { return nt0.Observers() == 1 })

	if err := nt0.Broadcast(&types.Proposal{Block: testBlock(1), Round: 1, Sender: 0}); err != nil {
		t.Fatal(err)
	}
	if _, got := recvMsg[*types.Proposal](t, obs1.Recv()); got.Round != 1 {
		t.Fatal("first observer missed the mirror frame")
	}

	// Crash: the observer process goes away; the replica notices and
	// deregisters the sink.
	obs1.Close()
	waitCond(t, "observer deregistration", func() bool { return nt0.Observers() == 0 })

	// Restart: same identity reconnects and mirroring resumes.
	obs2, err := tcpnet.DialObservers(tcpnet.ObserverConfig{
		ID:        4,
		Upstreams: map[types.ReplicaID]string{0: nt0.Addr().String()},
		DialRetry: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer obs2.Close()
	waitCond(t, "observer re-attach", func() bool { return nt0.Observers() == 1 })

	if err := nt0.Broadcast(&types.Proposal{Block: testBlock(2), Round: 2, Sender: 0}); err != nil {
		t.Fatal(err)
	}
	if _, got := recvMsg[*types.Proposal](t, obs2.Recv()); got.Round != 2 {
		t.Fatal("restarted observer missed the mirror frame")
	}
}
