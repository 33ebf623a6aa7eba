package statesync

import (
	"testing"

	"repro/internal/blockstore"
	"repro/internal/types"
)

// chainFixture builds a store holding a linear certified chain of length n
// (every block certified, each block's justify certifying its parent) and
// returns the store plus the blocks in ascending order.
func chainFixture(t *testing.T, n int) (*blockstore.Store, []*types.Block) {
	t.Helper()
	s := blockstore.New()
	parent := s.Genesis()
	parentQC := s.HighQC()
	blocks := make([]*types.Block, 0, n)
	for i := 1; i <= n; i++ {
		b := types.NewBlock(parent.ID(), parentQC, types.Round(i), types.Height(i), 0, int64(i), types.Payload{}, nil)
		if err := s.Insert(b); err != nil {
			t.Fatalf("insert h%d: %v", i, err)
		}
		qc := forge(b)
		if _, _, err := s.RegisterQC(qc); err != nil {
			t.Fatalf("register h%d: %v", i, err)
		}
		blocks = append(blocks, b)
		parent, parentQC = b, qc
	}
	return s, blocks
}

// forge builds an unsigned 3-vote certificate for b (structure-valid for
// quorum 3; signature checks are off in these tests).
func forge(b *types.Block) *types.QC {
	votes := make([]types.Vote, 3)
	for i := range votes {
		votes[i] = types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: types.ReplicaID(i)}
	}
	return &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
}

func TestServeReturnsAscendingConnectedSegment(t *testing.T) {
	s, blocks := chainFixture(t, 10)
	resp := Serve(s, NewRequest(4, 1), 0, 0)
	if resp == nil {
		t.Fatal("no response for a lagging requester")
	}
	if len(resp.Blocks) != 6 {
		t.Fatalf("served %d blocks, want 6 (heights 5..10)", len(resp.Blocks))
	}
	for i, b := range resp.Blocks {
		if b.Height != types.Height(5+i) {
			t.Fatalf("segment position %d has height %d", i, b.Height)
		}
	}
	if resp.HighQC == nil || resp.HighQC.Block != blocks[9].ID() {
		t.Fatal("segment reaching the tip must carry the responder's high QC")
	}
}

func TestServeCapsAtLowEnd(t *testing.T) {
	s, _ := chainFixture(t, 10)
	resp := Serve(s, NewRequest(0, 1), 0, 4)
	if len(resp.Blocks) != 4 {
		t.Fatalf("served %d blocks, want cap 4", len(resp.Blocks))
	}
	// The LOWEST four, so the first connects to the requester's chain.
	if resp.Blocks[0].Height != 1 || resp.Blocks[3].Height != 4 {
		t.Fatalf("cap kept wrong end: heights %d..%d", resp.Blocks[0].Height, resp.Blocks[3].Height)
	}
	if resp.HighQC != nil {
		t.Fatal("capped segment does not reach the tip; no high QC expected")
	}
}

func TestServeNothingForCaughtUpPeer(t *testing.T) {
	s, _ := chainFixture(t, 5)
	if resp := Serve(s, NewRequest(5, 1), 0, 0); resp != nil {
		t.Fatalf("served %d blocks to a caught-up peer", len(resp.Blocks))
	}
}

func TestApplyInstallsSegment(t *testing.T) {
	src, blocks := chainFixture(t, 8)
	resp := Serve(src, NewRequest(0, 1), 0, 0)

	dst := blockstore.New()
	var installed, qcs int
	var high *types.QC
	ap := Applier{
		Store:     dst,
		Quorum:    3,
		OnInstall: func(*types.Block) { installed++ },
		OnCert: func(qc *types.QC, standalone bool) {
			if standalone {
				high = qc
			} else {
				qcs++
			}
		},
	}
	n, err := ap.Apply(resp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || installed != 8 {
		t.Fatalf("installed %d/%d blocks, want 8", n, installed)
	}
	for _, b := range blocks {
		if !dst.Has(b.ID()) {
			t.Fatalf("missing %v after apply", b)
		}
	}
	if high == nil || high.Block != blocks[7].ID() {
		t.Fatal("high QC hook not invoked with the tip certificate")
	}
	// Justifies certify heights 0..7; the tip's own cert arrives via the
	// high QC hook which the engine registers.
	if !dst.IsCertified(blocks[6].ID()) {
		t.Fatal("interior blocks must come out certified")
	}
}

func TestApplyRejectsBrokenLink(t *testing.T) {
	src, blocks := chainFixture(t, 6)
	resp := Serve(src, NewRequest(0, 1), 0, 0)
	// Corrupt the middle: swap in a justify that does not certify the
	// parent.
	bad := *resp.Blocks[3]
	bad.Justify = forge(blocks[5])
	resp.Blocks[3] = &bad

	dst := blockstore.New()
	ap := Applier{Store: dst, Quorum: 3}
	n, err := ap.Apply(resp)
	if err == nil {
		t.Fatal("broken segment accepted")
	}
	if n != 3 {
		t.Fatalf("installed %d blocks before the bad link, want 3", n)
	}
}

func TestApplyRejectsUnderQuorumCertificate(t *testing.T) {
	src, _ := chainFixture(t, 3)
	resp := Serve(src, NewRequest(0, 1), 0, 0)
	resp.Blocks[1].Justify.Votes = resp.Blocks[1].Justify.Votes[:1] // gut the quorum

	dst := blockstore.New()
	ap := Applier{Store: dst, Quorum: 3}
	if _, err := ap.Apply(resp); err == nil {
		t.Fatal("under-quorum certificate accepted")
	}
}

func TestApplySkipsKnownBlocks(t *testing.T) {
	src, _ := chainFixture(t, 5)
	resp := Serve(src, NewRequest(0, 1), 0, 0)
	dst := blockstore.New()
	ap := Applier{Store: dst, Quorum: 3}
	if _, err := ap.Apply(resp); err != nil {
		t.Fatal(err)
	}
	n, err := ap.Apply(resp) // idempotent re-apply
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-apply installed %d blocks, want 0", n)
	}
}
