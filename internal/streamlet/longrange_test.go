package streamlet_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/streamlet"
	"repro/internal/types"
)

// TestLongRangeAttackComparison executes Appendix D.4's comparison: to make
// honest replicas vote on a fork conflicting with a deep strong-committed
// block,
//
//   - in SFT-DiemBFT the adversary corrupts a quorum for ONE round: a single
//     certified fork block with a round above the honest locks re-enables
//     honest voting on the fork;
//   - in SFT-Streamlet the same one-block fork is useless: honest replicas
//     vote only for blocks extending a LONGEST certified chain, so the
//     adversary must certify on the order of the fork depth's worth of
//     blocks by itself.
func TestLongRangeAttackComparison(t *testing.T) {
	const (
		n = 4
		f = 1
	)
	ring, err := crypto.NewKeyRing(n, 31, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}

	// forgeQC simulates a corrupted quorum signing a certificate for b.
	forgeQC := func(b *types.Block) *types.QC {
		votes := make([]types.Vote, 0, 2*f+1)
		for i := 0; i <= 2*f; i++ {
			v := types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: types.ReplicaID(i)}
			v.Signature = ring.Signer(types.ReplicaID(i)).Sign(v.SigningPayload())
			votes = append(votes, v)
		}
		return &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height, Votes: votes}
	}
	hasVote := func(outs []engine.Output) bool {
		for _, o := range outs {
			if _, ok := o.Msg.(*types.VoteMsg); ok { // only transmissions carry a message
				return true
			}
		}
		return false
	}

	// --- SFT-DiemBFT: one corrupted round suffices -----------------------
	t.Run("diembft", func(t *testing.T) {
		// Run an honest cluster for a while to build a committed chain.
		var victim *diembft.Replica
		sim := simnet.New(simnet.Config{
			N:       n,
			Latency: &simnet.UniformModel{Base: 2 * time.Millisecond},
			Seed:    1,
		})
		for i := 0; i < n; i++ {
			id := types.ReplicaID(i)
			rep, err := diembft.New(diembft.Config{
				Config: replica.Config{
					ID: id, N: n,
					Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
				}, RoundTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if id == 3 {
				victim = rep
			}
			sim.SetEngine(id, rep)
		}
		sim.Run(2 * time.Second)

		// Pick a deep committed ancestor as the fork point.
		store := victim.Store()
		high := store.HighQC()
		forkNode := store.Node(high.Height, high.Block).Ancestor(3)
		if forkNode == nil {
			t.Fatal("chain too short")
		}
		forkPoint := forkNode.Block()
		cur := victim.Round()
		// elected is the leader of round r on the fork whose newest blocks
		// are tips (newest first) on top of the fork point.
		elected := func(r types.Round, tips ...*types.Block) types.ReplicaID {
			var chain []pacemaker.ChainInfo
			for _, b := range tips {
				chain = append(chain, pacemaker.ChainInfo{Round: b.Round, Proposer: b.Proposer})
			}
			for nd := forkNode; nd != nil && !nd.Block().IsGenesis(); nd = nd.Parent() {
				chain = append(chain, pacemaker.ChainInfo{Round: nd.Block().Round, Proposer: nd.Block().Proposer})
			}
			return pacemaker.ReputationLeader(r, n, pacemaker.ReputationWindow, chain)
		}

		// Round cur+1: the corrupted quorum certifies fork block B'.
		bPrime := types.NewBlock(forkPoint.ID(), forkNode.QC(), cur+1,
			forkPoint.Height+1, elected(cur+1),
			int64(2*time.Second), types.Payload{Txns: []types.Transaction{{Sender: 666}}}, nil)
		pPrime := &types.Proposal{Block: bPrime, Round: cur + 1, Sender: bPrime.Proposer}
		pPrime.Signature = ring.Signer(pPrime.Sender).Sign(pPrime.SigningPayload())
		outs := victim.OnMessage(2*time.Second, pPrime.Sender, pPrime)
		if hasVote(outs) {
			t.Fatal("honest replica voted directly for the deep fork block (lock broken?)")
		}

		// Round cur+2: a block EXTENDING B', justified by the forged QC.
		cPrime := types.NewBlock(bPrime.ID(), forgeQC(bPrime), cur+2, bPrime.Height+1,
			elected(cur+2, bPrime), int64(2*time.Second), types.Payload{}, nil)
		p2 := &types.Proposal{Block: cPrime, Round: cur + 2, Sender: cPrime.Proposer}
		p2.Signature = ring.Signer(p2.Sender).Sign(p2.SigningPayload())
		outs = victim.OnMessage(2*time.Second+time.Millisecond, p2.Sender, p2)
		if !hasVote(outs) {
			t.Fatal("one certified fork block did not re-enable honest voting — D.4 says it must in DiemBFT")
		}
	})

	// --- SFT-Streamlet: one corrupted block is not enough ----------------
	t.Run("streamlet", func(t *testing.T) {
		var victim *streamlet.Replica
		sim := simnet.New(simnet.Config{
			N:       n,
			Latency: &simnet.UniformModel{Base: 2 * time.Millisecond},
			Seed:    2,
		})
		for i := 0; i < n; i++ {
			id := types.ReplicaID(i)
			rep, err := streamlet.New(streamlet.Config{
				Config: replica.Config{
					ID: id, N: n,
					Signer: ring.Signer(id), Verifier: ring, VerifySignatures: true,
				}, Delta: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if id == 3 {
				victim = rep
			}
			sim.SetEngine(id, rep)
		}
		sim.Run(2 * time.Second)

		store := victim.Store()
		high := store.HighQC()
		forkNode := store.Node(high.Height, high.Block).Ancestor(3)
		if forkNode == nil {
			t.Fatal("chain too short")
		}
		forkPoint := forkNode.Block()
		cur := victim.Round()

		// Certified fork block B' at the victim's CURRENT round, from the
		// correct leader — maximally favorable to the adversary.
		leader := types.ReplicaID(uint64(cur-1) % n)
		bPrime := types.NewBlock(forkPoint.ID(), forkNode.QC(), cur,
			forkPoint.Height+1, leader, int64(2*time.Second),
			types.Payload{Txns: []types.Transaction{{Sender: 666}}}, nil)
		pPrime := &types.Proposal{Block: bPrime, Round: cur, Sender: leader}
		pPrime.Signature = ring.Signer(leader).Sign(pPrime.SigningPayload())
		outs := victim.OnMessage(2*time.Second, leader, pPrime)
		if hasVote(outs) {
			t.Fatal("streamlet replica voted for a short fork — longest-chain rule broken")
		}
		// Even a forged certificate for B' doesn't help: the fork chain
		// (length forkPoint.Height+1) is still far shorter than the longest
		// certified chain, so proposals extending B' are refused too.
		if err := store.Insert(bPrime); err == nil {
			if _, _, err := store.RegisterQC(forgeQC(bPrime)); err != nil {
				t.Fatal(err)
			}
		}
		next := types.ReplicaID(uint64(cur) % n)
		cPrime := types.NewBlock(bPrime.ID(), forgeQC(bPrime), cur+1, bPrime.Height+1,
			next, int64(2*time.Second), types.Payload{}, nil)
		p2 := &types.Proposal{Block: cPrime, Round: cur + 1, Sender: next}
		p2.Signature = ring.Signer(next).Sign(p2.SigningPayload())
		// Advance the victim into round cur+1 so only the chain-length rule
		// can refuse the vote.
		victim.OnTimer(2*time.Second, int(cur))
		outs = victim.OnMessage(2*time.Second+time.Millisecond, next, p2)
		if hasVote(outs) {
			t.Fatal("streamlet replica helped extend a one-block fork — adversary should need ~depth corrupted rounds")
		}
	})
}
