package diembft

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/obs"
	"repro/internal/pacemaker"
	"repro/internal/statesync"
	"repro/internal/types"
)

// Prevalidate implements engine.Engine: every check on an inbound message
// that reads no mutable replica state — well-formedness and certificate
// structure always, sender signatures and certificate verification when
// VerifySignatures is on. This is the only copy of each: the state stage
// (OnVerifiedMessage) repeats none of them. Transports call it from reader
// goroutines concurrently with the event loop; the only shared structure it
// touches is the verified-QC cache, which is internally synchronized.
//
// Catch-up segments (StateSyncResponse) are the one exception: their
// accept/reject semantics are prefix-stateful (the engine installs blocks
// link by link and stops at the first bad one), so Prevalidate never rejects
// them. It still pulls their signature work off-loop by verifying every
// segment certificate into the shared QC cache, which turns the engine loop's
// own verification into cache hits.
func (r *Replica) Prevalidate(from types.ReplicaID, msg types.Message) error {
	switch m := msg.(type) {
	case *types.Proposal:
		return r.prevalidateProposal(m)
	case *types.VoteMsg:
		return r.prevalidateVote(m.Vote)
	case *types.Timeout:
		return r.prevalidateTimeout(m)
	case *types.ExtraVote:
		return r.prevalidateVote(m.Vote)
	case *types.StateSyncResponse:
		r.warmSegment(m.Blocks, m.HighQC)
	}
	// StateSyncRequest carries no signature; unknown message types are the
	// state stage's business to ignore.
	return nil
}

func (r *Replica) prevalidateVote(v types.Vote) error {
	if !r.cfg.VerifySignatures {
		return nil
	}
	return crypto.VerifyVote(r.cfg.Verifier, v)
}

func (r *Replica) prevalidateProposal(p *types.Proposal) error {
	if p.Block == nil || p.Block.Justify == nil {
		return fmt.Errorf("diembft: proposal without block or justify")
	}
	if p.Block.Round != p.Round || p.Block.Proposer != p.Sender {
		return fmt.Errorf("diembft: proposal round/proposer mismatch")
	}
	if !pacemaker.Candidate(p.Sender, p.Round, r.cfg.N, pacemaker.ReputationWindow) {
		// The election reads the (mutable) block store, so which candidate
		// leads is the state stage's check; anyone outside the round's
		// window+1 candidate slots can never be elected.
		return fmt.Errorf("diembft: proposal from non-candidate %v", p.Sender)
	}
	if j := p.Block.Justify; j.Block != p.Block.Parent || j.Height+1 != p.Block.Height {
		// The store finds a block only at its own height, so a justify that
		// names the parent at another height certifies nothing it holds.
		return fmt.Errorf("diembft: justify does not certify parent")
	}
	if r.cfg.VerifySignatures && !r.cfg.Verifier.Verify(p.Sender, p.SigningPayload(), p.Signature) {
		return fmt.Errorf("diembft: bad proposal signature from %v", p.Sender)
	}
	return r.Certs.VerifyQC(p.Block.Justify)
}

// prevalidateTimeout needs no Sender == self exception: a replica's own
// timeout only reaches it through loopback, which skips Prevalidate; anything
// arriving here came off the network and gets the full check.
func (r *Replica) prevalidateTimeout(t *types.Timeout) error {
	if t.HighQC != nil && t.HighRound != t.HighQC.Round {
		// The signed high-round claim must match the certificate it rides
		// with: the structural check runs before any signature math.
		r.cfg.Obs.OnTimeoutRejected(obs.ReasonMismatch)
		return fmt.Errorf("diembft: timeout high-round claim %d does not match QC round %d", t.HighRound, t.HighQC.Round)
	}
	if r.cfg.VerifySignatures && !r.cfg.Verifier.Verify(t.Sender, t.SigningPayload(), t.Signature) {
		r.cfg.Obs.OnTimeoutRejected(obs.ReasonBadSignature)
		return fmt.Errorf("diembft: bad timeout signature from %v", t.Sender)
	}
	if t.HighQC != nil {
		if err := r.Certs.VerifyQC(t.HighQC); err != nil {
			r.cfg.Obs.OnTimeoutRejected(obs.ReasonBadSignature)
			return err
		}
	}
	return nil
}

// warmSegment verifies a sync segment's certificates into the shared QC
// cache without judging the segment — entries that fail are simply not
// cached and the state stage rejects them with its usual link-by-link
// semantics. The warm is bounded the same way the state stage's work is:
// honest serves cap segments at statesync.DefaultMaxBlocks, and a segment
// is rejected at its first bad certificate, so warming beyond either bound
// would only hand a Byzantine peer a CPU-amplification vector (thousands of
// garbage QCs burned on a reader goroutine for one cheap frame).
func (r *Replica) warmSegment(blocks []*types.Block, highQC *types.QC) {
	if !r.Certs.Cached() {
		return
	}
	if len(blocks) > statesync.DefaultMaxBlocks {
		blocks = blocks[:statesync.DefaultMaxBlocks]
	}
	for _, b := range blocks {
		if b == nil || b.Justify == nil {
			continue
		}
		if err := r.Certs.VerifyQC(b.Justify); err != nil {
			return
		}
	}
	if highQC != nil {
		// A failed warm is not judged here either: the state stage re-verifies
		// the tip and rejects it with its usual semantics.
		if err := r.Certs.VerifyQC(highQC); err != nil {
			return
		}
	}
}
