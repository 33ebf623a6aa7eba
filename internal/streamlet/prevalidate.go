package streamlet

import (
	"fmt"

	"repro/internal/pacemaker"
	"repro/internal/replica"
	"repro/internal/types"
)

// Prevalidate implements engine.Engine: the stateless checks of every
// Streamlet message — echo nesting, proposal well-formedness and leadership
// always, proposal and vote signatures when VerifySignatures is on. This is
// the only copy of each; the state stage repeats none of them. It reads only
// immutable configuration and the signature memo, so
// transports may call it from any number of goroutines concurrently with the
// event loop.
//
// StateSyncResponse segments keep their link-by-link engine-loop
// verification (their accept/reject semantics are prefix-stateful), and sync
// requests carry no signatures; both pass through unjudged. A proposal's
// justify must name its parent, as every honest leader's does; its votes go
// unread here: Streamlet certifies from votes and reads a justify only where
// the state says the votes were missed (certifyParent verifies it).
func (r *Replica) Prevalidate(from types.ReplicaID, msg types.Message) error {
	// The relay wrapper adds no signature of its own; Figure 10's echo
	// mechanism trusts the inner message's original signature, so the checks
	// apply to what the state stage's handler will unwrap, under the same
	// nesting cap.
	if msg = replica.UnwrapEcho(msg); msg == nil {
		return fmt.Errorf("streamlet: empty or over-nested echo")
	}
	switch m := msg.(type) {
	case *types.Proposal:
		return r.prevalidateProposal(m)
	case *types.VoteMsg:
		return r.prevalidateVote(m.Vote)
	}
	return nil
}

// prevalidateVote checks a vote signature through the verified-signature
// memo: the echo mechanism re-delivers byte-identical votes up to n times,
// and only the first copy pays the full verification (a corrupted or
// re-attributed copy digests differently, misses, and fails in full).
func (r *Replica) prevalidateVote(v types.Vote) error {
	if !r.cfg.VerifySignatures {
		return nil
	}
	var scratch [128]byte
	payload := v.AppendSigningPayload(scratch[:0])
	if !r.sigCache.Verify(r.cfg.Verifier, v.Voter, payload, v.Signature) {
		return fmt.Errorf("streamlet: bad vote signature from %v", v.Voter)
	}
	return nil
}

func (r *Replica) prevalidateProposal(p *types.Proposal) error {
	if p.Block == nil || p.Block.Justify == nil {
		return fmt.Errorf("streamlet: proposal without block or justify")
	}
	if p.Block.Round != p.Round || p.Block.Proposer != p.Sender {
		return fmt.Errorf("streamlet: proposal round/proposer mismatch")
	}
	if p.Block.Justify.Block != p.Block.Parent {
		// The block is journaled once accepted, and a restart registers its
		// justify: one naming a block the store does not hold fails it.
		return fmt.Errorf("streamlet: justify does not certify parent")
	}
	if pacemaker.Leader(p.Round, r.cfg.N) != p.Sender {
		return fmt.Errorf("streamlet: proposal from non-leader %v", p.Sender)
	}
	if r.cfg.VerifySignatures && !r.sigCache.Verify(r.cfg.Verifier, p.Sender, p.SigningPayload(), p.Signature) {
		return fmt.Errorf("streamlet: bad proposal signature from %v", p.Sender)
	}
	return nil
}
