package pacemaker

import "repro/internal/types"

// ReputationWindow is how many rounds back DiemBFT's leader election looks
// for failed slots. At n <= 8 it covers a replica's previous slot, so a
// crashed leader's next turn is skipped; at n >= 9 a failed slot has left the
// window by its owner's next turn, and the leaders are round robin's.
const ReputationWindow types.Round = 8

// ChainInfo is one certified ancestor the reputation rule scores: the block's
// round and who proposed it. Callers pass the justify ancestry in strictly
// descending round order (tip first).
type ChainInfo struct {
	Round    types.Round
	Proposer types.ReplicaID
}

// ReputationLeader elects the leader of round r with leader-reputation
// rotation: replicas whose most recent round-robin slot inside the window
// timed out — visible as round gaps in the certified chain — are skipped
// until they next produce a certified block, so a crashed or slow leader
// stops stalling one round per rotation.
//
// Determinism: the function is pure in (r, n, window, chain), and the chain
// is the justify ancestry of the proposal under consideration — data the
// proposer ships inside the proposal itself — so proposer and validators
// always score from identical inputs, and recovery is free (the ancestry is
// WAL-journaled with the blocks). Failed rounds are attributed to their
// round-robin leader; certified blocks are credited to their actual
// proposer. If every candidate is excluded the plain round-robin leader is
// returned, so reputation can delay no one forever (liveness falls back to
// Theorem 2's rotation argument).
//
// Cost: no allocation, and O(window + len(chain)) per candidate looked at. A
// candidate is passed over only for a failed slot inside the window, each
// failed round is one candidate's, and the fallback is Leader(r, n), so the
// leader elected is Leader(r+k, n) for some k <= window (Candidate) and at
// most window+1 candidates are scored.
func ReputationLeader(r types.Round, n int, window types.Round, chain []ChainInfo) types.ReplicaID {
	if window <= 0 || len(chain) == 0 {
		return Leader(r, n)
	}
	lo := types.Round(1)
	if r > window {
		lo = r - window
	}
	for k := types.Round(0); k < types.Round(n); k++ {
		id := Leader(r+k, n)
		if failed, success := standing(id, r, n, lo, chain); failed == 0 || success > failed {
			return id
		}
	}
	return Leader(r, n)
}

// Candidate reports whether id can be elected leader of round r by
// ReputationLeader with this window, whatever the chain: whether it holds one
// of the round-robin slots r, r+1, ..., r+window. It reads no chain, so a
// replica can refuse a proposal from anyone else before any other work.
func Candidate(id types.ReplicaID, r types.Round, n int, window types.Round) bool {
	if uint64(id) >= uint64(n) {
		return false
	}
	k := (uint64(id) + uint64(n) - uint64(Leader(r, n))) % uint64(n)
	return k <= uint64(window)
}

// standing scores one replica over the chain: the last round in [lo, r)
// whose round-robin slot was id's and left no certified block, and the last
// certified round at or above lo that id proposed, each 0 for none. The chain
// descends, so the first hit of each is the last.
func standing(id types.ReplicaID, r types.Round, n int, lo types.Round, chain []ChainInfo) (failed, success types.Round) {
	prev := r
	for _, c := range chain {
		if c.Round >= prev {
			// Defensive: ignore out-of-order entries instead of mis-scoring.
			continue
		}
		for fr := prev; failed == 0 && fr > max(c.Round+1, lo); {
			if fr--; Leader(fr, n) == id {
				failed = fr
			}
		}
		if c.Round < lo {
			break
		}
		if success == 0 && c.Proposer == id {
			success = c.Round
		}
		prev = c.Round
	}
	return failed, success
}
