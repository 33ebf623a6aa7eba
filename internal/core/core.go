// Package core implements the paper's primary contribution: the
// strengthened-fault-tolerance (SFT) machinery layered on chain-based BFT
// SMR (Sections 3.2–3.4 and Appendix D of "Strengthened Fault Tolerance in
// Byzantine Fault Tolerant Replication", ICDCS 2021).
//
// It provides three pieces, all protocol-agnostic so that both the DiemBFT
// and the Streamlet engines reuse them:
//
//   - VoteHistory: per-replica bookkeeping of the highest block the replica
//     voted for on each fork, used to compute the marker (Section 3.2) or
//     the generalized endorsement interval set I (Section 3.4) attached to
//     each strong-vote.
//
//   - Tracker: per-replica endorsement accounting. Every strong-QC observed
//     in the chain is unpacked into endorsements of the certified block and
//     of its ancestors (a strong-vote for B' endorses an ancestor B iff
//     marker < B.round, or B.round ∈ I), and the strong 3-chain rule is
//     re-evaluated incrementally to detect x-strong commits.
//
//   - The Appendix C "naive" mode, which counts every indirect vote as an
//     endorsement regardless of markers, retained so tests and examples can
//     reproduce the paper's counter-example showing that mode is unsafe.
package core
