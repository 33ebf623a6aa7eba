// Package reference names the reference arms the experiments compare the
// production replica against. None of them is a configuration to deploy:
// each exists to measure or falsify one claim of the paper. The public
// facade accepts them only through sft.WithReference, whose parameter is
// this package's type, so no code outside this module can select one.
package reference

// Arms switches a replica from the production configuration to one or more
// reference arms. The zero value is the production configuration.
type Arms struct {
	// PlainCommit turns strengthening off: the plain 3-chain commit rule and
	// no strength tracker, the DiemBFT baseline of the Section 4 throughput
	// comparison.
	PlainCommit bool
	// FBFT replaces the strengthened rule with the Appendix B baseline:
	// strength counts direct votes only and leaders multicast every late
	// vote, O(n^2) messages per decision (DiemBFT only).
	FBFT bool
	// NaiveEndorsements counts endorsements without markers, the UNSAFE
	// rule of Appendix C that the scenario fuzzer's weakened-rule canary
	// must catch.
	NaiveEndorsements bool
	// VerifySignatures checks every signature and certificate under the
	// simulated schemes, which otherwise skip them, so forged traffic in a
	// simulation meets the checks it would meet under ed25519.
	VerifySignatures bool
	// DisableQCCache turns off the verified-certificate memo (DiemBFT): every
	// delivery re-verifies in full, the reference a cached run must match bit
	// for bit.
	DisableQCCache bool
}

// With returns the arms selected by either a or b, so options that each name
// an arm compose instead of replacing one another.
func (a Arms) With(b Arms) Arms {
	return Arms{
		PlainCommit:       a.PlainCommit || b.PlainCommit,
		FBFT:              a.FBFT || b.FBFT,
		NaiveEndorsements: a.NaiveEndorsements || b.NaiveEndorsements,
		VerifySignatures:  a.VerifySignatures || b.VerifySignatures,
		DisableQCCache:    a.DisableQCCache || b.DisableQCCache,
	}
}
