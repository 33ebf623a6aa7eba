// Package reference names the reference arms the experiments compare the
// production replica against. None of them is a configuration to deploy:
// each exists to measure or falsify one claim of the paper. The public
// facade accepts them only through sft.WithReference, whose parameter is
// this package's type, so no code outside this module can select one.
package reference

import (
	"fmt"

	"repro/internal/replica"
)

// The baseline commit rules for Arms.Rule, named here so that callers which
// must not reach below the facade (the experiment harness) can select them.
const (
	RulePlain = replica.RulePlain
	RuleFBFT  = replica.RuleFBFT
	RuleNaive = replica.RuleNaive
)

// Arms switches a replica from the production configuration to one or more
// reference arms. The zero value is the production configuration.
type Arms struct {
	// Rule replaces the strengthened commit rule with one of the paper's
	// baselines (see replica.Rule).
	Rule replica.Rule
	// VerifySignatures checks every signature and certificate under the
	// simulated schemes, which otherwise skip them, so forged traffic in a
	// simulation meets the checks it would meet under ed25519.
	VerifySignatures bool
	// DisableQCCache turns off the verified-certificate memo (DiemBFT): every
	// delivery re-verifies in full, the reference a cached run must match bit
	// for bit.
	DisableQCCache bool
	// UncappedTimeouts lifts the pacemaker's per-peer timeout cap (DiemBFT):
	// the unhardened buffer that timeout spam grows without bound, the
	// reference the liveness-under-attack experiment measures the cap
	// against.
	UncappedTimeouts bool
}

// With returns the arms selected by either a or b, so options that each name
// an arm compose instead of replacing one another. A replica runs one commit
// rule, so a and b naming two different ones is an error.
func (a Arms) With(b Arms) (Arms, error) {
	rule := a.Rule
	if rule == replica.RuleSFT {
		rule = b.Rule
	} else if b.Rule != replica.RuleSFT && b.Rule != rule {
		return a, fmt.Errorf("reference: two commit rules selected, %v and %v", rule, b.Rule)
	}
	return Arms{
		Rule:             rule,
		VerifySignatures: a.VerifySignatures || b.VerifySignatures,
		DisableQCCache:   a.DisableQCCache || b.DisableQCCache,
		UncappedTimeouts: a.UncappedTimeouts || b.UncappedTimeouts,
	}, nil
}
