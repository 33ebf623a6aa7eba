package harness

import (
	"fmt"
	"time"

	"repro/internal/crypto"
	"repro/internal/types"
)

// This file is the compact-certificate experiment: the measurement behind
// the O(1)-certificate claim. A quorum certificate carrying 2f+1 individual
// ed25519 signatures grows linearly in the committee — ~70 wire bytes and
// one signature verification per signer — which is what makes 100+-replica
// committees expensive. The aggregated form replaces the vote vector with
// one 32-byte aggregate plus a signer bitmap, so both wire size and verify
// CPU stay (near-)constant as n grows. CompactCertificates measures both
// forms at several committee sizes and, for each size, runs a fig7a-style
// symmetric-latency simulation under the aggregate scheme to show the full
// protocol stays live and committing with compact certificates on the wire.

// CompactPoint holds one committee size's measurements.
type CompactPoint struct {
	N, F, Quorum int

	// Wire bytes of one quorum certificate: the legacy per-signer vote
	// vector vs the aggregated bitmap form.
	VectorQCBytes, CompactQCBytes int

	// Host CPU (ns) for one full cold certificate verification in each
	// form, averaged over many iterations.
	VectorVerifyNs, CompactVerifyNs float64

	// Sim is the fig7a-style simulation at this committee size under
	// crypto.SchemeEd25519Agg (real vote signatures, compact certificates).
	Sim *Result
}

// verifyIters is how many cold verifications each timing loop averages
// over. Vector verification at n=103 costs quorum(=69) ed25519 checks per
// iteration, so this keeps the whole sweep in the hundreds of milliseconds.
const verifyIters = 50

// CompactCertificates measures, for each committee size in ns, one quorum
// certificate's wire bytes and cold-verification CPU in vector vs compact
// form, then runs a fig7a-style simulation (symmetric regions, delta apart)
// with the ed25519-agg scheme. sc.N is ignored — the sweep is the point.
func CompactCertificates(sc Scale, ns []int, delta time.Duration) ([]CompactPoint, error) {
	sc = sc.withDefaults()
	points := make([]CompactPoint, 0, len(ns))
	for _, n := range ns {
		if (n-1)%3 != 0 {
			return nil, fmt.Errorf("harness: compact sweep n=%d is not 3f+1", n)
		}
		f := (n - 1) / 3
		p := CompactPoint{N: n, F: f, Quorum: 2*f + 1}
		if err := measureCompact(&p, sc.Seed); err != nil {
			return nil, err
		}

		simScale := Scale{
			N: n, F: f, Duration: sc.Duration, Seed: sc.Seed,
			Scheme: crypto.SchemeEd25519Agg,
		}
		s := symmetricScenario(simScale, delta)
		s.Name = "compactcert"
		res, err := Run(s)
		if err != nil {
			return nil, err
		}
		p.Sim = res
		points = append(points, p)
	}
	return points, nil
}

// measureCompact builds one genuine quorum certificate (real ed25519 vote
// signatures) and records its encoded size and cold verify time in both
// forms.
func measureCompact(p *CompactPoint, seed int64) error {
	ring, err := crypto.NewKeyRing(p.N, seed, crypto.SchemeEd25519)
	if err != nil {
		return err
	}
	aggRing, err := crypto.NewKeyRing(p.N, seed, crypto.SchemeEd25519Agg)
	if err != nil {
		return err
	}

	var block types.BlockID
	block[0] = 0xC4
	vector := &types.QC{Block: block, Round: 9, Height: 9}
	for i := 0; i < p.Quorum; i++ {
		v := types.Vote{Block: block, Round: 9, Height: 9, Voter: types.ReplicaID(i)}
		v.Signature = ring.Signer(v.Voter).Sign(v.SigningPayload())
		vector.Votes = append(vector.Votes, v)
	}
	compact := &types.QC{Block: block, Round: 9, Height: 9,
		Votes: append([]types.Vote(nil), vector.Votes...)}
	if err := crypto.AggregateQC(aggRing, compact); err != nil {
		return err
	}

	p.VectorQCBytes = len(vector.Encode(nil))
	p.CompactQCBytes = len(compact.Encode(nil))

	time1 := func(verifier crypto.Verifier, qc *types.QC) (float64, error) {
		start := time.Now()
		for i := 0; i < verifyIters; i++ {
			if err := crypto.VerifyQC(verifier, qc, p.Quorum); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / verifyIters, nil
	}
	if p.VectorVerifyNs, err = time1(ring, vector); err != nil {
		return fmt.Errorf("harness: vector verify n=%d: %w", p.N, err)
	}
	if p.CompactVerifyNs, err = time1(aggRing, compact); err != nil {
		return fmt.Errorf("harness: compact verify n=%d: %w", p.N, err)
	}
	return nil
}
