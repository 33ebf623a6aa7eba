// Package crypto provides the signing substrate for the consensus engines:
// a Signer/Verifier abstraction, a production-grade ed25519 implementation
// (stdlib crypto/ed25519), and a fast deterministic simulation scheme used
// by the discrete-event experiments where signature cost would only add
// noise. Both schemes share one KeyRing API simulating the paper's PKI.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"math/big"

	"repro/internal/types"
)

// Signer produces signatures on behalf of one replica.
type Signer interface {
	// ID returns the replica this signer signs for.
	ID() types.ReplicaID
	// Sign returns a signature over msg.
	Sign(msg []byte) []byte
}

// Verifier checks signatures from any replica in the system.
type Verifier interface {
	// Verify reports whether sig is a valid signature by replica id over msg.
	Verify(id types.ReplicaID, msg, sig []byte) bool
}

// Committee is a Verifier that names the committee it checks for: its size
// and the scheme its keys belong to. A KeyRing is one.
type Committee interface {
	Verifier
	N() int
	Scheme() string
}

// Authenticates reports whether scheme's signatures are real cryptography
// (ed25519, plain or aggregated), under which every signature is checked.
// The simulated schemes stand in for it where a run only measures the
// protocol, and leave the checks off.
func Authenticates(scheme string) bool {
	return scheme == SchemeEd25519 || scheme == SchemeEd25519Agg
}

// KeyRing holds the key material for all n replicas, playing the role of the
// paper's public-key infrastructure: every replica knows every public key.
type KeyRing struct {
	n       int
	scheme  string
	pubs    []ed25519.PublicKey
	privs   []ed25519.PrivateKey
	simSeed [32]byte
	aggKeys []*big.Int // aggregation scalars (agg schemes only; see agg.go)
}

// Scheme names select the signature implementation. The two aggregate
// variants sign and verify individual messages exactly like their base
// scheme, and additionally compact formed certificates into the constant-size
// aggregated form (types.AggCert, agg.go).
const (
	SchemeEd25519    = "ed25519"
	SchemeSim        = "sim"
	SchemeEd25519Agg = "ed25519-agg"
	SchemeSimAgg     = "sim-agg"
)

// NewKeyRing deterministically derives keys for n replicas from seed.
// scheme is SchemeEd25519 for real signatures, SchemeSim for the fast
// deterministic scheme, or one of the -agg variants which add per-replica
// aggregation scalars for compact certificates.
func NewKeyRing(n int, seed int64, scheme string) (*KeyRing, error) {
	if n <= 0 {
		return nil, fmt.Errorf("crypto: keyring size %d", n)
	}
	kr := &KeyRing{n: n, scheme: scheme}
	switch scheme {
	case SchemeSim, SchemeSimAgg:
		kr.simSeed = sha256.Sum256(types.AppendUint64([]byte("simseed/"), uint64(seed)))
	case SchemeEd25519, SchemeEd25519Agg:
		kr.pubs = make([]ed25519.PublicKey, n)
		kr.privs = make([]ed25519.PrivateKey, n)
		for i := 0; i < n; i++ {
			// Derive a 32-byte ed25519 seed per replica from the ring seed.
			material := types.AppendUint64([]byte("ed25519seed/"), uint64(seed))
			material = types.AppendUint32(material, uint32(i))
			s := sha256.Sum256(material)
			kr.privs[i] = ed25519.NewKeyFromSeed(s[:])
			kr.pubs[i] = kr.privs[i].Public().(ed25519.PublicKey)
		}
	default:
		return nil, fmt.Errorf("crypto: unknown scheme %q", scheme)
	}
	if scheme == SchemeSimAgg || scheme == SchemeEd25519Agg {
		kr.aggKeys = deriveAggKeys(n, seed)
	}
	return kr, nil
}

// N returns the number of replicas in the ring.
func (kr *KeyRing) N() int { return kr.n }

// Scheme returns the signature scheme the ring's keys belong to.
func (kr *KeyRing) Scheme() string { return kr.scheme }

// Signer returns the signer for replica id.
func (kr *KeyRing) Signer(id types.ReplicaID) Signer {
	return &ringSigner{ring: kr, id: id}
}

// Verify implements Verifier.
func (kr *KeyRing) Verify(id types.ReplicaID, msg, sig []byte) bool {
	if int(id) >= kr.n {
		return false
	}
	switch kr.scheme {
	case SchemeSim, SchemeSimAgg:
		expect := kr.simSign(id, msg)
		if len(sig) != len(expect) {
			return false
		}
		// Constant time is irrelevant for the simulation scheme; plain
		// comparison keeps it fast.
		for i := range sig {
			if sig[i] != expect[i] {
				return false
			}
		}
		return true
	default:
		return ed25519.Verify(kr.pubs[id], msg, sig)
	}
}

// simSign computes the deterministic simulation "signature":
// SHA-256(seed || id || msg). It is unforgeable only against adversaries
// that do not know the ring seed, which is exactly the scripted-adversary
// model of the experiments.
func (kr *KeyRing) simSign(id types.ReplicaID, msg []byte) []byte {
	buf := make([]byte, 0, 40+len(msg))
	buf = append(buf, kr.simSeed[:]...)
	buf = types.AppendUint32(buf, uint32(id))
	buf = append(buf, msg...)
	sum := sha256.Sum256(buf)
	return sum[:]
}

type ringSigner struct {
	ring    *KeyRing
	id      types.ReplicaID
	scratch []byte // reused sim-scheme hashing buffer; signers are per-replica
}

func (s *ringSigner) ID() types.ReplicaID { return s.id }

func (s *ringSigner) Sign(msg []byte) []byte {
	switch s.ring.scheme {
	case SchemeSim, SchemeSimAgg:
		// Same derivation as KeyRing.simSign, but through the signer's own
		// scratch buffer: the only allocation left is the returned signature,
		// which the caller retains.
		s.scratch = append(s.scratch[:0], s.ring.simSeed[:]...)
		s.scratch = types.AppendUint32(s.scratch, uint32(s.id))
		s.scratch = append(s.scratch, msg...)
		sum := sha256.Sum256(s.scratch)
		return sum[:]
	default:
		return ed25519.Sign(s.ring.privs[s.id], msg)
	}
}

// VerifyQC checks every signature inside the certificate in addition to its
// structure: quorum size, distinct voters, votes match the certified block.
// One scratch buffer is reused for all per-vote signing payloads. Compact
// certificates (qc.Agg != nil) are checked with the aggregate equation
// instead of per-vote signatures.
func VerifyQC(v Verifier, qc *types.QC, quorum int) error {
	if qc.Agg != nil {
		return verifyAggregate(v, qc, quorum)
	}
	if err := qc.CheckStructure(quorum); err != nil {
		return err
	}
	var scratch [128]byte
	buf := scratch[:0]
	for i := range qc.Votes {
		vote := &qc.Votes[i]
		buf = vote.AppendSigningPayload(buf[:0])
		if !v.Verify(vote.Voter, buf, vote.Signature) {
			return fmt.Errorf("crypto: bad signature on %v", vote)
		}
	}
	return nil
}

// VerifyVote checks one vote's signature.
func VerifyVote(v Verifier, vote types.Vote) error {
	var scratch [128]byte
	payload := vote.AppendSigningPayload(scratch[:0])
	if !v.Verify(vote.Voter, payload, vote.Signature) {
		return fmt.Errorf("crypto: bad signature on %v", vote)
	}
	return nil
}
