package crypto

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// QCCache memoizes successful QC verifications for one replica. The paper's
// protocols deliver the same certificate to a replica many times (inside
// proposals, timeouts, and sync responses), and without a cache every
// delivery re-verifies all 2f+1 signatures — O(n²) signature checks per
// round across the cluster. Signatures are immutable, so a certificate that
// verified once verifies forever: the cache needs no invalidation, only an
// LRU bound on memory.
//
// Entries are keyed by the certified block ID plus a SHA-256 digest of the
// QC's full deterministic encoding (vote payloads and signatures), so two
// distinct certificates for the same block — different voter sets, markers,
// or forged signatures — never alias. The quorum parameter is part of the
// key as well, since structural validity depends on it.
//
// A QCCache belongs to one replica engine. Since Prevalidate consults it
// from transport reader goroutines concurrently with the engine loop,
// the key set is the shared internally-synchronized lruSet; the signature
// verification itself (the expensive part) runs outside its lock, so two
// workers may at worst verify the same novel certificate twice — a benign
// duplication, since insertion is idempotent.
type QCCache struct {
	set          *lruSet[qcKey]
	hits, misses atomic.Int64
}

// encodeScratch recycles QC-encoding buffers for key computation, which runs
// before the cache lock is taken so concurrent prevalidation workers never
// serialize on each other's hashing.
var encodeScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

type qcKey struct {
	block  types.BlockID
	digest [32]byte
	quorum int
}

// DefaultQCCacheSize bounds the cache when no explicit capacity is given.
// Certificates stop being re-delivered once their round is left behind, so a
// few hundred entries cover every in-flight round at paper scale (n=100).
const DefaultQCCacheSize = 512

// NewQCCache creates a cache holding at most capacity verified certificates.
// capacity <= 0 selects DefaultQCCacheSize.
func NewQCCache(capacity int) *QCCache {
	if capacity <= 0 {
		capacity = DefaultQCCacheSize
	}
	return &QCCache{set: newLRUSet[qcKey](capacity)}
}

// VerifyQC behaves exactly like the package-level VerifyQC but consults the
// cache first. Genesis certificates (no votes) are validated structurally
// and never cached; failed verifications are not cached either, so a replica
// re-examines a bad certificate if it is delivered again.
func (c *QCCache) VerifyQC(v Verifier, qc *types.QC, quorum int) error {
	return c.verify(v, qc, quorum, 0, false)
}

// VerifyQCBatch is VerifyQC with the batch verification path: a miss checks
// all vote signatures via BatchVerifyQC (one aggregate pass with up to
// workers-way concurrency, bisection attribution on failure) instead of one
// serial call per vote. Hits and the memo itself are identical.
func (c *QCCache) VerifyQCBatch(v Verifier, qc *types.QC, quorum, workers int) error {
	return c.verify(v, qc, quorum, workers, true)
}

func (c *QCCache) verify(v Verifier, qc *types.QC, quorum, workers int, batch bool) error {
	if len(qc.Votes) == 0 {
		return qc.CheckStructure(quorum)
	}
	// Key computation (encode + digest) happens outside the lock: the mutex
	// guards only the map and LRU list.
	bufp := encodeScratch.Get().(*[]byte)
	buf := qc.Encode((*bufp)[:0])
	key := qcKey{block: qc.Block, digest: sha256.Sum256(buf), quorum: quorum}
	*bufp = buf
	encodeScratch.Put(bufp)

	if c.set.contains(key) {
		c.hits.Add(1)
		return nil
	}

	// Signature work runs outside the lock so concurrent prevalidation
	// workers never serialize on each other's crypto.
	var err error
	if batch {
		err = BatchVerifyQC(v, qc, quorum, workers)
	} else {
		err = VerifyQC(v, qc, quorum)
	}
	if err != nil {
		return err
	}

	// Counted as a miss even when a concurrent worker raced us to the
	// insert — this pass did the verification work either way.
	c.misses.Add(1)
	c.set.add(key)
	return nil
}

// Len returns the number of cached certificates.
func (c *QCCache) Len() int { return c.set.len() }

// Stats returns cache hit/miss counters for diagnostics and benchmarks.
func (c *QCCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
