package replica

import (
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/obs"
	"repro/internal/types"
)

// The chassis's certificate verifier, orphan buffer and echo unwrapping; the
// verifier and the unwrapping also serve the engines' Prevalidate, which runs
// off the event loop.

// Certs verifies certificates for one replica: through the batch path (one
// pass over all vote signatures, bisection attribution on failure) and a
// verified-QC memo, so each distinct certificate is signature-checked once
// per replica instead of once per delivery. Certificates are immutable, so a
// cache hit is as strong as a fresh verification. In front of both arms sits
// the identity memo (memo below). Safe for concurrent use from Prevalidate
// workers: the memo slots are atomic, the cache is internally synchronized
// and batch verification touches no replica state.
type Certs struct {
	verifier crypto.Verifier
	quorum   int
	workers  int
	check    bool
	cache    *crypto.QCCache
	obs      *obs.Obs

	// memo holds the certificates accepted last, by pointer, overwritten
	// round-robin from next: the same object delivered again — one high QC
	// inside every peer's timeout of a round — is not examined twice. Holding
	// the pointer keeps the object alive, so an address cannot come back as a
	// different certificate, and a message is immutable once handed over
	// (engine.Engine), so neither can its content. rememberOff is
	// DisableCache's.
	memo        [memoSlots]atomic.Pointer[types.QC]
	next        atomic.Uint32
	rememberOff bool
}

// memoSlots sizes the identity memo. Of the first 600,000 VerifyQC calls of
// sim100_fault (seed 11, counted in a scratch build) one slot answers
// 454,312, two 454,791, four and eight the same and sixteen 454,857; the rest
// are first sights, which no slot count answers. Two, so that late traffic
// carrying the previous round's certificate and the current one do not evict
// each other in turn.
const memoSlots = 2

// NewCerts builds the verifier from the common configuration (N, F,
// Verifier, VerifySignatures, BatchWorkers and Obs are read).
func NewCerts(cfg *Config) *Certs {
	c := &Certs{
		verifier: cfg.Verifier,
		quorum:   cfg.Quorum(),
		workers:  max(cfg.BatchWorkers, 1),
		check:    cfg.VerifySignatures,
		obs:      cfg.Obs,
	}
	if c.check {
		c.cache = crypto.NewQCCache(crypto.DefaultQCCacheSize)
	}
	return c
}

// DisableCache turns both memos off, re-verifying every delivery — the
// reference arm of the cache-on/off determinism tests.
func (c *Certs) DisableCache() { c.cache, c.rememberOff = nil, true }

// Cached reports whether verified certificates are memoized.
func (c *Certs) Cached() bool { return c.cache != nil }

// VerifyQC checks a certificate: its structure always, its signatures when
// signature checking is configured on. A certificate this replica accepted
// before, recognised by pointer, is accepted again without being read; any
// other pointer, whatever it holds, gets every check.
func (c *Certs) VerifyQC(qc *types.QC) error {
	if c.remembered(qc) {
		return nil
	}
	err := c.verify(qc)
	if err == nil && !c.rememberOff {
		c.memo[c.next.Add(1)%memoSlots].Store(qc)
	}
	return err
}

// remembered reports whether qc is one of the pointers VerifyQC accepted
// last. Empty slots hold nil, which must never answer for a nil certificate.
func (c *Certs) remembered(qc *types.QC) bool {
	if qc == nil {
		return false
	}
	for i := range c.memo {
		if c.memo[i].Load() == qc {
			return true
		}
	}
	return false
}

func (c *Certs) verify(qc *types.QC) error {
	if !c.check {
		return qc.CheckStructure(c.quorum)
	}
	if c.obs != nil {
		// Wall clock by design: verification cost is an operational quantity
		// that exists off the virtual timeline and never feeds back into it.
		start := time.Now()
		defer func() { c.obs.ObserveVerifyBatch(time.Since(start)) }()
	}
	if c.cache != nil {
		return c.cache.VerifyQCBatch(c.verifier, qc, c.quorum, c.workers)
	}
	return crypto.BatchVerifyQC(c.verifier, qc, c.quorum, c.workers)
}

// maxOrphans bounds the proposals an orphans buffer holds.
const maxOrphans = 1024

// orphans buffers proposals whose parent has not arrived yet, keyed by the
// missing parent. It holds at most maxOrphans proposals: beyond that the
// longest-waiting parent's proposals are evicted first, so an attacker
// spraying validly-signed blocks with unknown parents cannot grow it without
// bound; evicted holes heal through sync. The zero value is ready to use.
type orphans struct {
	byParent map[types.BlockID][]*types.Proposal
	order    []types.BlockID // parents, longest-waiting first
	n        int
}

// add buffers p under its missing parent and reports whether it is the
// first proposal waiting on that parent.
func (o *orphans) add(p *types.Proposal) bool {
	if o.byParent == nil {
		o.byParent = make(map[types.BlockID][]*types.Proposal)
	}
	for o.n >= maxOrphans {
		o.take(o.order[0])
	}
	parent := p.Block.Parent
	waiting := o.byParent[parent]
	if waiting == nil {
		o.order = append(o.order, parent)
	}
	o.byParent[parent] = append(waiting, p)
	o.n++
	return waiting == nil
}

// take removes and returns the proposals waiting on parent.
func (o *orphans) take(parent types.BlockID) []*types.Proposal {
	waiting, ok := o.byParent[parent]
	if !ok {
		return nil
	}
	delete(o.byParent, parent)
	o.n -= len(waiting)
	for i, id := range o.order {
		if id == parent {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
	return waiting
}

// maxEchoDepth bounds echo unwrapping. Honest replicas wrap a base message
// exactly once (Streamlet's echo never re-wraps an echo), so anything nested
// deeper is adversarial; an explicit cap keeps a maliciously nested chain
// from recursing a handler (or Prevalidate, on a transport reader goroutine)
// into a stack overflow.
const maxEchoDepth = 4

// UnwrapEcho strips up to maxEchoDepth relay wrappers, returning nil for
// chains that are empty or nested beyond the cap.
func UnwrapEcho(msg types.Message) types.Message {
	for depth := 0; ; depth++ {
		e, ok := msg.(*types.Echo)
		if !ok {
			return msg
		}
		if e.Inner == nil || depth >= maxEchoDepth {
			return nil
		}
		msg = e.Inner
	}
}
