package replica

import (
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
// the record a certificate carries of having passed a door
// (types.QC.PassedDoor): the same *QC, whichever replica of the process
// checked it first, is accepted again without being read. Safe for
// concurrent use from Prevalidate workers: the record is published
// atomically, the cache is internally synchronized and batch verification
// touches no replica state.
type Certs struct {
	verifier crypto.Verifier
	by       any // what a record names: the verifier, or nil for structure only
	quorum   int
	workers  int
	check    bool
	full     bool // DisableCache's: read every certificate in full
	cache    *crypto.QCCache
	obs      *obs.Obs
}

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
		c.by = cfg.Verifier
		c.cache = crypto.NewQCCache(crypto.DefaultQCCacheSize)
	}
	return c
}

// DisableCache turns the cache and the records off, re-verifying every
// delivery in full — the reference arm of the cache-on/off determinism tests.
func (c *Certs) DisableCache() { c.cache, c.full = nil, true }

// Cached reports whether verified certificates are memoized.
func (c *Certs) Cached() bool { return c.cache != nil }

// VerifyQC checks a certificate: its structure always, its signatures when
// signature checking is configured on. A certificate recorded as having
// passed this quorum (and verifier) at its own address is accepted without
// being read; any other gets every check and, when it passes, the record.
func (c *Certs) VerifyQC(qc *types.QC) error {
	if !c.full && qc.PassedDoor(c.quorum, c.by) {
		return nil
	}
	if err := c.verify(qc); err != nil {
		return err
	}
	if !c.full {
		qc.MarkPassedDoor(c.quorum, c.by)
	}
	return nil
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
