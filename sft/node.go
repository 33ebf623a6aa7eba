package sft

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tcpnet"
)

// Observability is the per-node observability sink built by
// WithObservability: a metric registry (Prometheus text via
// Registry().WritePrometheus), a block-lifecycle tracer, and snapshot
// accessors. Serve it over HTTP with obs.NewHandler.
type Observability = obs.Obs

// HealthReport is a snapshot of the Section 5 QC-diversity health signal.
type HealthReport = health.Report

// CommitEvent is one observation of a block's commit strength. Every block
// produces a sequence of events: first the regular commit (Strength = f,
// the classical guarantee), then one event per strength increase as the
// chain extends the block, up to 2f. Subscribers see the sequence filtered
// by their node's CommitRule.MinStrength.
type CommitEvent struct {
	// Block is the committed block.
	Block *Block
	// Height and Round locate it on the chain.
	Height Height
	Round  Round
	// Strength is the number of Byzantine faults the commit now tolerates
	// (Definition 1): F at the regular commit, rising toward 2F.
	Strength int
	// Regular marks the classical (f-strong) commit — exactly one per
	// block, in height order. Strength-rise events (including the tracker's
	// first report at x = F, which may accompany the regular commit) carry
	// Regular false.
	Regular bool
	// Results carries the block's per-transaction execution outcomes on the
	// regular commit of a node built WithApp — the deterministic verdicts the
	// certified state root commits to, exposed so consumers never re-decode
	// or re-execute the payload. Nil on strength-rise events and without an
	// execution layer. Results[i] corresponds to Block.Payload.Txns[i].
	Results []TxResult
	// Time is the node's clock when the event was observed — wall-clock
	// elapsed since Run for real transports, virtual time under Simnet.
	Time time.Duration
}

// RecoveryInfo summarizes what a node restored from its write-ahead log.
type RecoveryInfo struct {
	// Floor is the height of the journal's newest checkpoint, 0 when it never
	// checkpointed: the journal keeps nothing below it, and the replayed
	// blocks start there.
	Floor Height
	// Blocks and Votes count the replayed records.
	Blocks, Votes int
	// VotedRound is the highest round the pre-crash incarnation voted in —
	// the safety-critical value: the restored node never votes at or below
	// it in contradiction to its pre-crash markers.
	VotedRound Round
	// CommittedHeight is the pre-crash committed height.
	CommittedHeight Height
	// HighQCRound is the round of the highest recovered certificate.
	HighQCRound Round
}

func recoveryInfo(rec *core.Recovery) RecoveryInfo {
	info := RecoveryInfo{
		Floor:           rec.Floor,
		Blocks:          len(rec.Blocks),
		Votes:           len(rec.Votes),
		VotedRound:      rec.VotedRound(),
		CommittedHeight: rec.CommittedHeight,
	}
	if rec.HighQC != nil {
		info.HighQCRound = rec.HighQC.Round
	}
	return info
}

// journalHandle closes a journal exactly once no matter how many exit paths
// reach it (runtime.Node.Run's deferred close, Node.Close, New's error
// paths).
type journalHandle struct {
	once sync.Once
	j    *core.Journal
	err  error
}

func (h *journalHandle) Close() error {
	h.once.Do(func() { h.err = h.j.Close() })
	return h.err
}

// Node is one composed replica: engine, commit rule, transport, durability
// and subscriptions behind a single handle. Create with New; run with Run
// (TCP/LocalNet) or by driving the attached Simnet; stop with Close.
type Node struct {
	cfg  Config
	rule CommitRule
	eng  engine.Engine
	// build makes an engine over a journal, which is nil without WithWAL.
	// New sets it for every node and builds the first engine with it; a
	// Simnet restart builds every later incarnation.
	build func(*core.Journal) (engine.Engine, error)

	// Exactly one of rt/world is set, per the transport.
	rt    *runtime.Node
	tcp   *tcpnet.Net
	world *Simnet

	journal  *journalHandle
	walDir   string
	restored *RecoveryInfo

	metrics counters

	// obs and health are set by WithObservability; both read as nil-safe
	// no-ops when the option is absent.
	obs    *obs.Obs
	health *healthState

	// feed is the commit-strength stream; its mutex also guards eng and
	// journal, which Simnet restarts swap.
	feed

	closeOnce sync.Once
	closeErr  error
}

// healthState wraps the single-threaded health.Monitor for concurrent
// feeding (commit path) and reading (Node.Health, /healthz).
type healthState struct {
	mu  sync.Mutex
	mon *health.Monitor
}

func (h *healthState) observe(qc *QC) {
	if h == nil || qc == nil {
		return
	}
	h.mu.Lock()
	h.mon.ObserveQC(qc)
	h.mu.Unlock()
}

func (h *healthState) snapshot() HealthReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mon.Snapshot()
}

// ID returns the replica this node embodies.
func (n *Node) ID() ReplicaID { return n.cfg.ID }

// Rule returns the node's resolved commit rule.
func (n *Node) Rule() CommitRule { return n.rule }

// Restored reports the state recovered from the write-ahead log, if the
// node was built over a WAL left by a previous incarnation.
func (n *Node) Restored() (RecoveryInfo, bool) {
	if n.restored == nil {
		return RecoveryInfo{}, false
	}
	return *n.restored, true
}

// Addr returns the TCP listen address (nil for other transports) — useful
// with an ephemeral ":0" listen address.
func (n *Node) Addr() net.Addr {
	if n.tcp == nil {
		return nil
	}
	return n.tcp.Addr()
}

// SetPeers installs the cluster address book on a TCP node. Use it for the
// bind-first-then-exchange pattern: listen on ephemeral ports, collect
// every node's Addr, then SetPeers everywhere before Run.
func (n *Node) SetPeers(peers map[ReplicaID]string) error {
	if n.tcp == nil {
		return fmt.Errorf("sft: SetPeers requires the TCP transport")
	}
	n.tcp.SetPeers(peers)
	return nil
}

// Run executes the node's event loop until ctx is cancelled, then flushes
// and closes the node's resources (WAL included) — a SIGTERM-cancelled
// context is a graceful shutdown. Run applies only to real transports;
// Simnet-attached nodes are driven by Simnet.Run instead. Returns nil on
// plain context cancellation.
func (n *Node) Run(ctx context.Context) error {
	if n.rt == nil {
		return fmt.Errorf("sft: node %d is attached to a Simnet; drive it with Simnet.Run", n.cfg.ID)
	}
	n.started = time.Now()
	err := n.rt.Run(ctx)
	cerr := n.Close()
	if err != nil && err != ctx.Err() {
		return err
	}
	return cerr
}

// Close releases the node's resources: the transport stops, the write-ahead
// log is flushed and closed, and every Commits subscription channel closes.
// Events still queued for a subscription at close are handed over only
// while its consumer keeps pace: once the channel's 16-slot buffer is full
// and the consumer is not receiving at that instant, the rest may be dropped
// and the channel closes. A consumer that needs every event therefore drains
// its channel while the node runs, not after Close; one that stopped no
// longer pins the subscription. Safe to call more than once and after Run
// returned. Simnet-attached nodes may also be closed via Simnet.Close.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.tcp != nil {
			n.closeErr = n.tcp.Close()
		}
		n.mu.Lock()
		journal := n.journal
		n.mu.Unlock()
		if journal != nil {
			if err := journal.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
		n.shut()
	})
	return n.closeErr
}

// Commits returns a fresh subscription to the node's commit-strength
// stream. Each call returns an independent channel carrying every
// CommitEvent at or above CommitRule.MinStrength, in order, without
// back-pressure on the consensus path (events are buffered unboundedly
// until consumed). The channel closes when the node closes, and the events
// still queued then may be cut short (see Close).
func (n *Node) Commits() <-chan CommitEvent { return n.subscribe() }

// Strength returns the strongest commit level the node has observed for the
// block: -1 before the regular commit, then F..2F — and -1 again once
// WithPruneKeep has forgotten the block.
func (n *Node) Strength(id BlockID) int { return n.strengthOf(id) }

// CommittedHeight returns the highest committed height observed.
func (n *Node) CommittedHeight() Height { return n.committedHeight() }

// WaitStrength blocks until the node observes block id at strength >= x, the
// context is done, or the node closes. It is the programmatic form of the
// paper's per-transaction resilience choice: commit the transaction when its
// block tolerates the number of faults the caller cares about. Do not call
// it from the goroutine that drives a Simnet — virtual time only advances
// there. A block that WithPruneKeep has forgotten reads as not committed and
// the engine, which pruned it too, reports no rise for it: that wait ends
// with its context.
func (n *Node) WaitStrength(ctx context.Context, id BlockID, x int) error {
	return n.waitStrength(ctx, id, x)
}

// Metrics returns a snapshot of the node's counters, including the TCP
// transport's dropped-frame accounting when applicable. Nodes built with
// WithObservability additionally report round, timeout, prevalidation-drop
// and WAL-flush counters plus the health monitor's diversity/straggler
// scores.
func (n *Node) Metrics() MetricsSnapshot {
	snap := n.metrics.snapshot()
	if n.tcp != nil {
		fs := n.tcp.FrameStats()
		snap.SpoofedFrames = fs.Spoofed
		snap.MalformedFrames = fs.Malformed
		snap.VerifyDroppedFrames = fs.Prevalidated
		snap.SendDropped = fs.SendDropped
	}
	if n.rt != nil {
		snap.SendDropped += n.rt.SendFailures()
	}
	if n.obs != nil {
		snap.Round = Round(n.obs.CurrentRound())
		snap.Timeouts = n.obs.LocalTimeouts()
		snap.PrevalidateDrops = n.obs.PrevalidateDrops()
		snap.WALFlushes = n.obs.WALFlushes()
	}
	if n.health != nil {
		rep := n.health.snapshot()
		snap.HealthLive = true
		snap.HealthDiversity = rep.Diversity
		snap.HealthStragglers = rep.Stragglers
	}
	return snap
}

// Obs returns the node's observability sink, or nil without
// WithObservability. The returned value's methods are nil-safe, so callers
// may use it unconditionally.
func (n *Node) Obs() *Observability { return n.obs }

// Health returns the Section 5 QC-diversity health snapshot. The second
// result is false without WithObservability. The monitor ingests the
// justify QC of every committed block, so diversity and stragglers reflect
// exactly the certificates the chain carries.
func (n *Node) Health() (HealthReport, bool) {
	if n.health == nil {
		return HealthReport{}, false
	}
	return n.health.snapshot(), true
}

// PacemakerStats returns the DiemBFT pacemaker's timeout-buffer accounting:
// timeouts held now, the most any one peer ever had held, and timeouts the
// per-peer cap shed (zero values under Streamlet). The engine owns the
// buffer, so read it between Simnet.Run calls or after Run returned.
func (n *Node) PacemakerStats() PacemakerStats {
	if p, ok := n.honestEngine().(interface{ PacemakerStats() PacemakerStats }); ok {
		return p.PacemakerStats()
	}
	return PacemakerStats{}
}

// honestEngine returns the current incarnation's engine (Simnet restarts swap
// it) with a WithAdversary shell unwrapped.
func (n *Node) honestEngine() engine.Engine {
	n.mu.Lock()
	eng := n.eng
	n.mu.Unlock()
	if w, ok := eng.(*adversary.Replica); ok {
		return w.Inner()
	}
	return eng
}

// onCommit and onStrength are the node's internal observers, wired into the
// runtime callbacks or the Simnet dispatcher by the transport attach.
func (n *Node) onCommit(now time.Duration, b *Block) {
	n.metrics.onCommit(b.Height)
	n.health.observe(b.Justify)
	ev := CommitEvent{Block: b, Height: b.Height, Round: b.Round, Strength: n.cfg.F(), Regular: true, Time: now}
	if exec := n.executor(); exec != nil {
		ev.Results = exec.Results(b.ID())
	}
	n.publish(ev)
}

func (n *Node) onStrength(now time.Duration, b *Block, x int) {
	n.metrics.onStrength(x)
	n.publish(CommitEvent{Block: b, Height: b.Height, Round: b.Round, Strength: x, Time: now})
}

// subscription is one unbounded commit-event queue with a pump goroutine
// feeding its channel, so publishing never blocks the consensus path. The
// queue grows until the consumer drains it; a consumer that abandons the
// channel on a still-running node therefore retains its backlog until the
// node closes — at which point the pump exits even mid-send (done unblocks
// it), so closed nodes never leak pump goroutines.
type subscription struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []CommitEvent
	closed bool
	done   chan struct{}
	ch     chan CommitEvent
}

func newSubscription() *subscription {
	sub := &subscription{ch: make(chan CommitEvent, 16), done: make(chan struct{})}
	sub.cond = sync.NewCond(&sub.mu)
	go sub.pump()
	return sub
}

func (s *subscription) push(ev CommitEvent) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, ev)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscription) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscription) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		for _, ev := range batch {
			// Fast path keeps delivery order cheap; after close, a consumer
			// that keeps receiving still drains the backlog (non-blocking
			// send first), but one that walked away no longer pins the
			// goroutine.
			select {
			case s.ch <- ev:
				continue
			default:
			}
			select {
			case s.ch <- ev:
			case <-s.done:
				close(s.ch)
				return
			}
		}
		if closed {
			close(s.ch)
			return
		}
	}
}
