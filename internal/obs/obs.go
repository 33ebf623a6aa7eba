package obs

import (
	"strconv"
	"time"

	"repro/internal/types"
)

// Options configures an Obs sink.
type Options struct {
	// N is the committee size; per-peer network metrics are pre-registered
	// for replica IDs in [0, N).
	N int
	// F is the fault threshold; per-level strength histograms are
	// pre-registered for levels in [1, 2F].
	F int
	// TraceCapacity bounds the block-lifecycle ring (default 256).
	TraceCapacity int
}

// Obs is the observability sink. Every layer of the stack reports into the
// pre-resolved handles below; a nil *Obs is a valid sink whose hooks are
// no-ops, so instrumented code never branches on configuration.
type Obs struct {
	reg    *Registry
	tracer *Tracer
	n, f   int

	rounds        *Counter
	timeoutRounds *Counter
	localTimeouts *Counter
	curRound      *Gauge

	proposals   *Counter
	votes       *Counter
	qcsFormed   *Counter
	qcsObserved *Counter

	commits         *Counter
	committedHeight *Gauge
	rises           *Counter
	maxStrength     *Gauge
	commitLatency   *Histogram
	levelLatency    []*Histogram // index x in [0, 2f]; 0 unused
	commitToLevel   []*Histogram // commit -> x-strong delay, same indexing

	verifyBatch *Histogram

	walFlushes *Counter
	walBytes   *Counter
	walFsync   *Histogram

	framesIn, framesOut []*Counter // indexed by peer ReplicaID
	bytesIn, bytesOut   []*Counter
	sendDropped         []*Counter

	prevalChecked *Counter
	prevalDropped *Counter

	// Execution layer (execute-before-vote): blocks run through the state
	// machine, and AppHash disagreements — a vote or justify certificate
	// certifying a state root the local execution did not produce, the
	// genuine fork signal the paper's safety argument turns into a refusal
	// to vote.
	appExecuted   *Counter
	appMismatches *Counter

	// Failures the engines tolerate and count instead of dropping silently:
	// blocks the state machine refused, state-sync segments rejected at a bad
	// link, and certificate aggregations that fell back to the vector form.
	// All three read 0 on a healthy cluster.
	appExecFailed  *Counter
	syncRejected   *Counter
	qcAggregateErr *Counter

	// Pacemaker hardening: rejected timeouts, by reason.
	// Children are pre-registered per reason so hot-path (and prevalidation
	// reader-goroutine) increments never touch the registry lock.
	rejTimeouts map[string]*Counter

	// Access tier: strength-subscription gateway fan-out. Subscriber counts
	// and evictions make the bounded-queue policy observable; the
	// ingested/rejected pair separates a healthy proof feed from one being
	// fed garbage.
	gwSubscribers *Gauge
	gwEvents      *Counter
	gwEvictions   *Counter
	gwIngested    *Counter
	gwRejected    *Counter
	gwFramesOut   *Counter
	gwBytesOut    *Counter
}

// Rejection reasons for the rejected-timeout counter family. The set is
// closed so every child pre-registers; an unknown reason lands on
// ReasonOther rather than allocating a new child at runtime.
const (
	ReasonStale        = "stale"
	ReasonPeerCap      = "peer-cap"
	ReasonMismatch     = "high-round-mismatch"
	ReasonBadSignature = "bad-signature"
	ReasonOther        = "other"
)

var timeoutReasons = []string{ReasonStale, ReasonPeerCap, ReasonMismatch, ReasonBadSignature, ReasonOther}

// New builds an Obs sink with every metric family pre-registered so hot-path
// hooks never touch the registry lock.
func New(o Options) *Obs {
	if o.N <= 0 {
		o.N = 1
	}
	if o.F < 0 {
		o.F = 0
	}
	r := NewRegistry()
	s := &Obs{
		reg:    r,
		tracer: NewTracer(o.TraceCapacity),
		n:      o.N,
		f:      o.F,

		rounds:        r.Counter("sft_rounds_total", "Rounds entered by the local engine."),
		timeoutRounds: r.Counter("sft_timeout_round_advances_total", "Round advances driven by a timeout certificate rather than a QC."),
		localTimeouts: r.Counter("sft_round_timeouts_total", "Local pacemaker round timeouts fired."),
		curRound:      r.Gauge("sft_round", "Current engine round."),

		proposals:   r.Counter("sft_proposals_total", "Blocks proposed by this replica as leader."),
		votes:       r.Counter("sft_votes_sent_total", "Votes this replica sent."),
		qcsFormed:   r.Counter("sft_qcs_formed_total", "Quorum certificates assembled by this replica from collected votes."),
		qcsObserved: r.Counter("sft_qcs_observed_total", "Quorum certificates registered locally (formed or received)."),

		commits:         r.Counter("sft_commits_total", "Blocks committed."),
		committedHeight: r.Gauge("sft_committed_height", "Height of the latest committed block."),
		rises:           r.Counter("sft_strength_rises_total", "Commit-strength increase events reported by the strength tracker."),
		maxStrength:     r.Gauge("sft_max_strength", "Highest commit strength observed for any block."),
		commitLatency:   r.Histogram("sft_commit_latency_seconds", "Block creation to local commit, engine clock.", LatencyBuckets),

		verifyBatch: r.Histogram("sft_verify_batch_seconds", "Wall-clock latency of batch/aggregate QC signature verification.", LatencyBuckets),

		walFlushes: r.Counter("sft_wal_flushes_total", "WAL batch flushes."),
		walBytes:   r.Counter("sft_wal_flush_bytes_total", "Bytes written by WAL flushes."),
		walFsync:   r.Histogram("sft_wal_fsync_seconds", "Wall-clock latency of WAL flush+fsync.", LatencyBuckets),

		prevalChecked: r.Counter("sft_prevalidate_checked_total", "Messages run through signature prevalidation."),
		prevalDropped: r.Counter("sft_prevalidate_dropped_total", "Messages dropped by signature prevalidation."),

		appExecuted:   r.Counter("sft_app_blocks_executed_total", "Blocks executed through the application state machine (execute-before-vote)."),
		appMismatches: r.Counter("sft_app_apphash_mismatches_total", "AppHash disagreements detected (vote or certificate state root differs from local execution)."),

		appExecFailed:  r.Counter("sft_app_execute_failed_total", "Blocks the application state machine failed to execute (stored for ordering, never voted for)."),
		syncRejected:   r.Counter("sft_sync_segments_rejected_total", "Sync segments rejected at a malformed or uncertified link."),
		qcAggregateErr: r.Counter("sft_qc_aggregate_failed_total", "Formed certificates that could not be aggregated and stayed in vector form."),

		gwSubscribers: r.Gauge("sft_gateway_subscribers", "Strength-subscription connections currently attached to the gateway."),
		gwEvents:      r.Counter("sft_gateway_events_total", "Proof-carrying strength-rise events fanned out (one per subscriber delivery)."),
		gwEvictions:   r.Counter("sft_gateway_evictions_total", "Subscribers evicted because their bounded queue overflowed (slowest-subscriber policy)."),
		gwIngested:    r.Counter("sft_gateway_certified_ingested_total", "Certified (block, QC) pairs accepted from the observer feed."),
		gwRejected:    r.Counter("sft_gateway_certified_rejected_total", "Certified pairs rejected by the gateway's own proof verification."),
		gwFramesOut:   r.Counter("sft_gateway_frames_sent_total", "Subscription protocol frames written to subscribers."),
		gwBytesOut:    r.Counter("sft_gateway_bytes_sent_total", "Subscription protocol bytes written to subscribers."),
	}

	levels := 2 * o.F
	s.levelLatency = make([]*Histogram, levels+1)
	s.commitToLevel = make([]*Histogram, levels+1)
	for x := 1; x <= levels; x++ {
		lv := Label{Key: "level", Value: strconv.Itoa(x)}
		s.levelLatency[x] = r.Histogram("sft_strength_latency_seconds",
			"Block creation to x-strong commit, engine clock, by strength level.", LatencyBuckets, lv)
		s.commitToLevel[x] = r.Histogram("sft_commit_to_strength_seconds",
			"Local commit to x-strong commit, engine clock, by strength level.", LatencyBuckets, lv)
	}

	s.rejTimeouts = make(map[string]*Counter, len(timeoutReasons))
	for _, reason := range timeoutReasons {
		s.rejTimeouts[reason] = r.Counter("sft_pacemaker_rejected_timeouts_total",
			"Timeout messages rejected by the pacemaker's validation, by reason.",
			Label{Key: "reason", Value: reason})
	}

	s.framesIn = make([]*Counter, o.N)
	s.framesOut = make([]*Counter, o.N)
	s.bytesIn = make([]*Counter, o.N)
	s.bytesOut = make([]*Counter, o.N)
	s.sendDropped = make([]*Counter, o.N)
	for p := 0; p < o.N; p++ {
		peer := Label{Key: "peer", Value: strconv.Itoa(p)}
		in := Label{Key: "dir", Value: "in"}
		out := Label{Key: "dir", Value: "out"}
		s.framesIn[p] = r.Counter("sft_net_frames_total", "Transport frames exchanged, by peer and direction.", peer, in)
		s.framesOut[p] = r.Counter("sft_net_frames_total", "Transport frames exchanged, by peer and direction.", peer, out)
		s.bytesIn[p] = r.Counter("sft_net_bytes_total", "Transport bytes exchanged, by peer and direction.", peer, in)
		s.bytesOut[p] = r.Counter("sft_net_bytes_total", "Transport bytes exchanged, by peer and direction.", peer, out)
		s.sendDropped[p] = r.Counter("sft_net_send_dropped_total", "Outbound frames dropped because the peer's bounded send queue overflowed.", peer)
	}
	return s
}

// Registry exposes the metric registry (for /metrics and tests).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer exposes the block-lifecycle tracer (for /tracez and tests).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// --- engine hooks (engine clock; single event-loop goroutine) -------------

// OnRoundEnter records the engine entering round r at engine time now.
// viaTimeout marks advances driven by a timeout certificate.
func (o *Obs) OnRoundEnter(r types.Round, now time.Duration, viaTimeout bool) {
	if o == nil {
		return
	}
	o.rounds.Inc()
	o.curRound.SetMax(int64(r))
	if viaTimeout {
		o.timeoutRounds.Inc()
	}
}

// OnLocalTimeout records a local pacemaker round timeout.
func (o *Obs) OnLocalTimeout(r types.Round) {
	if o == nil {
		return
	}
	o.localTimeouts.Inc()
}

// OnProposed records that this replica proposed block b as leader.
func (o *Obs) OnProposed(b *types.Block, now time.Duration) {
	if o == nil {
		return
	}
	o.proposals.Inc()
	o.tracer.Observe(b, StageProposed, now)
}

// OnBlockSeen records that a (verified) proposal for b arrived.
func (o *Obs) OnBlockSeen(b *types.Block, now time.Duration) {
	if o == nil {
		return
	}
	o.tracer.Observe(b, StageProposed, now)
}

// OnVoted records that this replica voted for block b.
func (o *Obs) OnVoted(b *types.Block, now time.Duration) {
	if o == nil {
		return
	}
	o.votes.Inc()
	o.tracer.Observe(b, StageVoted, now)
}

// OnQCFormed records that this replica assembled a QC for block b from
// collected votes (leader-side).
func (o *Obs) OnQCFormed(b *types.Block, now time.Duration) {
	if o == nil {
		return
	}
	o.qcsFormed.Inc()
	o.tracer.Observe(b, StageQC, now)
}

// OnQCObserved records that a QC for block b was registered locally,
// whether formed here or received from a peer.
func (o *Obs) OnQCObserved(b *types.Block, now time.Duration) {
	if o == nil {
		return
	}
	o.qcsObserved.Inc()
	o.tracer.Observe(b, StageQC, now)
}

// OnCommit records the local commit of block b at engine time now.
func (o *Obs) OnCommit(b *types.Block, now time.Duration) {
	if o == nil {
		return
	}
	o.commits.Inc()
	o.committedHeight.SetMax(int64(b.Height))
	if lat := now - time.Duration(b.Timestamp); lat >= 0 {
		o.commitLatency.ObserveDuration(lat)
	}
	o.tracer.Observe(b, StageCommitted, now)
}

// OnStrength records block b reaching commit strength x at engine time now.
// Within one engine event the strength tracker can report rises before the
// commit output is emitted; the commit→x-strong delay clamps at zero.
func (o *Obs) OnStrength(b *types.Block, x int, now time.Duration) {
	if o == nil {
		return
	}
	o.rises.Inc()
	o.maxStrength.SetMax(int64(x))
	if x >= 1 && x < len(o.levelLatency) {
		if lat := now - time.Duration(b.Timestamp); lat >= 0 {
			o.levelLatency[x].ObserveDuration(lat)
		}
		if at, ok := o.tracer.CommittedAt(b.ID()); ok {
			d := now - at
			if d < 0 {
				d = 0
			}
			o.commitToLevel[x].ObserveDuration(d)
		}
	}
	o.tracer.Rise(b, x, now)
}

// OnAppExecuted records one block run through the application state machine.
func (o *Obs) OnAppExecuted() {
	if o == nil {
		return
	}
	o.appExecuted.Inc()
}

// OnAppHashMismatch records an AppHash disagreement: a vote or justify
// certificate certified a state root the local execution did not produce.
func (o *Obs) OnAppHashMismatch() {
	if o == nil {
		return
	}
	o.appMismatches.Inc()
}

// OnAppExecuteFailed records a block the state machine refused to execute.
func (o *Obs) OnAppExecuteFailed() {
	if o == nil {
		return
	}
	o.appExecFailed.Inc()
}

// OnSyncSegmentRejected records a sync segment rejected at a bad link.
func (o *Obs) OnSyncSegmentRejected() {
	if o == nil {
		return
	}
	o.syncRejected.Inc()
}

// OnQCAggregateFailed records a formed certificate that stayed in vector
// form because aggregation failed.
func (o *Obs) OnQCAggregateFailed() {
	if o == nil {
		return
	}
	o.qcAggregateErr.Inc()
}

// --- operational hooks (wall clock; may run off the event loop) -----------

// ObserveVerifyBatch records the wall-clock latency of one batch/aggregate
// QC signature verification.
func (o *Obs) ObserveVerifyBatch(d time.Duration) {
	if o == nil {
		return
	}
	o.verifyBatch.ObserveDuration(d)
}

// ObserveWALFlush records one WAL flush: wall-clock duration, bytes written,
// and whether the flush fsynced.
func (o *Obs) ObserveWALFlush(d time.Duration, bytes int, synced bool) {
	if o == nil {
		return
	}
	o.walFlushes.Inc()
	o.walBytes.Add(int64(bytes))
	if synced {
		o.walFsync.ObserveDuration(d)
	}
}

// OnFrameIn records one inbound transport frame from peer.
func (o *Obs) OnFrameIn(peer types.ReplicaID, bytes int64) {
	if o == nil || int(peer) >= len(o.framesIn) {
		return
	}
	o.framesIn[peer].Inc()
	o.bytesIn[peer].Add(bytes)
}

// OnFrameOut records one outbound transport frame to peer.
func (o *Obs) OnFrameOut(peer types.ReplicaID, bytes int64) {
	if o == nil || int(peer) >= len(o.framesOut) {
		return
	}
	o.framesOut[peer].Inc()
	o.bytesOut[peer].Add(bytes)
}

// OnSendDropped records frames dropped from peer's outbound queue.
func (o *Obs) OnSendDropped(peer types.ReplicaID, frames int) {
	if o == nil || int(peer) >= len(o.sendDropped) {
		return
	}
	o.sendDropped[peer].Add(int64(frames))
}

// OnPrevalidate records one message run through prevalidation. Whoever calls
// an engine's Prevalidate reports it here, once: a transport reader
// goroutine, or the engine's own OnMessage for the inline call.
func (o *Obs) OnPrevalidate(dropped bool) {
	if o == nil {
		return
	}
	o.prevalChecked.Inc()
	if dropped {
		o.prevalDropped.Inc()
	}
}

// OnTimeoutRejected records a timeout message the pacemaker validation
// rejected (stale, per-peer cap, inconsistent high-round claim, bad
// signature). Safe from prevalidation goroutines.
func (o *Obs) OnTimeoutRejected(reason string) {
	if o == nil {
		return
	}
	c, ok := o.rejTimeouts[reason]
	if !ok {
		c = o.rejTimeouts[ReasonOther]
	}
	c.Inc()
}

// --- snapshot accessors (for sft.MetricsSnapshot parity) ------------------

// CurrentRound returns the highest round entered.
func (o *Obs) CurrentRound() int64 {
	if o == nil {
		return 0
	}
	return o.curRound.Value()
}

// LocalTimeouts returns the number of local round timeouts fired.
func (o *Obs) LocalTimeouts() int64 {
	if o == nil {
		return 0
	}
	return o.localTimeouts.Value()
}

// PrevalidateDrops returns the number of messages dropped by prevalidation.
func (o *Obs) PrevalidateDrops() int64 {
	if o == nil {
		return 0
	}
	return o.prevalDropped.Value()
}

// WALFlushes returns the number of WAL flushes observed.
func (o *Obs) WALFlushes() int64 {
	if o == nil {
		return 0
	}
	return o.walFlushes.Value()
}

// Commits returns the number of commits observed.
func (o *Obs) Commits() int64 {
	if o == nil {
		return 0
	}
	return o.commits.Value()
}

// AppHashMismatches returns the number of AppHash disagreements detected.
func (o *Obs) AppHashMismatches() int64 {
	if o == nil {
		return 0
	}
	return o.appMismatches.Value()
}

// RejectedTimeouts returns the total timeout messages rejected across all
// reasons.
func (o *Obs) RejectedTimeouts() int64 {
	if o == nil {
		return 0
	}
	var total int64
	for _, c := range o.rejTimeouts {
		total += c.Value()
	}
	return total
}

// --- gateway hooks (access tier; called from gateway goroutines) ----------

// OnGatewaySubscribed moves the live-subscriber gauge by delta (+1 attach,
// -1 detach).
func (o *Obs) OnGatewaySubscribed(delta int64) {
	if o == nil {
		return
	}
	o.gwSubscribers.Add(delta)
}

// OnGatewayEvicted records one slowest-subscriber eviction.
func (o *Obs) OnGatewayEvicted() {
	if o == nil {
		return
	}
	o.gwEvictions.Inc()
}

// OnGatewayIngest records one certified pair arriving from the observer
// feed; rejected marks pairs the gateway's own proof verification refused.
func (o *Obs) OnGatewayIngest(rejected bool) {
	if o == nil {
		return
	}
	if rejected {
		o.gwRejected.Inc()
		return
	}
	o.gwIngested.Inc()
}

// OnGatewayEvent records one strength-rise delivery queued to a subscriber.
func (o *Obs) OnGatewayEvent() {
	if o == nil {
		return
	}
	o.gwEvents.Inc()
}

// OnGatewayFrameOut records one subscription frame written to a subscriber.
func (o *Obs) OnGatewayFrameOut(bytes int64) {
	if o == nil {
		return
	}
	o.gwFramesOut.Inc()
	o.gwBytesOut.Add(bytes)
}

// GatewayEvictions returns the eviction counter (tests, smoke checks).
func (o *Obs) GatewayEvictions() int64 {
	if o == nil {
		return 0
	}
	return o.gwEvictions.Value()
}
