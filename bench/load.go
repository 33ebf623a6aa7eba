package main

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/app"
	"repro/sft"
)

// txSource is the run's input, made from the seed alone: the transactions in
// submit order, and the way back from a committed transaction's (Sender, Seq)
// to its position in that order. next is called by the submit goroutine only;
// index must be safe to call concurrently with it.
type txSource interface {
	// capacity is how many transactions the source can hand out; running past
	// it fails the run.
	capacity() int
	next() sft.Transaction
	// index returns the submit position of a committed transaction, or -1
	// for one this source never made.
	index(tx sft.Transaction) int
}

// bankSource is a pool of bank operations signed during set-up, so that the
// measured window holds no client-side crypto.
type bankSource struct {
	txns      []sft.Transaction
	bySender  [][]int32 // bySender[from][nonce-1] = submit position
	withdrawn []uint64  // amount leaving the system with operation i
	cursor    int
}

// bankSchedule draws size bank operations from the seed: seven transfers to
// one withdrawal (the mix internal/workload.BankWorkload uses), amounts small
// enough that no account can run dry, nonces issued in submit order.
func bankSchedule(seed int64, size int) []sft.BankTx {
	rng := rand.New(rand.NewSource(seed))
	nonce := make([]uint64, bankAccounts)
	out := make([]sft.BankTx, size)
	for i := range out {
		from := uint32(rng.Intn(bankAccounts))
		nonce[from]++
		tx := sft.BankTx{
			Op:     sft.OpTransfer,
			From:   from,
			To:     uint32(rng.Intn(bankAccounts)),
			Amount: 1 + uint64(rng.Intn(50)),
			Nonce:  nonce[from],
		}
		if rng.Intn(8) == 0 {
			tx.Op, tx.To = sft.OpWithdraw, 0
		}
		out[i] = tx
	}
	return out
}

// newBankSource signs the schedule on both cores. Account keys are derived
// once each (sft.SignBankTx re-derives the key on every call, which would
// nearly double set-up).
func newBankSource(seed int64, size int) txSource {
	sched := bankSchedule(seed, size)
	keys := make([]ed25519.PrivateKey, bankAccounts)
	for id := range keys {
		keys[id] = app.AccountKey(bankSeed, uint32(id))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := w; i < len(sched); i += 2 {
				tx := &sched[i]
				buf = tx.AppendSigningPayload(buf[:0])
				copy(tx.Sig[:], ed25519.Sign(keys[tx.From], buf))
			}
		}()
	}
	wg.Wait()
	src := &bankSource{
		txns:      make([]sft.Transaction, size),
		bySender:  make([][]int32, bankAccounts),
		withdrawn: make([]uint64, size),
	}
	for i := range sched {
		tx := &sched[i]
		if tx.Op == sft.OpWithdraw {
			src.withdrawn[i] = tx.Amount
		}
		src.txns[i] = tx.AsTransaction()
		src.bySender[tx.From] = append(src.bySender[tx.From], int32(i))
	}
	return src
}

func (s *bankSource) capacity() int { return len(s.txns) }

func (s *bankSource) next() sft.Transaction {
	s.cursor++
	return s.txns[s.cursor-1]
}

func (s *bankSource) index(tx sft.Transaction) int {
	if int(tx.Sender) >= len(s.bySender) || tx.Seq == 0 || tx.Seq > uint64(len(s.bySender[tx.Sender])) {
		return -1
	}
	return int(s.bySender[tx.Sender][tx.Seq-1])
}

// orderClients is the synthetic client population of the ordering-only
// workload.
const orderClients = 64

// orderSource makes unsigned 64-byte transactions shaped like
// internal/workload.Generator's, on demand: at 60,000 tx/s a pre-generated
// pool with headroom would be several hundred MB of generator memory inside
// the process whose peak RSS is a metric. Clients take turns, so a
// transaction's submit position follows from its (Sender, Seq) by arithmetic.
type orderSource struct {
	rng    *rand.Rand
	size   int
	cursor int
}

func newOrderSource(seed int64, size int) txSource {
	return &orderSource{rng: rand.New(rand.NewSource(seed)), size: size}
}

func (s *orderSource) capacity() int { return s.size }

func (s *orderSource) next() sft.Transaction {
	i := s.cursor
	s.cursor++
	data := make([]byte, 64)
	s.rng.Read(data)
	return sft.Transaction{Sender: uint32(i % orderClients), Seq: uint64(i/orderClients) + 1, Data: data}
}

func (s *orderSource) index(tx sft.Transaction) int {
	if tx.Sender >= orderClients || tx.Seq == 0 {
		return -1
	}
	i := (tx.Seq-1)*orderClients + uint64(tx.Sender)
	if i >= uint64(s.size) {
		return -1
	}
	return int(i)
}

// loadSpec says how transactions are offered. rate > 0 is an open loop:
// transaction i is due at i/rate and its latency counts from then, so a
// stall is charged to every transaction that was due during it. rate == 0 is
// a closed loop holding `outstanding` transactions in flight.
type loadSpec struct {
	rate        float64
	outstanding int
	warmup      time.Duration
	window      time.Duration
	drain       time.Duration
	// clockEvery thins the latency clock to every clockEvery-th transaction
	// (0 or 1 = all). At 170,000 tx/s three timestamps per transaction would
	// be hundreds of MB of generator memory; one in sixteen still leaves
	// 200,000 latency samples per run. Every transaction is still counted
	// and checked for exactly-once.
	clockEvery int
}

// blockSeen is what the commit reader keeps per committed block.
type blockSeen struct {
	height   sft.Height
	strength int
	commitAt int64 // ns since epoch; 0 = strength seen before the commit
	strongAt int64
	txns     int // transactions in the block
	fresh    int // of those, first-time commits of transactions we submitted
}

// load drives one cluster with one source. One goroutine submits, one reads
// replica 0's commit stream; each writes only its own fields until both have
// returned.
type load struct {
	spec  loadSpec
	src   txSource
	c     *cluster
	spans *spanLog // nil unless tracing
	every int      // spec.clockEvery, at least 1

	epoch time.Time
	// startAt[i/every] is when clocked transaction i's latency clock starts,
	// in ns since epoch: its due time in an open loop, its submit time in a
	// closed one. Written by the submitter before the send, read by the
	// reader after the commit.
	startAt []atomic.Int64

	// Submitter state.
	submitted     atomic.Int64
	firstMeasured int     // index of the first transaction started inside the window
	lateNs        []int64 // open loop: how far behind its due time each send ran
	submitErr     error

	// Reader state.
	commitAt   []int64 // per clocked transaction, ns since epoch, 0 = not seen
	strongAt   []int64
	seen       []uint8 // per transaction: how many times it committed
	committed  atomic.Int64
	sem        chan struct{}
	blocks     map[sft.BlockID]*blockSeen
	strongTop  atomic.Int64 // highest height seen 2f-strong
	lastTxTop  atomic.Int64 // highest height carrying a transaction
	captured   *sft.Block   // fullest block committed after warm-up, for the probes
	unknownTx  int
	duplicates int
	badCode    int
	nonMono    int
}

func newLoad(spec loadSpec, src txSource, c *cluster, spans *spanLog) *load {
	every := max(spec.clockEvery, 1)
	clocked := src.capacity()/every + 1
	l := &load{
		spec: spec, src: src, c: c, spans: spans, every: every,
		startAt:       make([]atomic.Int64, clocked),
		commitAt:      make([]int64, clocked),
		strongAt:      make([]int64, clocked),
		seen:          make([]uint8, src.capacity()),
		blocks:        make(map[sft.BlockID]*blockSeen),
		firstMeasured: -1,
	}
	if spec.rate == 0 {
		l.sem = make(chan struct{}, spec.outstanding)
	}
	return l
}

func (l *load) since() int64 { return int64(time.Since(l.epoch)) }

// txSink is where the generator sends: an *sft.TxnStream in a run, a fake in
// the tests.
type txSink interface {
	Submit(sft.Transaction) error
}

// submit runs the generator from epoch until the end of the measured window.
func (l *load) submit(streams []txSink, stop <-chan struct{}) {
	warm, end := int64(l.spec.warmup), int64(l.spec.warmup+l.spec.window)
	interval := 0.0
	if l.spec.rate > 0 {
		interval = float64(time.Second) / l.spec.rate
	}
	for i := 0; ; i++ {
		if i == l.src.capacity() {
			l.submitErr = fmt.Errorf("pool of %d transactions exhausted before the window ended", i)
			return
		}
		var start, now int64
		if l.spec.rate > 0 {
			start = int64(float64(i) * interval) // the due time
			if start >= end {
				return
			}
			if wait := start - l.since(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			now = l.since()
			l.lateNs = append(l.lateNs, now-start)
		} else {
			select {
			case l.sem <- struct{}{}:
			case <-stop:
				return
			}
			now = l.since()
			if now >= end {
				return
			}
			start = now
		}
		if l.firstMeasured < 0 && start >= warm {
			l.firstMeasured = i
		}
		if i%l.every == 0 {
			l.startAt[i/l.every].Store(start)
		}
		tx := l.src.next()
		// Senders are pinned to one connection each, so per-sender order —
		// which the bank's nonces need — survives two parallel streams.
		if err := streams[int(tx.Sender)%len(streams)].Submit(tx); err != nil {
			l.submitErr = fmt.Errorf("submit %d: %w", i, err)
			return
		}
		l.submitted.Store(int64(i + 1))
		if l.spans != nil && i%spanSubmitEvery == 0 {
			l.spans.add("client.submit", now, l.since(), 0)
		}
	}
}

// read consumes replica 0's commit-strength stream until the node closes.
func (l *load) read(commits <-chan sft.CommitEvent) {
	top := 2 * l.c.f()
	for ev := range commits {
		now := l.since()
		id := ev.Block.ID()
		b, known := l.blocks[id]
		if !known {
			b = &blockSeen{height: ev.Height}
			l.blocks[id] = b
		}
		if !ev.Regular && ev.Strength < b.strength {
			l.nonMono++
		}
		b.strength = max(b.strength, ev.Strength)
		if ev.Regular {
			// The tracker's first strength report may precede the regular
			// commit inside one engine event, so the block may be known.
			b.commitAt, b.txns = now, len(ev.Block.Payload.Txns)
			if now >= int64(l.spec.warmup) && (l.captured == nil || b.txns > len(l.captured.Payload.Txns)) {
				l.captured = ev.Block
			}
			for j, tx := range ev.Block.Payload.Txns {
				i := l.src.index(tx)
				if i < 0 {
					l.unknownTx++
					continue
				}
				if l.seen[i]++; l.seen[i] > 1 {
					l.duplicates++
					continue
				}
				b.fresh++
				if i%l.every == 0 {
					l.commitAt[i/l.every] = now
				}
				if ev.Results != nil && ev.Results[j].Code != sft.CodeOK {
					l.badCode++
				}
				if l.sem != nil {
					<-l.sem
				}
			}
			if b.fresh > 0 {
				l.lastTxTop.Store(int64(ev.Height))
				l.committed.Add(int64(b.fresh))
			}
		}
		if b.strength >= top && b.strongAt == 0 {
			b.strongAt = now
			for _, tx := range ev.Block.Payload.Txns {
				if i := l.src.index(tx); i >= 0 && i%l.every == 0 && l.strongAt[i/l.every] == 0 {
					l.strongAt[i/l.every] = now
				}
			}
			if int64(ev.Height) > l.strongTop.Load() {
				l.strongTop.Store(int64(ev.Height))
			}
			if l.spans != nil && b.commitAt != 0 {
				parent := l.spans.add("client.commit_seen", b.commitAt, b.commitAt, 0)
				l.spans.add("client.strong_seen", b.commitAt, now, parent)
			}
		}
	}
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
