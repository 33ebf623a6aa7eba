package main

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/mempool"
	"repro/internal/tcpnet"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/sft"
)

// probeBudget is how long each probe repeats its operation. Probes run after
// the cluster has stopped, so they have the machine to themselves.
const probeBudget = 100 * time.Millisecond

// prober times public functions of single layers and records one span per
// probe.
type prober struct {
	m     map[string]float64
	spans *spanLog
	epoch time.Time
}

// timeOp repeats fn for probeBudget and returns the mean time of one call.
// The first call is a warm-up and is not counted.
func (p *prober) timeOp(name string, fn func()) time.Duration {
	fn()
	start := time.Now()
	n := 0
	for time.Since(start) < probeBudget {
		fn()
		n++
	}
	elapsed := time.Since(start)
	p.span(name, start, elapsed)
	return elapsed / time.Duration(n)
}

// span records one probe's interval.
func (p *prober) span(name string, start time.Time, elapsed time.Duration) {
	from := int64(start.Sub(p.epoch))
	p.spans.add("probe."+name, from, from+int64(elapsed), 0)
}

func (p *prober) us(name string, fn func()) { p.m[name] = float64(p.timeOp(name, fn)) / 1e3 }
func (p *prober) ns(name string, fn func()) { p.m[name] = float64(p.timeOp(name, fn)) }

// probeTxns is the payload of the synthetic proposal used when the run
// captured none (the simulated workload has no real-crypto proposal).
const probeTxns = 256

// runProbes times the layer functions on one proposal: the fullest block the
// run committed inside its window, or a synthetic bank block of probeTxns
// operations. Vote and certificate are rebuilt over that block under the
// cluster's own scheme (ed25519 with aggregation, n=4).
func runProbes(m map[string]float64, captured *sft.Block, o runOpts) error {
	p := &prober{m: m, spans: &spanLog{}, epoch: time.Now()}
	bankTxns := newBankSource(o.seed, probeTxns).(*bankSource).txns
	payload := sft.Payload{Txns: bankTxns}
	if captured != nil && len(captured.Payload.Txns) > 0 {
		payload = captured.Payload
	}

	ring, err := crypto.NewKeyRing(4, pkiSeed, crypto.SchemeEd25519Agg)
	if err != nil {
		return err
	}
	genesis := types.Genesis()
	block := types.NewBlock(genesis.ID(), types.NewGenesisQC(genesis.ID()), 1, 1, 0, 1, payload, nil)
	proposal := &types.Proposal{Block: block, Round: 1, Sender: 0}
	proposal.Signature = ring.Signer(0).Sign(proposal.SigningPayload())

	// Encoding: what tcpnet puts on the wire today (a gob envelope around
	// the pinned block encoding), and the pinned encoding alone.
	tcpnet.RegisterMessages()
	type envelope struct {
		From types.ReplicaID
		Msg  types.Message
	}
	enc := gob.NewEncoder(io.Discard)
	p.us("types.proposal_gob_encode_us", func() {
		if err := enc.Encode(envelope{From: 0, Msg: proposal}); err != nil {
			panic(err)
		}
	})
	var buf []byte
	p.us("types.proposal_pinned_encode_us", func() { buf = block.AppendEncoding(buf[:0]) })

	if err := p.probeSend(proposal); err != nil {
		return err
	}

	// Votes and certificates.
	vote := types.Vote{Block: block.ID(), Round: block.Round, Height: block.Height, Voter: 1}
	signer := ring.Signer(1)
	p.us("crypto.vote_sign_us", func() { vote.Signature = signer.Sign(vote.SigningPayload()) })
	p.us("crypto.vote_verify_us", func() {
		if err := crypto.VerifyVote(ring, vote); err != nil {
			panic(err)
		}
	})
	qc := &types.QC{Block: block.ID(), Round: block.Round, Height: block.Height}
	for voter := types.ReplicaID(0); voter < 3; voter++ {
		v := types.Vote{Block: block.ID(), Round: block.Round, Height: block.Height, Voter: voter}
		v.Signature = ring.Signer(voter).Sign(v.SigningPayload())
		qc.Votes = append(qc.Votes, v)
	}
	if err := crypto.AggregateQC(ring, qc); err != nil {
		return err
	}
	p.us("crypto.qc_verify_cold_us", func() {
		if err := crypto.VerifyQC(ring, qc, 3); err != nil {
			panic(err)
		}
	})
	cache := crypto.NewQCCache(crypto.DefaultQCCacheSize)
	p.us("crypto.qc_verify_cached_us", func() {
		if err := cache.VerifyQC(ring, qc, 3); err != nil {
			panic(err)
		}
	})

	// Journal: one proposal-sized record appended and fsynced, on the same
	// filesystem the run's WALs used.
	walDir, err := os.MkdirTemp(o.outDir, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return err
	}
	record := block.AppendEncoding(nil)
	p.us("wal.append_flush_us", func() {
		if err := log.Append(wal.RecordType(core.RecBlock), record); err != nil {
			panic(err)
		}
		if err := log.Flush(); err != nil {
			panic(err)
		}
	})
	if err := log.Close(); err != nil {
		return err
	}

	// Bank: a cold replica applying a block of signed operations — account
	// key derivation, signature check, state update and root fold per
	// transaction.
	bankBlock := types.NewBlock(genesis.ID(), types.NewGenesisQC(genesis.ID()), 1, 1, 0, 1, sft.Payload{Txns: bankTxns}, nil)
	apply := p.timeOp("app.bank_apply_us_per_tx", func() {
		bank := sft.NewBank(sft.BankConfig{Seed: bankSeed, Accounts: bankAccounts, InitialBalance: bankInitBalance})
		if _, _, err := bank.Apply(bank.GenesisRoot(), bankBlock); err != nil {
			panic(err)
		}
	})
	m["app.bank_apply_us_per_tx"] = float64(apply) / 1e3 / float64(len(bankTxns))

	pool := mempool.New(0)
	p.us("mempool.batch_us", func() {
		pool.Add(payload.Txns...)
		pool.Batch(len(payload.Txns))
	})

	p.probeCore()
	if err := p.probeSimnets(o); err != nil {
		return err
	}
	return p.spans.write(filepath.Join(o.outDir, o.workload+".probes.spans.json"))
}

// probeSend times tcpnet.Send of the proposal over a loopback pair. Send
// encodes and writes synchronously; the receiver drains in the background.
func (p *prober) probeSend(proposal *types.Proposal) error {
	a, err := tcpnet.Listen(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen(tcpnet.Config{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetPeers(map[types.ReplicaID]string{1: b.Addr().String()})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range b.Recv() {
		}
	}()
	var sendErr error
	p.us("tcpnet.send_us", func() {
		if err := a.Send(1, proposal); err != nil {
			sendErr = err
		}
	})
	b.Close()
	<-drained
	return sendErr
}

// probeCore times the strength tracker and the marker computation at the
// paper's scale: n=100, certificates of 2f+1 = 67 votes, a 256-block chain.
func (p *prober) probeCore() {
	const n, f, warm, timed = 100, 33, 256, 512
	store := blockstore.New()
	parent := store.Genesis()
	blocks := make([]*types.Block, 0, warm+timed)
	qcs := make([]*types.QC, 0, warm+timed)
	for i := 1; i <= warm+timed; i++ {
		b := types.NewBlock(parent.ID(), types.NewGenesisQC(parent.ID()), types.Round(i), types.Height(i), 0, int64(i), types.Payload{}, nil)
		if err := store.Insert(b); err != nil {
			panic(err)
		}
		qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
		for v := 0; v < 2*f+1; v++ {
			qc.Votes = append(qc.Votes, types.Vote{Block: b.ID(), Round: b.Round, Height: b.Height, Voter: types.ReplicaID(v)})
		}
		blocks, qcs, parent = append(blocks, b), append(qcs, qc), b
	}
	tracker := core.NewTracker(store, core.Config{N: n, F: f, Mode: core.ModeRound, Horizon: 2*n + 16})
	for _, qc := range qcs[:warm] {
		tracker.OnQC(qc)
	}
	// Each certificate is new to the tracker exactly once, so this probe is
	// one pass over the timed tail of the chain, not a repeat loop.
	start := time.Now()
	for _, qc := range qcs[warm:] {
		tracker.OnQC(qc)
	}
	elapsed := time.Since(start)
	p.span("core.tracker_onqc_ns", start, elapsed)
	p.m["core.tracker_onqc_ns"] = float64(elapsed) / timed

	history := core.NewVoteHistory(store)
	for _, b := range blocks[:warm-1] {
		history.RecordVote(b)
	}
	target := blocks[warm-1]
	p.ns("core.marker_ns", func() { history.Marker(target) })
}

// probeSimnets times the simulator itself: the cost of one event in a
// fault-free n=100 DiemBFT world, and the event rate of an n=31 Streamlet
// world — the second engine's only number until it gets a workload.
func (p *prober) probeSimnets(o runOpts) error {
	diem, err := simWorld(simN, sft.DiemBFT, o.seed)
	if err != nil {
		return err
	}
	start := time.Now()
	diem.Run(20 * time.Second)
	elapsed := time.Since(start)
	p.span("simnet.event_ns", start, elapsed)
	if diem.Events() == 0 {
		return fmt.Errorf("simnet probe processed no events")
	}
	p.m["simnet.event_ns"] = float64(elapsed) / float64(diem.Events())
	diem.Close()

	stream, err := simWorld(31, sft.Streamlet, o.seed)
	if err != nil {
		return err
	}
	start = time.Now()
	stream.Run(20 * time.Second)
	elapsed = time.Since(start)
	p.span("streamlet.sim31_events_per_s", start, elapsed)
	p.m["streamlet.sim31_events_per_s"] = float64(stream.Events()) / elapsed.Seconds()
	return stream.Close()
}

// simWorld builds a fault-free simulated cluster on the Figure 7a network
// with empty blocks.
func simWorld(n int, engine sft.Engine, seed int64) (*sft.Simnet, error) {
	world, err := sft.NewSimnet(sft.SimnetConfig{
		N:       n,
		Latency: sft.SymmetricLatency(n, 3, simIntra, simDelta, simJitter),
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	ring, err := sft.NewKeyRing(n, pkiSeed, sft.SchemeSim)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id := sft.ReplicaID(i)
		opts := []sft.Option{
			sft.WithEngine(engine),
			sft.WithScheme(sft.SchemeSim),
			sft.WithKeyRing(ring),
			sft.WithTransport(world.Transport(id)),
			sft.WithRoundTimeout(simTimeout),
			sft.WithDelta(simDelta + simJitter),
			sft.WithPruneKeep(512),
		}
		if engine == sft.Streamlet {
			opts = append(opts, sft.WithoutEcho())
		}
		if _, err := sft.New(sft.Config{ID: id, N: n, Seed: pkiSeed}, opts...); err != nil {
			return nil, err
		}
	}
	return world, nil
}
