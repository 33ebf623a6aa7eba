package runtime

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// prevalidatePipeline is the bounded worker-pool stage between a Transport
// and the engine loop: inbound messages are sharded by sender onto workers
// that run the engine's stateless Prevalidate concurrently, drop failures,
// and forward survivors — marked Verified — to the event loop, which then
// applies them without any signature work.
//
// Ordering guarantee: per-sender FIFO. Every sender is pinned to one worker
// (sender ID mod workers) and each worker forwards in arrival order, so the
// relative order of one sender's messages is preserved end to end.
// Cross-sender interleaving is unconstrained, exactly like the network
// itself, so the consensus engines observe nothing new.
//
// Backpressure: worker queues and the output channel are bounded; when the
// engine loop falls behind, the dispatcher blocks on the full queue, which
// in turn parks the transport's receive path — the same flow control a
// single-threaded loop provides, just with a deeper buffer.
type prevalidatePipeline struct {
	eng    engine.Pipelined
	queues []chan Inbound
	out    chan Inbound

	// checked counts messages that went through Prevalidate; drops counts
	// the ones it rejected (bad signatures, malformed certificates).
	checked atomic.Int64
	drops   atomic.Int64

	// obs mirrors the counters (and the queue-depth gauge) into the
	// observability registry; nil-safe.
	obs *obs.Obs
}

const (
	pipelineWorkerQueue = 256
	pipelineOutQueue    = 1024
)

// newPrevalidatePipeline constructs the stage without starting any
// goroutines — Node.Run calls start, so a node that is built but never run
// leaks nothing and leaves its transport untouched.
func newPrevalidatePipeline(eng engine.Pipelined, workers int, o *obs.Obs) *prevalidatePipeline {
	if workers < 1 {
		workers = 1
	}
	p := &prevalidatePipeline{
		eng:    eng,
		obs:    o,
		queues: make([]chan Inbound, workers),
		out:    make(chan Inbound, pipelineOutQueue),
	}
	for i := range p.queues {
		p.queues[i] = make(chan Inbound, pipelineWorkerQueue)
	}
	return p
}

// start launches the stage: one dispatcher goroutine sharding src by sender,
// one prevalidation goroutine per queue, and a closer that shuts the output
// when src closes. stop aborts all of them mid-flight (used when the node's
// Run returns while the transport is still open).
func (p *prevalidatePipeline) start(src <-chan Inbound, stop <-chan struct{}) {
	eng := p.eng
	workers := len(p.queues)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := range p.queues {
		go func(q <-chan Inbound) {
			defer wg.Done()
			for in := range q {
				// Frames a transport already prevalidated (tcpnet reader
				// goroutines with a Prevalidate hook) pass straight through;
				// routing them via the sender's worker keeps per-sender FIFO
				// even when verified and unverified frames mix.
				if !in.Verified {
					p.checked.Add(1)
					if err := eng.Prevalidate(in.From, in.Msg); err != nil {
						p.drops.Add(1)
						p.obs.OnPrevalidate(true)
						p.obs.PrevalidateQueueAdd(-1)
						continue
					}
					p.obs.OnPrevalidate(false)
					in.Verified = true
				}
				p.obs.PrevalidateQueueAdd(-1)
				select {
				case p.out <- in:
				case <-stop:
					return
				}
			}
		}(p.queues[i])
	}

	go func() {
	dispatch:
		// The receive itself selects on stop, so the dispatcher (and with it
		// the workers, whose queues close below) exits when the node stops
		// even if the transport outlives it — no goroutines parked on a
		// still-open src after Run returns.
		for {
			select {
			case in, ok := <-src:
				if !ok {
					break dispatch
				}
				p.obs.PrevalidateQueueAdd(1)
				select {
				case p.queues[int(uint32(in.From))%workers] <- in:
				case <-stop:
					p.obs.PrevalidateQueueAdd(-1)
					break dispatch
				}
			case <-stop:
				break dispatch
			}
		}
		for _, q := range p.queues {
			close(q)
		}
	}()
	go func() {
		wg.Wait()
		close(p.out)
	}()
}

// Drops returns how many inbound messages prevalidation rejected.
func (p *prevalidatePipeline) Drops() int64 { return p.drops.Load() }

// Checked returns how many inbound messages went through Prevalidate.
func (p *prevalidatePipeline) Checked() int64 { return p.checked.Load() }
