package tcpnet

import (
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/types"
)

const (
	// queueFrames and queueBytes bound one recipient's outbound queue. The
	// frame bound covers bursts of small messages (a timeout storm at n=100
	// is ~100 frames); the byte bound keeps a dead peer from pinning a
	// thousand 100 KB proposals. A single frame is always admitted.
	queueFrames = 1024
	queueBytes  = 32 << 20

	// writeBatch is how many queued frames one vectored write carries.
	writeBatch = 64
)

// outQueue is the bounded FIFO of frames awaiting one recipient — a voting
// peer, an attached observer, or an observer's upstream. Send and Broadcast
// push and return; one writer goroutine drains. Frames stay queued until a
// write has handed them to the kernel, so whatever a dial failure or a
// broken connection left unsent goes out, in order, on the next connection.
// On overflow the oldest frame goes first: in consensus the newest message
// supersedes the rest.
type outQueue struct {
	peer types.ReplicaID
	obs  *obs.Obs // nil-safe sink for per-peer frame, byte and drop counts

	mu     sync.Mutex
	frames [][]byte
	head   uint64 // sequence number of frames[0]; counts frames ever removed
	size   int    // bytes queued

	// wake holds one token while a push has not been seen by the writer.
	wake chan struct{}
}

func newOutQueue(peer types.ReplicaID, o *obs.Obs) *outQueue {
	return &outQueue{peer: peer, obs: o, wake: make(chan struct{}, 1)}
}

// push appends frame without blocking and returns how many old frames
// overflowed out (also reported to obs).
func (q *outQueue) push(frame []byte) (dropped int) {
	q.mu.Lock()
	q.frames = append(q.frames, frame)
	q.size += len(frame)
	for n, size := len(q.frames), q.size; n-dropped > 1 && (n-dropped > queueFrames || size > queueBytes); dropped++ {
		size -= len(q.frames[dropped])
	}
	if dropped > 0 {
		q.removeLocked(dropped)
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	if dropped > 0 {
		q.obs.OnSendDropped(q.peer, dropped)
	}
	return dropped
}

// removeLocked drops the k oldest frames, sliding the rest down so the
// backing array is reused.
func (q *outQueue) removeLocked(k int) {
	for _, f := range q.frames[:k] {
		q.size -= len(f)
	}
	rest := copy(q.frames, q.frames[k:])
	clear(q.frames[rest:])
	q.frames = q.frames[:rest]
	q.head += uint64(k)
}

// wait blocks until the queue holds a frame. It returns false once stop is
// closed, queued frames or not.
func (q *outQueue) wait(stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		q.mu.Lock()
		ready := len(q.frames) > 0
		q.mu.Unlock()
		if ready {
			return true
		}
		select {
		case <-q.wake:
		case <-stop:
			return false
		}
	}
}

// peek copies the oldest frames (up to cap(dst)) into dst without removing
// them, and returns the sequence number of the first.
func (q *outQueue) peek(dst [][]byte) ([][]byte, uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append(dst[:0], q.frames[:min(len(q.frames), cap(dst))]...), q.head
}

// ack removes every frame with a sequence number below upTo. Frames that
// overflowed out since the peek are already gone.
func (q *outQueue) ack(upTo uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if upTo > q.head {
		q.removeLocked(int(min(upTo-q.head, uint64(len(q.frames)))))
	}
}

// writeLoop drains q onto conn until a write fails or stop closes, coalescing
// whatever is queued into one vectored write. Only frames the kernel accepted
// whole are acknowledged and counted; the rest stay queued for the caller's
// next connection.
func writeLoop(q *outQueue, conn net.Conn, stop <-chan struct{}) {
	batch := make([][]byte, 0, writeBatch)
	iov := make(net.Buffers, 0, writeBatch)
	for q.wait(stop) {
		var seq uint64
		batch, seq = q.peek(batch)
		bufs := append(iov, batch...)
		_, err := bufs.WriteTo(conn) // consumes bufs: what remains was not fully written
		written := len(batch) - len(bufs)
		q.ack(seq + uint64(written))
		for _, f := range batch[:written] {
			q.obs.OnFrameOut(q.peer, int64(len(f)))
		}
		clear(batch) // an idle writer must not pin the frames it last sent
		clear(iov[:writeBatch])
		if err != nil {
			return
		}
	}
}
