package runtime

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// LocalNetwork connects n in-process nodes through buffered channels — the
// transport used by the quickstart example and the runtime tests.
type LocalNetwork struct {
	inboxes []chan Inbound

	mu     sync.Mutex
	closed bool
}

// NewLocalNetwork creates a network with n endpoints.
func NewLocalNetwork(n int) *LocalNetwork {
	net := &LocalNetwork{inboxes: make([]chan Inbound, n)}
	for i := range net.inboxes {
		net.inboxes[i] = make(chan Inbound, 1024)
	}
	return net
}

// Endpoint returns the transport for replica id.
func (l *LocalNetwork) Endpoint(id types.ReplicaID) Transport {
	return &localTransport{net: l, id: id}
}

// Close shuts down all endpoints.
func (l *LocalNetwork) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, ch := range l.inboxes {
		close(ch)
	}
}

func (l *LocalNetwork) send(from, to types.ReplicaID, msg types.Message) error {
	if int(to) >= len(l.inboxes) {
		return fmt.Errorf("localnet: no endpoint %v", to)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("localnet: closed")
	}
	select {
	case l.inboxes[to] <- Inbound{From: from, Msg: msg}:
		return nil
	default:
		// Receiver overloaded: drop, like a saturated network link. The
		// protocol recovers via timeouts.
		return fmt.Errorf("localnet: inbox %v full", to)
	}
}

type localTransport struct {
	net *LocalNetwork
	id  types.ReplicaID
}

func (t *localTransport) Send(to types.ReplicaID, msg types.Message) error {
	return t.net.send(t.id, to, msg)
}

// Broadcast sends to every other endpoint, reporting the first failure.
func (t *localTransport) Broadcast(msg types.Message) error {
	var first error
	for to := range t.net.inboxes {
		if types.ReplicaID(to) == t.id {
			continue
		}
		if err := t.net.send(t.id, types.ReplicaID(to), msg); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *localTransport) Recv() <-chan Inbound { return t.net.inboxes[t.id] }

func (t *localTransport) Close() error { return nil }
