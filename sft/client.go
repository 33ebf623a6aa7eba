package sft

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/mempool"
)

// The transaction streaming protocol between sftclient and sftnode: a plain
// TCP connection carrying transactions back to back in their pinned encoding
// (Transaction.Encode: sender, sequence number, length-prefixed data), which
// delimits itself. Both ends live here so the wire format has exactly one
// definition.

// maxTxnData bounds one streamed transaction's data; a client announcing
// more is disconnected before anything is allocated.
const maxTxnData = 1 << 20

// TxnStream is the client side of a transaction stream (cmd/sftclient). It
// is safe for concurrent use.
type TxnStream struct {
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
}

// DialTransactions connects to a node's transaction listener (the address
// its WithTransactionServer / -client-listen is bound to).
func DialTransactions(addr string, timeout time.Duration) (*TxnStream, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &TxnStream{conn: conn}, nil
}

// Submit sends one transaction to the node's pool.
func (s *TxnStream) Submit(txn Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = txn.Encode(s.buf[:0])
	_, err := s.conn.Write(s.buf)
	return err
}

// Close closes the stream.
func (s *TxnStream) Close() error { return s.conn.Close() }

// DefaultMaxTxnConns caps concurrent client streams per TxnServer unless
// ListenTransactionsLimit says otherwise.
const DefaultMaxTxnConns = 1024

// TxnServer accepts transaction streams from clients and pools the
// submitted transactions until the node's payload function drains them
// (cmd/sftnode's -client-listen).
type TxnServer struct {
	ln       net.Listener
	maxConns int

	mu     sync.Mutex
	pool   *mempool.Pool
	conns  map[net.Conn]struct{}
	closed bool
}

// ListenTransactions starts accepting client transaction streams on addr.
// capacity bounds the pool (0 = unbounded); transactions over it are
// dropped, as a saturated mempool would. At most DefaultMaxTxnConns clients
// are served concurrently; use ListenTransactionsLimit to tune that.
func ListenTransactions(addr string, capacity int) (*TxnServer, error) {
	return ListenTransactionsLimit(addr, capacity, DefaultMaxTxnConns)
}

// ListenTransactionsLimit is ListenTransactions with an explicit cap on
// concurrent client connections (0 or negative = DefaultMaxTxnConns).
// Connections over the cap are closed immediately on accept, so a
// connection flood cannot exhaust the node's goroutines or descriptors.
func ListenTransactionsLimit(addr string, capacity, maxConns int) (*TxnServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if maxConns <= 0 {
		maxConns = DefaultMaxTxnConns
	}
	s := &TxnServer{
		ln:       ln,
		maxConns: maxConns,
		pool:     mempool.New(capacity),
		conns:    make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TxnServer) Addr() net.Addr { return s.ln.Addr() }

// Batch removes and returns up to max pooled transactions, oldest first —
// call it from a WithPayload function to build blocks from client load.
func (s *TxnServer) Batch(max int) []Transaction {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Batch(max)
}

// Pending returns the number of pooled transactions.
func (s *TxnServer) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool.Len()
}

// Conns returns the number of live client streams.
func (s *TxnServer) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting clients and severs every live stream; their decode
// goroutines exit and nothing feeds the pool afterwards.
func (s *TxnServer) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	return err
}

// track registers a freshly accepted conn unless the server is closed or at
// its connection cap; false means the caller must drop the conn.
func (s *TxnServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.maxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *TxnServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *TxnServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		go func() {
			defer s.untrack(conn)
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 64<<10) // many transactions per read
			for {
				txn, err := readTransaction(br)
				if err != nil {
					return
				}
				s.mu.Lock()
				closed := s.closed
				if !closed {
					s.pool.Add(txn)
				}
				s.mu.Unlock()
				if closed {
					return
				}
			}
		}()
	}
}

// readTransaction reads one Transaction.Encode off the stream.
func readTransaction(r io.Reader) (Transaction, error) {
	var hdr [4 + 8 + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Transaction{}, err
	}
	txn := Transaction{
		Sender: binary.BigEndian.Uint32(hdr[0:]),
		Seq:    binary.BigEndian.Uint64(hdr[4:]),
	}
	if n := binary.BigEndian.Uint32(hdr[12:]); n > maxTxnData {
		return Transaction{}, fmt.Errorf("sft: transaction data of %d bytes exceeds %d", n, maxTxnData)
	} else if n > 0 {
		txn.Data = make([]byte, n)
		if _, err := io.ReadFull(r, txn.Data); err != nil {
			return Transaction{}, err
		}
	}
	return txn, nil
}
