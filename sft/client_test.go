package sft_test

import (
	"net"
	"testing"
	"time"

	"repro/sft"
)

// TestTxnServerCloseSeversStreams is the PR-10 regression: Close used to
// close only the listener, so accepted connections kept decoding and
// feeding the pool afterwards.
func TestTxnServerCloseSeversStreams(t *testing.T) {
	srv, err := sft.ListenTransactions("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sft.DialTransactions(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	if err := stream.Submit(sft.Transaction{Sender: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Pending() == 1 })

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Conns() == 0 })

	// The severed stream must surface a write error; a live stream over
	// a closed TCP conn errors within a few writes once RSTs propagate.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := stream.Submit(sft.Transaction{Sender: 1, Seq: 2}); err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if time.Now().After(deadline) {
		t.Fatal("stream still writable after server Close")
	}
	if got := srv.Pending(); got != 1 {
		t.Fatalf("pool grew after Close: %d", got)
	}
}

// TestTxnServerMaxConns checks the accept-side connection cap: conns over
// the limit are closed immediately and never feed the pool.
func TestTxnServerMaxConns(t *testing.T) {
	srv, err := sft.ListenTransactionsLimit("127.0.0.1:0", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var keep []*sft.TxnStream
	for i := 0; i < 2; i++ {
		s, err := sft.DialTransactions(srv.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Prove the conn is accepted and live before dialing the next.
		if err := s.Submit(sft.Transaction{Sender: uint32(i), Seq: 1}); err != nil {
			t.Fatal(err)
		}
		keep = append(keep, s)
	}
	waitFor(t, func() bool { return srv.Conns() == 2 && srv.Pending() == 2 })

	// The third conn must be dropped: reads on it hit EOF/RST quickly.
	over, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := over.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap conn was served")
	}
	if got := srv.Conns(); got != 2 {
		t.Fatalf("conns = %d, want 2", got)
	}

	// Capped conns still work.
	if err := keep[0].Submit(sft.Transaction{Sender: 0, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Pending() == 3 })

	// Freeing a slot admits a new client.
	keep[1].Close()
	waitFor(t, func() bool { return srv.Conns() == 1 })
	again, err := sft.DialTransactions(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if err := again.Submit(sft.Transaction{Sender: 9, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Pending() == 4 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
