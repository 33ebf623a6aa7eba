package types_test

import (
	"bytes"
	"testing"

	"repro/internal/intervals"
	"repro/internal/types"
)

// Native fuzz targets for the pinned wire decoders. The encodings are what
// replicas hash, sign, persist in the write-ahead log and serve over state
// sync, so the decoders face attacker-controlled bytes; they must never
// panic, never over-allocate, and must round-trip exactly what the encoders
// produced. CI runs a short `-fuzztime` smoke (make fuzz-smoke); the
// nightly workflow fuzzes longer.

func seedVote() types.Vote {
	var id types.BlockID
	for i := range id {
		id[i] = byte(i * 7)
	}
	return types.Vote{
		Block:     id,
		Round:     42,
		Height:    17,
		Voter:     3,
		Marker:    9,
		Signature: []byte("sig-bytes"),
	}
}

func seedIntervalVote() types.Vote {
	v := seedVote()
	v.Marker = 0
	v.HasIntervals = true
	v.Intervals = intervals.New(intervals.Interval{Lo: 3, Hi: 9}, intervals.Interval{Lo: 20, Hi: 25})
	return v
}

func seedQC() *types.QC {
	v1, v2, v3 := seedVote(), seedVote(), seedIntervalVote()
	v2.Voter, v3.Voter = 4, 5
	return &types.QC{Block: v1.Block, Round: v1.Round, Height: v1.Height, Votes: []types.Vote{v1, v2, v3}}
}

func seedBlock() *types.Block {
	qc := seedQC()
	payload := types.Payload{
		Txns:    []types.Transaction{{Sender: 9, Seq: 11, Data: []byte("txn-data")}},
		Padding: 128,
	}
	log := []types.StrengthRecord{{Block: qc.Block, Height: 16, Round: 41, X: 3}}
	return types.NewBlock(qc.Block, qc, 43, 18, 2, 12345, payload, log)
}

func FuzzDecodeVote(f *testing.F) {
	v1, v2 := seedVote(), seedIntervalVote()
	f.Add(v1.Encode(nil))
	f.Add(v2.Encode(nil))
	f.Add([]byte("vote/"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := types.DecodeVote(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder returned more bytes than it was given")
		}
		// Decode→encode fixpoint: a decoded vote re-encodes to a canonical
		// form that decodes back to itself byte-for-byte. (Raw input may be
		// non-canonical — interval sets normalize on decode — so the first
		// re-encode need not equal the input.)
		e1 := v.Encode(nil)
		v2, tail, err := types.DecodeVote(e1)
		if err != nil || len(tail) != 0 {
			t.Fatalf("canonical re-encoding failed to decode: %v (%d trailing)", err, len(tail))
		}
		if e2 := v2.Encode(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("encode not a fixpoint:\n e1: %x\n e2: %x", e1, e2)
		}
	})
}

func FuzzDecodeQC(f *testing.F) {
	f.Add(seedQC().Encode(nil))
	f.Add(types.NewGenesisQC(types.BlockID{}).Encode(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		qc, rest, err := types.DecodeQC(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder returned more bytes than it was given")
		}
		e1 := qc.Encode(nil)
		qc2, tail, err := types.DecodeQC(e1)
		if err != nil || len(tail) != 0 {
			t.Fatalf("canonical re-encoding failed to decode: %v (%d trailing)", err, len(tail))
		}
		if e2 := qc2.Encode(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("encode not a fixpoint:\n e1: %x\n e2: %x", e1, e2)
		}
	})
}

// FuzzDecodeCompactQC drives DecodeQC with compact-form (aggregated) seeds:
// the sentinel count, signer bitmap, sparse marker override table and
// aggregate signature all face attacker-controlled bytes. Same contract as
// the other decoders — never panic, and decode→encode must reach a fixpoint.
func FuzzDecodeCompactQC(f *testing.F) {
	plain := mkCompactQC(0, 1, 2)
	f.Add(plain.Encode(nil))
	marked := mkCompactQC(1, 5, 64)
	marked.Votes[1].Marker = 9
	marked.Votes[2].HasIntervals = true
	marked.Votes[2].Intervals = intervals.New(intervals.Interval{Lo: 3, Hi: 9})
	f.Add(marked.Encode(nil))
	f.Add(marked.Encode(nil)[:60]) // truncated inside the bitmap
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		qc, rest, err := types.DecodeQC(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder returned more bytes than it was given")
		}
		if qc.Agg != nil {
			// Compact-form invariants: every materialized vote is bitmap-backed
			// and signature-free.
			for i := range qc.Votes {
				if !qc.Agg.Has(qc.Votes[i].Voter) {
					t.Fatalf("materialized voter %v missing from bitmap", qc.Votes[i].Voter)
				}
				if qc.Votes[i].Signature != nil {
					t.Fatal("compact decode materialized a signature")
				}
			}
			if qc.Agg.Count() != len(qc.Votes) {
				t.Fatalf("bitmap count %d != %d votes", qc.Agg.Count(), len(qc.Votes))
			}
		}
		e1 := qc.Encode(nil)
		qc2, tail, err := types.DecodeQC(e1)
		if err != nil || len(tail) != 0 {
			t.Fatalf("canonical re-encoding failed to decode: %v (%d trailing)", err, len(tail))
		}
		if e2 := qc2.Encode(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("encode not a fixpoint:\n e1: %x\n e2: %x", e1, e2)
		}
	})
}

func FuzzDecodeBlock(f *testing.F) {
	f.Add(seedBlock().AppendEncoding(nil))
	f.Add(types.Genesis().AppendEncoding(nil))
	f.Add([]byte("block/"))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, rest, err := types.DecodeBlock(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder returned more bytes than it was given")
		}
		// The encoding is the block's ID preimage: the decode→encode
		// fixpoint pins that a decoded block recomputes one stable ID.
		e1 := blk.AppendEncoding(nil)
		blk2, tail, err := types.DecodeBlock(e1)
		if err != nil || len(tail) != 0 {
			t.Fatalf("canonical re-encoding failed to decode: %v (%d trailing)", err, len(tail))
		}
		if e2 := blk2.AppendEncoding(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("encode not a fixpoint:\n e1: %x\n e2: %x", e1, e2)
		}
		if blk2.ID() != blk.ID() {
			t.Fatal("re-decoded block computes a different ID")
		}
	})
}
