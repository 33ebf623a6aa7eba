package replica

import (
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/engine/enginetest"
	"repro/internal/types"
)

// memoQC builds a certificate of the first quorum replicas' signed votes for
// a round-1 block.
func memoQC(ring *crypto.KeyRing, quorum int) *types.QC {
	g := types.Genesis()
	b := childOf(g, types.NewGenesisQC(g.ID()), 1)
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
	for v := 0; v < quorum; v++ {
		qc.Votes = append(qc.Votes, signedVote(ring, b, types.ReplicaID(v)))
	}
	return qc
}

// cloneQC returns a different pointer with equal content, sharing nothing.
func cloneQC(qc *types.QC) *types.QC {
	cp := *qc
	cp.Votes = append([]types.Vote(nil), qc.Votes...)
	return &cp
}

// TestIdentityMemo pins what the identity memo may and may not answer, on
// both arms of VerifyQC. Only a pointer this Certs itself took through every
// check is answered from the memo; a pointer enters the memo only through
// verify (a hit answers without storing), so "remembered" below reads "was
// fully checked".
func TestIdentityMemo(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigs := range []bool{false, true} {
		name := map[bool]string{false: "structure", true: "signatures"}[sigs]
		t.Run(name, func(t *testing.T) {
			cv := &enginetest.CountingVerifier{Verifier: ring}
			certs := NewCerts(&Config{N: 4, F: 1, Verifier: cv, VerifySignatures: sigs})
			good := memoQC(ring, 3)
			bad := cloneQC(good)
			bad.Votes[2].Voter = bad.Votes[1].Voter // duplicate voter: structurally bad

			// A bad certificate is rejected on every delivery, before and
			// after a good one with the same header was memoised.
			for i := 0; i < 2; i++ {
				if certs.VerifyQC(bad) == nil {
					t.Fatal("bad certificate accepted before any good one")
				}
			}
			if err := certs.VerifyQC(good); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if certs.VerifyQC(bad) == nil || certs.remembered(bad) {
					t.Fatal("bad certificate accepted or memoised after a good one")
				}
			}

			// The accepted pointer is answered without a signature check or a
			// digest; an equal certificate behind another pointer is not: it
			// takes the whole path (a content-cache hit with signatures on)
			// and only then sits in the memo itself.
			calls := cv.Calls
			var hits, misses int64
			if sigs {
				hits, misses = certs.cache.Stats()
			}
			for i := 0; i < 5; i++ {
				if err := certs.VerifyQC(good); err != nil {
					t.Fatal(err)
				}
			}
			if cv.Calls != calls {
				t.Fatalf("%d signature checks for a memoised pointer", cv.Calls-calls)
			}
			if sigs {
				if h, m := certs.cache.Stats(); h != hits || m != misses {
					t.Fatalf("memoised pointer reached the content cache: hits %d->%d misses %d->%d", hits, h, misses, m)
				}
			}
			twin := cloneQC(good)
			if certs.remembered(twin) {
				t.Fatal("an unseen pointer reads as memoised")
			}
			if err := certs.VerifyQC(twin); err != nil {
				t.Fatal(err)
			}
			if !certs.remembered(twin) {
				t.Fatal("an equal certificate behind a new pointer was not taken through verify")
			}
			if sigs {
				if h, _ := certs.cache.Stats(); h != hits+1 {
					t.Fatalf("content cache hits %d, want %d: the twin's digest was not computed", h, hits+1)
				}
			}

			// nil is what an empty slot holds and must never be answered.
			if certs.remembered(nil) {
				t.Fatal("nil certificate reads as memoised")
			}

			// Two Certs never share a slot: what one accepted, another with a
			// larger quorum still judges for itself.
			strict := NewCerts(&Config{N: 7, F: 2, Verifier: cv, VerifySignatures: sigs})
			if strict.remembered(good) || strict.VerifyQC(good) == nil {
				t.Fatal("a certificate memoised by one Certs was accepted by another")
			}

			// DisableCache turns the identity memo off with the content cache.
			off := NewCerts(&Config{N: 4, F: 1, Verifier: cv, VerifySignatures: sigs})
			off.DisableCache()
			if err := off.VerifyQC(good); err != nil || off.remembered(good) {
				t.Fatalf("DisableCache: err %v, memoised %v", err, off.remembered(good))
			}
		})
	}
}

// TestIdentityMemoAfterSignatures: with signatures on, a pointer is memoised
// only once its signatures verified — a well-formed certificate with one
// forged signature is checked, and refused, on every delivery.
func TestIdentityMemoAfterSignatures(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	cv := &enginetest.CountingVerifier{Verifier: ring}
	certs := NewCerts(&Config{N: 4, F: 1, Verifier: cv, VerifySignatures: true})
	forged := memoQC(ring, 3)
	forged.Votes[1].Signature = append([]byte(nil), forged.Votes[1].Signature...)
	forged.Votes[1].Signature[0] ^= 1
	if err := forged.CheckStructure(3); err != nil {
		t.Fatalf("the forged certificate must be well-formed: %v", err)
	}
	for i := 0; i < 3; i++ {
		before := cv.Calls
		if certs.VerifyQC(forged) == nil {
			t.Fatalf("delivery %d: forged certificate accepted", i)
		}
		if cv.Calls == before {
			t.Fatalf("delivery %d: refused without checking a signature", i)
		}
		if certs.remembered(forged) {
			t.Fatalf("delivery %d: forged certificate memoised", i)
		}
	}
}

// TestIdentityMemoConcurrent hammers one Certs from eight goroutines, as
// transport readers do through Prevalidate: more good pointers than slots, so
// they evict each other, and a bad one that must never be accepted. Run under
// -race.
func TestIdentityMemoConcurrent(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigs := range []bool{false, true} {
		certs := NewCerts(&Config{N: 4, F: 1, Verifier: ring, VerifySignatures: sigs})
		good := make([]*types.QC, 2*memoSlots+1)
		for i := range good {
			good[i] = memoQC(ring, 3)
		}
		bad := cloneQC(good[0])
		bad.Votes = bad.Votes[:2] // below quorum
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					if err := certs.VerifyQC(good[(g+i)%len(good)]); err != nil {
						t.Errorf("good certificate refused: %v", err)
						return
					}
					if certs.VerifyQC(bad) == nil {
						t.Error("bad certificate accepted")
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
