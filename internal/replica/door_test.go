package replica

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/engine/enginetest"
	"repro/internal/types"
)

// doorQC builds a certificate of the first votes replicas' signed votes for a
// round-1 block.
func doorQC(ring *crypto.KeyRing, votes int) *types.QC {
	g := types.Genesis()
	b := childOf(g, types.NewGenesisQC(g.ID()), 1)
	qc := &types.QC{Block: b.ID(), Round: b.Round, Height: b.Height}
	for v := 0; v < votes; v++ {
		qc.Votes = append(qc.Votes, signedVote(ring, b, types.ReplicaID(v)))
	}
	return qc
}

// rebuild returns a different certificate with equal content, sharing nothing.
func rebuild(qc *types.QC) *types.QC {
	return &types.QC{Block: qc.Block, Round: qc.Round, Height: qc.Height, Votes: slices.Clone(qc.Votes)}
}

// byValue copies qc word for word, its record included, into a new object, as
// `*cp = *qc` would if go vet let it.
func byValue(qc *types.QC) *types.QC {
	cp := new(types.QC)
	reflect.ValueOf(cp).Elem().Set(reflect.ValueOf(qc).Elem())
	return cp
}

// spoil gives qc a duplicate voter in place, which fails the structure check
// at any quorum. The votes are copied first, so no other certificate sharing
// them changes. A delivery after spoil is refused exactly when the certificate
// is read in full; a message is never changed once handed over outside such a
// probe.
func spoil(qc *types.QC) {
	qc.Votes = slices.Clone(qc.Votes)
	qc.Votes[1].Voter = qc.Votes[0].Voter
}

// TestDoorRecord pins what a certificate's record of having passed a door may
// and may not answer, on both arms of VerifyQC. One object is read once
// however often, and by however many replicas, it is delivered; a bad one is
// refused every time; and whatever the record was not written for — another
// object with the same bytes, another quorum or verifier, a signature check
// after a structure-only one, a Certs with DisableCache — is read in full.
func TestDoorRecord(t *testing.T) {
	ring, err := crypto.NewKeyRing(7, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigs := range []bool{false, true} {
		name := map[bool]string{false: "structure", true: "signatures"}[sigs]
		t.Run(name, func(t *testing.T) {
			cv := &enginetest.CountingVerifier{Committee: ring}
			certsFor := func(n int, v crypto.Verifier) *Certs {
				return NewCerts(&Config{N: n, Verifier: v, VerifySignatures: sigs})
			}
			certs := certsFor(4, cv)
			passed := func() *types.QC {
				t.Helper()
				qc := doorQC(ring, 5)
				if err := certs.VerifyQC(qc); err != nil {
					t.Fatal(err)
				}
				return qc
			}
			readsInFull := func(what string, c *Certs, qc *types.QC) {
				t.Helper()
				spoil(qc)
				if c.VerifyQC(qc) == nil {
					t.Errorf("%s: answered from a record", what)
				}
			}

			// A bad certificate is refused on every delivery, before and after
			// a good one with the same header passed.
			good := doorQC(ring, 3)
			bad := rebuild(good)
			bad.Votes[2].Voter = bad.Votes[1].Voter
			for i := 0; i < 2; i++ {
				if certs.VerifyQC(bad) == nil {
					t.Fatal("bad certificate accepted before any good one")
				}
			}
			if err := certs.VerifyQC(good); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if certs.VerifyQC(bad) == nil {
					t.Fatal("bad certificate accepted after a good one")
				}
			}

			// The object that passed is examined once, however often and by
			// however many replicas it is delivered: no signature check, no
			// digest, and not even its votes are read again.
			calls := cv.Calls
			var hits, misses int64
			if sigs {
				hits, misses = certs.cache.Stats()
			}
			peers := []*Certs{certs, certsFor(4, cv), certsFor(4, cv)}
			for i := 0; i < 5; i++ {
				if err := peers[i%len(peers)].VerifyQC(good); err != nil {
					t.Fatal(err)
				}
			}
			if cv.Calls != calls {
				t.Fatalf("%d signature checks for a certificate that passed", cv.Calls-calls)
			}
			if sigs {
				if h, m := certs.cache.Stats(); h != hits || m != misses {
					t.Fatalf("a certificate that passed reached the content cache: hits %d->%d misses %d->%d", hits, h, misses, m)
				}
			}
			spoil(good)
			if err := peers[1].VerifyQC(good); err != nil {
				t.Fatalf("a certificate that passed was read again: %v", err)
			}

			readsInFull("by-value copy", certs, byValue(passed()))
			readsInFull("rebuilt with equal content", certs, rebuild(passed()))
			readsInFull("another quorum", certsFor(7, cv), passed())
			if sigs {
				other := &enginetest.CountingVerifier{Committee: ring}
				readsInFull("another verifier", certsFor(4, other), passed())
			}
			off := certsFor(4, cv)
			off.DisableCache()
			readsInFull("DisableCache", off, passed())

			// A Certs with DisableCache leaves no record either.
			fresh := doorQC(ring, 3)
			if err := off.VerifyQC(fresh); err != nil {
				t.Fatal(err)
			}
			readsInFull("checked only with DisableCache", certs, fresh)
		})
	}

	// A structure-only record does not answer a signature check.
	structure := NewCerts(&Config{N: 4, Verifier: ring})
	signatures := NewCerts(&Config{N: 4, Verifier: ring, VerifySignatures: true})
	qc := doorQC(ring, 3)
	if err := structure.VerifyQC(qc); err != nil {
		t.Fatal(err)
	}
	spoil(qc)
	if signatures.VerifyQC(qc) == nil {
		t.Error("a structure-only record answered a signature check")
	}
}

// TestDoorRecordAfterSignatures: with signatures on, a certificate is
// recorded only once its signatures verified — a well-formed certificate with
// one forged signature is checked, and refused, on every delivery.
func TestDoorRecordAfterSignatures(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	cv := &enginetest.CountingVerifier{Committee: ring}
	certs := NewCerts(&Config{N: 4, Verifier: cv, VerifySignatures: true})
	forged := doorQC(ring, 3)
	forged.Votes[1].Signature = slices.Clone(forged.Votes[1].Signature)
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
	}
}

// TestGobDecodeClearsDoorRecord: decoding new content into a certificate
// that already passed a door drops its record, so the new content is read in
// full and a bad one refused.
func TestGobDecodeClearsDoorRecord(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	certs := NewCerts(&Config{N: 4, Verifier: ring})
	qc := doorQC(ring, 3)
	if err := certs.VerifyQC(qc); err != nil {
		t.Fatal(err)
	}
	short := rebuild(qc)
	short.Votes = short.Votes[:2] // below quorum
	enc, err := short.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if err := qc.GobDecode(enc); err != nil {
		t.Fatal(err)
	}
	if certs.VerifyQC(qc) == nil {
		t.Fatal("a record written for the old content vouched for the decoded one")
	}
}

// TestDoorRecordConcurrent has eight goroutines share four replicas' Certs
// and check the same certificates at once: two goroutines per Certs, as
// transport readers share one through Prevalidate, and four Certs per object,
// as simulated replicas share a certificate. Every good one is accepted,
// whichever goroutine writes its record first; a rebuilt copy of a good one,
// which no record vouches for, is read in full through the shared cache; the
// bad ones (below quorum; with signatures, also a forged vote) never are.
// Run under -race.
func TestDoorRecordConcurrent(t *testing.T) {
	ring, err := crypto.NewKeyRing(4, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigs := range []bool{false, true} {
		all := make([]*Certs, 4)
		for i := range all {
			all[i] = NewCerts(&Config{N: 4, Verifier: ring, VerifySignatures: sigs})
		}
		good := make([]*types.QC, 5)
		for i := range good {
			good[i] = doorQC(ring, 3)
		}
		short := rebuild(good[0])
		short.Votes = short.Votes[:2] // below quorum
		bad := []*types.QC{short}
		if sigs {
			forged := rebuild(good[1])
			forged.Votes[1].Signature = slices.Clone(forged.Votes[1].Signature)
			forged.Votes[1].Signature[0] ^= 1
			bad = append(bad, forged)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			certs := all[g%len(all)]
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					qc := good[(g+i)%len(good)]
					if err := certs.VerifyQC(qc); err != nil {
						t.Errorf("good certificate refused: %v", err)
						return
					}
					if i%50 == 0 {
						if err := certs.VerifyQC(rebuild(qc)); err != nil {
							t.Errorf("rebuilt good certificate refused: %v", err)
							return
						}
					}
					if certs.VerifyQC(bad[i%len(bad)]) == nil {
						t.Error("bad certificate accepted")
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestAllocsDoorRecord: once one replica's door passed a certificate, the
// other 99 replicas of an n=100 process take it without allocating.
func TestAllocsDoorRecord(t *testing.T) {
	ring, err := crypto.NewKeyRing(100, 3, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigs := range []bool{false, true} {
		replicas := make([]*Certs, 100)
		for i := range replicas {
			replicas[i] = NewCerts(&Config{N: 100, Verifier: ring, VerifySignatures: sigs})
		}
		qc := doorQC(ring, 67)
		if err := replicas[0].VerifyQC(qc); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			for _, c := range replicas[1:] {
				if c.VerifyQC(qc) != nil {
					t.Fatal("certificate refused")
				}
			}
		}); a != 0 {
			t.Errorf("signatures %v: %.1f allocations for 99 replicas' checks, want 0", sigs, a)
		}
	}
}
