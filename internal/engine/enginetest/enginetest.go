// Package enginetest is the test support every engine's rejection table and
// FuzzOnMessage target share: the two doors a message can arrive through,
// the check that they are the same door, and the lifetime of what comes out.
package enginetest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/types"
)

// deliver hands msg to e at time 0 through one of its two doors: OnMessage,
// or (split) what a transport does — Prevalidate, then OnVerifiedMessage only
// if it passed. err is Prevalidate's verdict; it is always nil for OnMessage.
func deliver(e engine.Engine, split bool, from types.ReplicaID, msg types.Message) (outs []engine.Output, err error) {
	if !split {
		return e.OnMessage(0, from, msg), nil
	}
	if err = e.Prevalidate(from, msg); err != nil {
		return nil, err
	}
	return e.OnVerifiedMessage(0, from, msg), nil
}

// encode renders outputs as comparable bytes: transmissions in their wire
// encoding, everything else by value.
func encode(t testing.TB, outs []engine.Output) []byte {
	t.Helper()
	var b []byte
	wire := func(m types.Message) {
		var err error
		if b, err = types.AppendMessage(b, m); err != nil {
			t.Fatalf("engine emitted an unencodable %T: %v", m, err)
		}
	}
	for _, out := range outs {
		switch out.Kind {
		case engine.Send, engine.Broadcast:
			b = fmt.Appendf(b, "%d to %d self %v ", out.Kind, out.To, out.SelfDeliver)
			wire(out.Msg)
		default: // timers by value; commits and strength rises print their block
			b = fmt.Appendf(b, "%+v ", out)
		}
	}
	return b
}

// CheckRejected is one cell of a rejection table: msg, delivered to e through
// one door, must yield no outputs, leave fingerprint unchanged, and move the
// by-reason rejection counters of sink by exactly one count of reason ("" for
// a class no counter family covers; a nil sink skips the counters).
func CheckRejected(t *testing.T, e engine.Engine, split bool, from types.ReplicaID, msg types.Message, fingerprint func(engine.Engine) string, sink *obs.Obs, reason string) {
	t.Helper()
	before, want := fingerprint(e), rejections(t, sink)
	if outs, _ := deliver(e, split, from, msg); len(outs) != 0 {
		t.Errorf("produced %d outputs", len(outs))
	}
	if after := fingerprint(e); after != before {
		t.Errorf("state moved: %s -> %s", before, after)
	}
	if reason != "" {
		want[reason]++
	}
	if got := rejections(t, sink); sink != nil && fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rejection counters %v, want %v", got, want)
	}
}

// CheckDoors is the FuzzOnMessage body. data decodes (twice, so the engines
// share no pointers) into one message; a receives it through OnMessage, b —
// an identically built engine — through Prevalidate and OnVerifiedMessage.
// Nothing may panic; a message Prevalidate rejects yields no outputs and
// leaves fingerprint unchanged; one it accepts yields the same encoded
// outputs and the same fingerprint through both doors.
func CheckDoors(t *testing.T, a, b engine.Engine, from types.ReplicaID, data []byte, fingerprint func(engine.Engine) string) {
	t.Helper()
	msgA, err := types.DecodeMessage(data)
	if err != nil {
		return
	}
	msgB, _ := types.DecodeMessage(data)
	before := fingerprint(b)
	outsA, _ := deliver(a, false, from, msgA)
	outsB, verdict := deliver(b, true, from, msgB)
	if verdict != nil {
		if len(outsA) != 0 {
			t.Fatalf("%T rejected by Prevalidate (%v) produced %d outputs through OnMessage", msgA, verdict, len(outsA))
		}
		if after := fingerprint(a); after != before {
			t.Fatalf("%T rejected by Prevalidate (%v) changed state through OnMessage: %s -> %s", msgA, verdict, before, after)
		}
		return
	}
	if ea, eb := encode(t, outsA), encode(t, outsB); !bytes.Equal(ea, eb) {
		t.Fatalf("%T: outputs differ between doors:\n OnMessage: %q\n split:     %q", msgA, ea, eb)
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Fatalf("%T: state differs between doors: OnMessage %s, split %s", msgA, fa, fb)
	}
}

// CheckOutputLifetime is the conformance case for the output-slice contract
// of engine.Engine: a result is valid until the next event on that engine,
// and a caller that wants it longer copies it. a and b are identically built
// engines; first and second each drive one event that must produce outputs.
// On a the caller holds the first result across the second event, the way a
// careless transport would. The case fails if the held result changed while
// it was still valid (Prevalidate runs beside the consumer and is not an
// event), if the copy taken in time reads differently after the second event
// (the engine may reuse the slice, never what the outputs point to), or if
// the second result depends on what the caller did with the first (b's caller
// dropped it). The held slice itself is read after the second event for one
// thing only: an engine that reused its array must have zeroed what the
// shorter second result left behind it, or every message of a large event
// stays reachable for as long as the engine lives.
func CheckOutputLifetime(t *testing.T, a, b engine.Engine, first, second func(engine.Engine) []engine.Output, probe types.Message) {
	t.Helper()
	held := first(a)
	if len(held) == 0 {
		t.Fatal("first event produced no outputs; the case would be vacuous")
	}
	kept := slices.Clone(held)
	want := encode(t, kept)
	_ = a.Prevalidate(a.ID(), probe) // any verdict will do
	if got := encode(t, held); !bytes.Equal(got, want) {
		t.Fatalf("Prevalidate changed a result still in its caller's hands:\n before: %q\n after:  %q", want, got)
	}
	next := second(a)
	if len(next) == 0 {
		t.Fatal("second event produced no outputs; the case would be vacuous")
	}
	after := encode(t, next)
	if &next[0] == &held[0] {
		for i := len(next); i < len(held); i++ {
			if held[i] != (engine.Output{}) {
				t.Fatalf("the reused array still holds output %d of the first event: %+v", i, held[i])
			}
		}
	}
	if got := encode(t, kept); !bytes.Equal(got, want) {
		t.Fatalf("a copy taken before the next event changed with it:\n before: %q\n after:  %q", want, got)
	}
	if got := encode(t, first(b)); !bytes.Equal(got, want) {
		t.Fatalf("twin engines disagree on the first event:\n a: %q\n b: %q", want, got)
	}
	if got := encode(t, second(b)); !bytes.Equal(got, after) {
		t.Fatalf("the second result depends on what became of the first:\n held:    %q\n dropped: %q", after, got)
	}
}

// AddSeeds seeds a FuzzOnMessage target whose input is one selector byte
// followed by a wire message: the committed FuzzDecodeMessage corpus of
// internal/types plus the given valid messages, each under selectors 0 to 3.
func AddSeeds(f *testing.F, valid ...types.Message) {
	f.Helper()
	var seeds [][]byte
	files, err := filepath.Glob("../types/testdata/fuzz/FuzzDecodeMessage/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("FuzzDecodeMessage corpus not found: %v", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// The go-fuzz corpus format: a version line, then []byte("...").
		_, quoted, _ := strings.Cut(string(raw), "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(quoted), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, []byte(s))
	}
	for _, m := range valid {
		enc, err := types.AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	for _, s := range seeds {
		for selector := byte(0); selector < 4; selector++ {
			f.Add(append([]byte{selector}, s...))
		}
	}
}

// rejections snapshots the by-reason rejection counters of o (nil: none): one
// entry per non-zero child of the rejected-timeout family, keyed
// "timeout:<reason>".
func rejections(t testing.TB, o *obs.Obs) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	if o == nil {
		return out
	}
	var buf bytes.Buffer
	if err := o.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `sft_pacemaker_rejected_timeouts_total{reason="`)
		if !ok {
			continue
		}
		reason, value, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		if n != 0 {
			out["timeout:"+reason] = n
		}
	}
	return out
}

// CountingVerifier counts the signature checks an engine asks for.
type CountingVerifier struct {
	crypto.Committee
	Calls int
}

// Verify implements crypto.Verifier.
func (c *CountingVerifier) Verify(id types.ReplicaID, msg, sig []byte) bool {
	c.Calls++
	return c.Committee.Verify(id, msg, sig)
}
