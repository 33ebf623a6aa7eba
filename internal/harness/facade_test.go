package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/sft"
)

// TestHarnessBuildsThroughFacade pins the harness as a scenario library over
// the public facade: no non-test file may reach past sft into the layers it
// composes (engine construction, the simulator, the chassis, durability).
func TestHarnessBuildsThroughFacade(t *testing.T) {
	forbidden := map[string]bool{}
	for _, pkg := range []string{"diembft", "streamlet", "simnet", "replica", "core", "wal"} {
		forbidden["repro/internal/"+pkg] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbidden[path] {
				t.Errorf("%s imports %s; build replicas through sft.New on an sft.Simnet", name, path)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-test files found; the check is vacuous")
	}
}

// TestEveryCommitRuleSetsHorizon: sft.WithCommitRule replaces withDefaults'
// rule whole, and a zero Horizon is an unbounded endorsement walk, so every
// sft.CommitRule the harness or its tests build must name Horizon.
func TestEveryCommitRuleSetsHorizon(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	rules := 0
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "CommitRule" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sft" {
				return true
			}
			rules++
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Horizon" {
						return true
					}
				}
			}
			t.Errorf("%s: sft.CommitRule without Horizon runs an unbounded endorsement walk; set Horizon: horizon(n)", fset.Position(lit.Pos()))
			return true
		})
	}
	if rules == 0 {
		t.Fatal("no sft.CommitRule literal found; the check is vacuous")
	}
}

// TestScenarioOptionsCannotRewire: Run's key ring and observer apply after
// Scenario.Options, so an option cannot detach a node from the run's
// collector, and a WithScheme that contradicts the run's ring fails the run
// rather than changing which signatures the nodes check.
func TestScenarioOptionsCannotRewire(t *testing.T) {
	sc := func(opts ...sft.Option) *Scenario {
		return &Scenario{
			Name: "rewire", N: 4, Seed: 1,
			Latency:  &simnet.UniformModel{Base: 5 * time.Millisecond},
			Duration: 5 * time.Second,
			Options:  opts,
		}
	}
	res, err := Run(sc(sft.WithObserver(func(sft.CommitEvent) {})))
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBlocks == 0 {
		t.Fatal("no commits reached the collector")
	}
	if _, err := Run(sc(sft.WithScheme(sft.SchemeEd25519))); err == nil || !strings.Contains(err.Error(), "contradicts the key ring's scheme") {
		t.Fatalf("a WithScheme contradicting the run's sim ring: err = %v", err)
	}
}

// ping is the one message the GST test sends.
type ping struct{}

func (ping) Type() types.MsgType { return 99 }
func (ping) Size() int           { return 10 }

// pinger broadcasts one ping at start and records when pings arrive.
type pinger struct {
	id      types.ReplicaID
	arrived []time.Duration
}

func (p *pinger) ID() types.ReplicaID { return p.id }
func (p *pinger) Init(time.Duration) []engine.Output {
	return []engine.Output{{Kind: engine.Broadcast, Msg: ping{}}}
}
func (p *pinger) OnTimer(time.Duration, int) []engine.Output       { return nil }
func (p *pinger) Prevalidate(types.ReplicaID, types.Message) error { return nil }
func (p *pinger) OnVerifiedMessage(now time.Duration, from types.ReplicaID, msg types.Message) []engine.Output {
	return p.OnMessage(now, from, msg)
}
func (p *pinger) OnMessage(now time.Duration, _ types.ReplicaID, _ types.Message) []engine.Output {
	p.arrived = append(p.arrived, now)
	return nil
}

// TestPreGSTDelaysEarlySends: a message sent before GST takes the inner
// model's delay plus the pre-GST extra, read from the world's clock.
func TestPreGSTDelaysEarlySends(t *testing.T) {
	lat := &preGST{inner: &simnet.UniformModel{Base: time.Millisecond}, gst: 100 * time.Millisecond, extra: 500 * time.Millisecond}
	sim := simnet.New(simnet.Config{N: 2, Latency: lat, Seed: 1})
	lat.clock = sim
	a, b := &pinger{id: 0}, &pinger{id: 1}
	sim.SetEngine(0, a)
	sim.SetEngine(1, b)
	sim.Run(time.Second)
	for _, p := range []*pinger{a, b} {
		if len(p.arrived) != 1 || p.arrived[0] != 501*time.Millisecond {
			t.Fatalf("replica %d: pre-GST ping arrived at %v, want [501ms]", p.id, p.arrived)
		}
	}
}

// TestPreGSTUnboundNamesItsUse: a PreGST model used anywhere but as
// Scenario.Latency has no clock and says so instead of dereferencing nil.
func TestPreGSTUnboundNamesItsUse(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Scenario.Latency") {
			t.Fatalf("panic %q does not name Scenario.Latency", msg)
		}
	}()
	PreGST(&simnet.UniformModel{Base: time.Millisecond}, time.Second, time.Second).Delay(0, 1, 0, nil)
}

// TestAsymmetricLatency pins Figure 7b's layout: regions A and B 20ms apart,
// region C delta away from both.
func TestAsymmetricLatency(t *testing.T) {
	m := asymmetricLatency([3]int{45, 45, 10}, time.Millisecond, 20*time.Millisecond, 200*time.Millisecond, 0)
	for _, c := range []struct {
		from, to types.ReplicaID
		want     time.Duration
	}{{0, 50, 20 * time.Millisecond}, {0, 95, 200 * time.Millisecond}, {91, 95, time.Millisecond}} {
		if d := m.Delay(c.from, c.to, 0, nil); d != c.want {
			t.Errorf("delay %d->%d = %v, want %v", c.from, c.to, d, c.want)
		}
	}
}
