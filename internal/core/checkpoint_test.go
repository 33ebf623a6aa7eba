package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diembft"
	"repro/internal/engine"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The checkpoint tests run an n=4 DiemBFT cluster on the simulator with
// replica 0 journaled, and compare what a restart rebuilds from the journal
// with the replica the crash froze.

const victim = types.ReplicaID(0)

type clusterOpts struct {
	keep     types.Height
	segBytes int  // 0: the log's default, what core.OpenJournal uses
	bank     bool // execute a bank under transfer traffic
	txnBytes int  // else: this many payload bytes per block
	seed     int64
}

type cluster struct {
	t    testing.TB
	o    clusterOpts
	sim  *simnet.Sim
	reps []*diembft.Replica
	ring *crypto.KeyRing
	dir  string
	bank app.BankConfig
	gen  *workload.Bank
	pay  types.Payload
}

func newCluster(t testing.TB, o clusterOpts) *cluster {
	t.Helper()
	ring, err := crypto.NewKeyRing(4, 17, crypto.SchemeSim)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{t: t, o: o, ring: ring, dir: t.TempDir()}
	if o.bank {
		c.bank = app.BankConfig{Seed: o.seed, Accounts: 1 << 10, InitialBalance: 1 << 20, DisableSigVerify: true}
		c.gen = workload.NewBank(o.seed, c.bank, 16)
	} else if o.txnBytes > 0 {
		c.pay = types.Payload{Txns: []types.Transaction{{Sender: 1, Seq: 1, Data: make([]byte, o.txnBytes)}}}
	}
	c.sim = simnet.New(simnet.Config{N: 4, Seed: o.seed, Latency: &simnet.UniformModel{Base: time.Millisecond, Jitter: 200 * time.Microsecond}})
	c.reps = make([]*diembft.Replica, 4)
	for i := range c.reps {
		id := types.ReplicaID(i)
		var j *core.Journal
		if id == victim {
			j, _ = c.open(c.dir)
		}
		c.reps[i] = c.replica(id, j)
		c.sim.SetEngine(id, c.reps[i])
	}
	return c
}

// open opens the journal in dir and replays it.
func (c *cluster) open(dir string) (*core.Journal, *core.Recovery) {
	c.t.Helper()
	if c.o.segBytes == 0 {
		j, rec, err := core.OpenJournal(dir, false, nil)
		if err != nil {
			c.t.Fatal(err)
		}
		return j, rec
	}
	l, err := wal.Open(dir, wal.Options{NoSync: true, SegmentBytes: c.o.segBytes})
	if err != nil {
		c.t.Fatal(err)
	}
	j := core.NewJournal(l)
	rec, err := j.Recover()
	if err != nil {
		c.t.Fatal(err)
	}
	return j, rec
}

func (c *cluster) replica(id types.ReplicaID, j *core.Journal) *diembft.Replica {
	c.t.Helper()
	cfg := diembft.Config{
		Config: replica.Config{
			ID: id, N: 4, F: 1, Signer: c.ring.Signer(id), Verifier: c.ring,
			VerifySignatures: true, Journal: j,
		},
		RoundTimeout: 200 * time.Millisecond,
		PruneKeep:    c.o.keep,
	}
	if c.gen != nil {
		cfg.PayloadNow = c.gen.Payload
		cfg.App = app.NewExecutor(app.NewBank(c.bank))
	} else {
		cfg.Payload = func(types.Round) types.Payload { return c.pay }
	}
	rep, err := diembft.New(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	return rep
}

// restart rebuilds the victim from the journal in dir, as a restart would.
func (c *cluster) restart(dir string) (*diembft.Replica, *core.Recovery) {
	c.t.Helper()
	j, rec := c.open(dir)
	rep := c.replica(victim, j)
	if err := rep.Restore(rec); err != nil {
		c.t.Fatalf("restore from %s: %v", filepath.Base(dir), err)
	}
	return rep, rec
}

// runTo runs the simulation until the victim committed height h.
func (c *cluster) runTo(h types.Height) {
	c.t.Helper()
	for c.reps[victim].CommittedHeight() < h {
		if c.sim.Now() > time.Duration(h)*20*time.Millisecond {
			c.t.Fatalf("victim stuck at height %d of %d", c.reps[victim].CommittedHeight(), h)
		}
		c.sim.Run(c.sim.Now() + 100*time.Millisecond)
	}
}

// state is what a restart must rebuild: the store (blocks, certificates,
// pruned floor, high QC), the tracker's strengths, the vote history, lock,
// voted round, commit and, with an app, the executor's committed root and
// the roots it keeps for the stored blocks.
type state struct {
	Pruned    types.Height
	Blocks    map[types.BlockID]string
	HighQC    string
	Voted     []core.VotedBlock
	Lock      types.Round
	VoteRound types.Round
	Committed types.BlockID
	Height    types.Height
	Root      [32]byte
}

func capture(r *diembft.Replica) state {
	s := state{
		Pruned: r.Store().PrunedHeight(), Blocks: map[types.BlockID]string{},
		HighQC: qcString(r.HighQC()), Voted: r.History().Voted(),
		Lock: r.LockedRound(), VoteRound: r.VotedRound(),
		Committed: r.LastCommitted(), Height: r.CommittedHeight(),
	}
	exec := r.AppExecutor()
	for _, b := range r.Store().Snapshot() {
		n := r.Store().Node(b.ID())
		desc := fmt.Sprintf("parent=%v qc=%s", n.Parent() != nil, qcString(n.QC()))
		if tr := r.Tracker(); tr != nil {
			desc += fmt.Sprintf(" strength=%d endorsers=%d", tr.Strength(b.ID()), tr.Endorsers(b.ID()))
		}
		if exec != nil {
			root, ok := exec.Root(b.ID())
			desc += fmt.Sprintf(" root=%x/%v", root[:4], ok)
		}
		s.Blocks[b.ID()] = desc
	}
	if exec != nil {
		s.Root = exec.CommittedRoot()
	}
	return s
}

func qcString(qc *types.QC) string {
	if qc == nil {
		return "nil"
	}
	return fmt.Sprintf("%v/r%d/h%d/%d", qc.Block, qc.Round, qc.Height, len(qc.Votes))
}

func diff(t *testing.T, what string, got, want state) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.Pruned != want.Pruned || len(got.Blocks) != len(want.Blocks) {
		t.Errorf("%s: store of %d blocks from h%d, want %d from h%d", what, len(got.Blocks), got.Pruned, len(want.Blocks), want.Pruned)
	}
	for id, d := range want.Blocks {
		if got.Blocks[id] != d {
			t.Errorf("%s: block %v is %q, want %q", what, id, got.Blocks[id], d)
			break
		}
	}
	got.Blocks, want.Blocks = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: restored %+v\nwant %+v", what, got, want)
	}
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func dirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestCheckpointRestartMatchesPrunedReplay: a replica whose journal has
// checkpointed and dropped segments restarts into the state it held when it
// crashed — store, certificates, strengths, vote history, lock, commit and,
// with the bank, the executor's roots — from the kept window alone.
func TestCheckpointRestartMatchesPrunedReplay(t *testing.T) {
	for _, bank := range []bool{false, true} {
		t.Run(fmt.Sprintf("bank=%v", bank), func(t *testing.T) {
			c := newCluster(t, clusterOpts{keep: 64, segBytes: 16 << 10, bank: bank, txnBytes: 256, seed: 3})
			c.runTo(400)
			crashAt := c.sim.Now()
			c.sim.CrashAt(victim, crashAt)
			c.sim.Run(crashAt + time.Second)
			want := capture(c.reps[victim])

			got, rec := c.restart(c.dir)
			if rec.Floor == 0 {
				t.Fatal("the journal never checkpointed; the test is vacuous")
			}
			if listSegments(t, c.dir)[0] == 0 {
				t.Fatal("the journal deleted no segment")
			}
			if window := rec.CommittedHeight - rec.Floor; len(rec.Blocks) > int(window)+64 {
				t.Fatalf("replayed %d blocks for a window of %d heights", len(rec.Blocks), window)
			}
			diff(t, "restart", capture(got), want)

			// The restarted replica rejoins and keeps pace, on the same roots.
			c.sim.RestartAt(victim, c.sim.Now(), func() engine.Engine { return got })
			h := c.reps[1].CommittedHeight()
			c.sim.Run(c.sim.Now() + 2*time.Second)
			if got.CommittedHeight() <= h {
				t.Fatalf("restarted replica stuck at %d, peers passed %d", got.CommittedHeight(), h)
			}
			if bank {
				peer, _ := c.reps[1].AppExecutor().Root(got.LastCommitted())
				if own := got.AppExecutor().CommittedRoot(); own != peer {
					t.Fatalf("restarted replica committed root %x, its peer holds %x", own[:8], peer[:8])
				}
			}
		})
	}
}

// listSegments returns the indices of the WAL segments in dir, ascending.
func listSegments(t testing.TB, dir string) []int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.log", &idx); err == nil {
			segs = append(segs, idx)
		}
	}
	slices.Sort(segs)
	return segs
}

// TestCheckpointCrashPoints crashes a checkpoint at each of its steps — after
// the rotation, after the checkpoint's append, after its fsync and after each
// segment deletion — by copying the log as each step leaves it on disk. Every
// copy restarts into the store, vote history, lock and commit the replica
// held at that moment and, with the bank, into the AppHash its peers hold.
func TestCheckpointCrashPoints(t *testing.T) {
	c := newCluster(t, clusterOpts{keep: 64, segBytes: 16 << 10, bank: true, seed: 9})
	type point struct {
		name string
		dir  string
		want state
		peer [32]byte
	}
	var points []point
	checkpoints := 0
	defer core.OnCheckpointStep(func(step string) {
		if step == "rotate" {
			checkpoints++
		}
		if checkpoints > 2 {
			return
		}
		p := point{name: fmt.Sprintf("checkpoint %d, point %d, after %s", checkpoints, len(points), step), dir: filepath.Join(t.TempDir(), "crash")}
		copyDir(t, c.dir, p.dir)
		p.want = capture(c.reps[victim])
		p.peer, _ = c.reps[1].AppExecutor().Root(c.reps[victim].LastCommitted())
		points = append(points, p)
	})()
	c.runTo(900)
	removes := 0
	for _, p := range points {
		if strings.Contains(p.name, "remove") {
			removes++
		}
	}
	if checkpoints < 3 || removes < 2 {
		t.Fatalf("captured %d crash points over %d checkpoints, want two checkpoints with deletions", len(points), checkpoints)
	}
	for _, p := range points {
		got, _ := c.restart(p.dir)
		diff(t, p.name, capture(got), p.want)
		if own := got.AppExecutor().CommittedRoot(); own != p.peer {
			t.Errorf("%s: restarted at root %x, peers hold %x", p.name, own[:8], p.peer[:8])
		}
	}
}

// TestJournalFlat is the bound the checkpoints exist for: at keep 512 a
// replica that journaled 20,000 heights holds as many WAL bytes as one that
// journaled 2,000, and restarts in the same time and allocations, replaying
// at most the kept window plus one segment of block records.
func TestJournalFlat(t *testing.T) {
	const keep = 512
	const txnBytes = 4 << 10
	c := newCluster(t, clusterOpts{keep: keep, txnBytes: txnBytes, seed: 5})
	type sample struct {
		dir    string // a copy of the log at the height
		bytes  int64
		cpu    time.Duration // of the last restart
		allocs uint64
		blocks int
	}
	// Bytes on disk saw-tooth as segments fill and checkpoints drop them:
	// each sample takes the peak over the 500 heights before it.
	at := func(h types.Height) *sample {
		c.runTo(h - 500)
		s := &sample{dir: filepath.Join(t.TempDir(), "log")}
		for c.reps[victim].CommittedHeight() < h {
			c.sim.Run(c.sim.Now() + 20*time.Millisecond)
			s.bytes = max(s.bytes, dirBytes(t, c.dir))
		}
		copyDir(t, c.dir, s.dir)
		return s
	}
	early := at(2000)
	late := at(20000)
	// Restart cost: 21 pairs of restarts, each from a fresh copy of the log
	// (a restart may checkpoint), the two logs alternating so that the host's
	// drift falls on both. Time is the process's CPU time with the collector
	// paused, so that neither what other tenants of a shared host take nor
	// where a collection happens to fall counts, and is compared as the
	// median ratio within a pair.
	var ratios []float64
	for i := 0; i < 21; i++ {
		pair := []*sample{early, late}
		if i%2 == 1 {
			pair[0], pair[1] = late, early // neither log always goes first
		}
		for _, s := range pair {
			dir := filepath.Join(t.TempDir(), "restart")
			copyDir(t, s.dir, dir)
			var before, after runtime.MemStats
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)
			start := cpuTime(t)
			_, rec := c.restart(dir)
			s.cpu = cpuTime(t) - start
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			s.allocs, s.blocks = after.Mallocs-before.Mallocs, len(rec.Blocks)
		}
		ratios = append(ratios, float64(late.cpu)/float64(early.cpu))
	}
	slices.Sort(ratios)
	t.Logf("2,000 heights: %d B on disk, restart %d allocs, %d blocks replayed", early.bytes, early.allocs, early.blocks)
	t.Logf("20,000 heights: %d B on disk, restart %d allocs, %d blocks replayed; restart CPU time %.3fx (median of %d pairs)", late.bytes, late.allocs, late.blocks, ratios[len(ratios)/2], len(ratios))
	within := func(what string, a, b float64) {
		if b > 1.1*a || a > 1.1*b {
			t.Errorf("%s: %.0f at 2,000 heights, %.0f at 20,000; want within 10%%", what, a, b)
		}
	}
	within("WAL bytes on disk", float64(early.bytes), float64(late.bytes))
	within("restart allocations", float64(early.allocs), float64(late.allocs))
	within("restart CPU time, median of paired ratios", 1, ratios[len(ratios)/2])
	// One segment holds at most this many of these blocks.
	perSegment := (256 << 10) / txnBytes
	for _, s := range []*sample{early, late} {
		if s.blocks > keep+perSegment {
			t.Errorf("a restart replayed %d blocks; keep %d plus one segment is %d", s.blocks, keep, keep+perSegment)
		}
	}
}

// cpuTime is the CPU time the process has used.
func cpuTime(t testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
