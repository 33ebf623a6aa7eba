package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// suiteRun is one child run as stored in a suite file.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	runResult
}

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Seconds int        `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
}

// runChild runs one workload in a fresh process — this binary, re-executed —
// and parses the result from the last line of its standard output. A fresh
// process per run keeps heap, caches and listener state from leaking between
// runs.
func runChild(o runOpts) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last output line is not a result: %w", o.workload, o.seed, err)
	}
	return &res, nil
}

// runSuite runs every workload `runs` times, sequentially, and writes the
// results to path.
func runSuite(o runOpts, path string, runs int) error {
	suite := suiteFile{Seconds: o.seconds}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			run, err := suiteChild(o, w.name, o.seed+int64(r))
			if err != nil {
				return err
			}
			suite.Runs = append(suite.Runs, run)
		}
	}
	return writeSuite(path, suite)
}

func suiteChild(o runOpts, workload string, seed int64) (suiteRun, error) {
	res, err := runChild(runOpts{workload: workload, seed: seed, seconds: o.seconds, outDir: o.outDir})
	if err != nil {
		return suiteRun{}, err
	}
	fmt.Fprintf(os.Stderr, "%-13s seed %-3d ops %-8d failed %d\n", workload, seed, res.Attempted, res.Failed)
	return suiteRun{Workload: workload, Seed: seed, runResult: *res}, nil
}

func writeSuite(path string, s suiteFile) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSuite(path string) (suiteFile, error) {
	var s suiteFile
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values collects one metric's per-run values on one workload.
func (s suiteFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// row is one workload x metric comparison.
type row struct {
	workload, metric, unit string
	bound                  float64
	aQ1, aMed, aQ3         float64
	bQ1, bMed, bQ3         float64
	aSpread, bSpread       float64
	worse                  float64 // share of a's median by which b is worse
	verdict                string
}

// compareSuites builds one row per workload x end-to-end metric. tolerance
// scales the bound a regression is judged against: 1 for -compare, 0.5 for
// -selfcheck.
func compareSuites(a, b suiteFile, tolerance float64) []row {
	var rows []row
	for _, w := range workloads {
		for _, m := range endToEnd {
			av, bv := a.values(w.name, m.name), b.values(w.name, m.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			r := row{workload: w.name, metric: m.name, unit: m.unit, bound: m.bound}
			r.aQ1, r.aMed, r.aQ3 = quartiles(av)
			r.bQ1, r.bMed, r.bQ3 = quartiles(bv)
			r.aSpread, r.bSpread = spread(av), spread(bv)
			r.worse = worsening(r.aMed, r.bMed, m.better == "lower")
			noise := max(r.aSpread, r.bSpread)
			switch {
			case noise > m.bound && m.name != "setup_s":
				// The runs of one side disagree by more than the bound, so
				// the medians cannot resolve a change of that size. setup_s
				// is measured once per run and judged on its median alone.
				r.verdict = "unresolved"
			case r.worse > m.bound*tolerance:
				r.verdict = "regressed"
			case -r.worse > m.bound*tolerance && -r.worse > noise:
				r.verdict = "improved"
			default:
				r.verdict = "unchanged"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(w io.Writer, rows []row, aName, bName string) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\t%s q1/med/q3\tspread\t%s q1/med/q3\tspread\tworse by\tbound\tverdict\n", aName, bName)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g / %.4g / %.4g\t%.1f%%\t%.4g / %.4g / %.4g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.unit, r.aQ1, r.aMed, r.aQ3, 100*r.aSpread,
			r.bQ1, r.bMed, r.bQ3, 100*r.bSpread, 100*r.worse, 100*r.bound, r.verdict)
	}
	tw.Flush()
}

func printFailures(w io.Writer, name string, s suiteFile) {
	for _, wl := range workloads {
		ops, failed, incorrect, n := 0, 0, 0, 0
		for _, r := range s.Runs {
			if r.Workload != wl.name {
				continue
			}
			n++
			ops += r.Attempted
			failed += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		fmt.Fprintf(w, "%s %-13s runs %d  failed/ops %d/%d  oracle failures %d\n", name, wl.name, n, failed, ops, incorrect)
	}
}

// compareFiles prints the table later issues quote.
func compareFiles(w io.Writer, aPath, bPath string) error {
	a, err := readSuite(aPath)
	if err != nil {
		return err
	}
	b, err := readSuite(bPath)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("the suites measured different windows (%d s and %d s) and cannot be compared", a.Seconds, b.Seconds)
	}
	printRows(w, compareSuites(a, b, 1), "a", "b")
	printFailures(w, "a", a)
	printFailures(w, "b", b)
	return nil
}

// runSelfcheck measures the same code twice, interleaved, and requires the
// two sets to agree: every pair of medians within half the metric's bound,
// every spread within the bound, and the simulated workload's virtual
// numbers bit-identical between two runs of one seed.
func runSelfcheck(o runOpts, runs int) error {
	if runs < 5 {
		return fmt.Errorf("-selfcheck needs at least 5 runs per workload, got %d", runs)
	}
	a, b := suiteFile{Seconds: o.seconds}, suiteFile{Seconds: o.seconds}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			first, second := &a, &b
			if r%2 == 1 {
				first, second = &b, &a
			}
			for _, side := range []*suiteFile{first, second} {
				run, err := suiteChild(o, w.name, o.seed+int64(r))
				if err != nil {
					return err
				}
				side.Runs = append(side.Runs, run)
			}
		}
	}
	if err := writeSuite(filepath.Join(o.outDir, "selfcheck-a.json"), a); err != nil {
		return err
	}
	if err := writeSuite(filepath.Join(o.outDir, "selfcheck-b.json"), b); err != nil {
		return err
	}
	rows := compareSuites(a, b, 0.5)
	printRows(os.Stdout, rows, "a", "b")
	printFailures(os.Stdout, "a", a)
	printFailures(os.Stdout, "b", b)

	var bad []string
	for _, r := range rows {
		if r.verdict == "unresolved" {
			bad = append(bad, fmt.Sprintf("%s/%s: spread %.1f%% exceeds the bound %.0f%%", r.workload, r.metric, 100*max(r.aSpread, r.bSpread), 100*r.bound))
		} else if math.Abs(r.worse) >= r.bound/2 {
			bad = append(bad, fmt.Sprintf("%s/%s: medians differ by %.1f%%, half the bound is %.1f%%", r.workload, r.metric, 100*math.Abs(r.worse), 50*r.bound))
		}
	}
	for _, s := range []suiteFile{a, b} {
		for _, r := range s.Runs {
			if !r.Correct || r.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s seed %d: failed=%d correct=%v", r.Workload, r.Seed, r.Failed, r.Correct))
			}
		}
	}
	bad = append(bad, simRepeats(o)...)
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: PASS")
	return nil
}

// simRepeats runs the traced simulated workload twice with one seed and
// requires its virtual-time metrics and exact counts to be bit-identical.
func simRepeats(o runOpts) []string {
	exact := []string{
		"sim.vcommit_ms_p50", "sim.vstrong_ms_p50", "sim.vstall_ms", "sim.vcatchup_ms",
		"simnet.msgs_per_commit", "simnet.bytes_per_commit", "diembft.local_timeouts", "diembft.txns_per_block",
	}
	var runs [2]*runResult
	for i := range runs {
		res, err := runChild(runOpts{workload: "sim100_fault", seed: o.seed, seconds: o.seconds, trace: true, outDir: o.outDir})
		if err != nil {
			return []string{err.Error()}
		}
		runs[i] = res
	}
	var bad []string
	if runs[0].Attempted != runs[1].Attempted {
		bad = append(bad, fmt.Sprintf("sim100_fault committed %d then %d transactions with one seed", runs[0].Attempted, runs[1].Attempted))
	}
	for _, name := range exact {
		x, y := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if x != y {
			bad = append(bad, fmt.Sprintf("sim100_fault %s read %v then %v with one seed", name, x, y))
		}
		fmt.Printf("sim100_fault %-28s %v == %v\n", name, x, y)
	}
	return bad
}
