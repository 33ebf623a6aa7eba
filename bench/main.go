// Command bench is the repository's wall-clock benchmark spine: it boots the
// real stack (or the paper-scale simulator) in one process, offers a seeded
// load, checks the outcome against a correctness oracle, and prints every
// metric by name and unit. See README.md for the workloads, the metrics and
// how they interact.
//
//	go run . -workload bank_paced -seed 1 -seconds 20 -trace 0
//	go run . -suite out/a.json -runs 5
//	go run . -compare out/a.json out/b.json
//	go run . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart anchors setup_s: set-up runs from process start to the first
// measured submit.
var processStart = time.Now()

// runOpts are the driver's four arguments plus where artefacts go.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// runResult is one run's outcome: the line the driver parses, plus the human
// lines printed above it.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// nproc is 2 on the reference host; pinning it keeps the runs comparable
	// on a larger one.
	runtime.GOMAXPROCS(2)

	var (
		o         runOpts
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = timed run reporting the end-to-end metrics")
		suite     = flag.String("suite", "", "run every workload -runs times, each in a fresh process, and write the results to this file")
		runs      = flag.Int("runs", 5, "runs per workload for -suite and -selfcheck")
		compare   = flag.Bool("compare", false, "compare two -suite files: -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved suites of the same code and require their medians to agree within half of each bound")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the cluster receives only the generated transactions")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the measured window")
	flag.StringVar(&o.outDir, "out", defaultOutDir(), "directory for WAL scratch space, profiles and span files")
	flag.Parse()
	o.trace = *trace != 0

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = runSelfcheck(o, *runs)
	case *suite != "":
		err = runSuite(o, *suite, *runs)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOutDir is bench/out beside the source when run from the module
// directory or the repository root, so artefacts land on the checkout's own
// filesystem.
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runOne executes one workload in this process and prints its result; the
// JSON object is the last line of standard output.
func runOne(o runOpts) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	res, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness oracle failed", o.workload)
	}
	return nil
}
