// Command perfbench is the repository benchmark: it measures host time and
// estimate error of the rsr simulator on three workloads (sampled,
// fig7-fabric, strategies) and checks every operation's output against
// recorded expected values. See README.md for the workloads, the metrics and
// the layer-to-end-to-end map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sampled --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones from a traced run, which also writes a Chrome trace and a
// CPU profile per workload under .bench_out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"rsr/internal/workload"
)

// total is the dynamic instruction count simulated per program. At 2M every
// per-program regimen fits and the sampled estimates are stable across
// placement seeds; at 1M mcf's estimate is off by 200-300% and swings with
// the seed, which would make ipc_err_pct measure placement luck.
const total = 2_000_000

// outDir is where a traced run writes its Chrome trace and CPU profile,
// relative to the repository root; .gitignore names it.
const outDir = ".bench_out"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sampled, fig7-fabric or strategies")
	seed := flag.Int64("seed", 1, "cluster-placement seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.String("record", "", "write this seed's outputs in the expected-file format to the named file instead of measuring")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := recordSeed(w, exp, *seed, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if n := len(exp.trueIPC); n != len(workload.Names()) {
		fmt.Fprintf(os.Stderr, "perfbench: expected/true_ipc.tsv records %d programs, want %d\n", n, len(workload.Names()))
		os.Exit(1)
	}
	r := &run{w: w, exp: exp, seed: *seed, budget: time.Duration(*seconds) * time.Second}
	var res report
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// withProfile runs f under a CPU profile written to path.
func withProfile(path string, f func() error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(fh); err != nil {
		fh.Close()
		return err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if err := fh.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}
