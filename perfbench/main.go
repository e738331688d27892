// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process against the program's Go API and prints one
// JSON line: whether the outputs passed their checks, how many
// operations were attempted and failed, and the metrics.
//
//	perfbench --workload est_sweep --seed 1 --seconds 35 --trace 0
//	perfbench steady --runs 10 [--workload name]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the
// time untraced and half traced, reports the per-layer metrics and the
// tracing overhead, and writes the spans under .bench_build/perfbench.
// See README.md for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// workDir holds the benchmark's scratch files and traces, relative to
// the checkout root the benchmark runs from.
const workDir = ".bench_build/perfbench"

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// fault, when set, corrupts one alignment ("alignment") or one
	// response ("response") before the checks, which must then fail.
	fault string
}

// report is one run's result. A failed operation ends the run with an
// error, so a finished run has failed none.
type report struct {
	attempted int
	metrics   metrics
	notes     []string
}

var workloads = map[string]func(runConfig) (*report, error){
	"est_sweep":   func(c runConfig) (*report, error) { return runLib(estInputs(c.seed), c) },
	"genome_pair": func(c runConfig) (*report, error) { return runLib(genomeInputs(c.seed), c) },
	"svc_mixed":   runSvc,
}

func traceFile(cfg runConfig) string {
	return filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	var cfg runConfig
	var secs, tr int
	flag.StringVar(&cfg.workload, "workload", "", "workload: est_sweep, genome_pair or svc_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 35, "measured time per run")
	flag.IntVar(&tr, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.fault, "inject-fault", "", "corrupt an 'alignment' or a 'response' before the checks")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = tr == 1
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	run, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (tr != 0 && tr != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload est_sweep|genome_pair|svc_mixed, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		// A failed check or operation: no result line, non-zero exit.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", cfg.workload, n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{true, rep.attempted, 0, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
