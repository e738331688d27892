package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness command
// reads: the run length, the workloads and each end-to-end bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// steady runs each workload k times with seeds 1..k for run_seconds
// each and prints, per end-to-end metric, the median, the quartiles and the
// quartile spread as a share of the median against the metric's bound
// in BENCHMARK.json.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	only := fs.String("workload", "", "run only this workload")
	fs.Parse(args)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v (run from the repository root)\n", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "steady: BENCHMARK.json: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range bf.Workloads {
		if *only != "" && w.Name != *only {
			continue
		}
		values := map[string][]float64{}
		shares := map[string]bool{}
		for i := 0; i < *runs; i++ {
			seed := int64(i + 1)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			var r runResult
			if err := json.Unmarshal(lastLine(out), &r); err != nil || !r.Correct {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: bad result %q\n", w.Name, seed, lastLine(out))
				return 1
			}
			shares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
			for n, m := range r.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, failed/attempted seen: %v\n", w.Name, *runs, keys(shares))
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound")
		for _, m := range bf.EndToEnd {
			xs, ok := values[m.Name]
			if !ok {
				fmt.Printf("  %-18s missing\n", m.Name)
				status = 1
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			flagged := ""
			if m.Name != "setup_s" && spread > m.Bound/3 {
				flagged = "  > bound/3"
				status = 1
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f %.2f%s\n", m.Name, q1, med, q3, spread, m.Bound, spread/m.Bound, flagged)
		}
	}
	return status
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
