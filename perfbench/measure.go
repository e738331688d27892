package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's figures by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// how many samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s) - 1 - i
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// minSamples is the smallest sample count whose p-quantile has at
// least ten samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(10/(1-p)-1e-9)) + 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocSnapshot is a point on the cumulative heap-allocation counters.
type allocSnapshot struct{ bytes, objects uint64 }

func readAllocs() allocSnapshot {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return allocSnapshot{st.TotalAlloc, st.Mallocs}
}

func (a allocSnapshot) since(b allocSnapshot) allocSnapshot {
	return allocSnapshot{a.bytes - b.bytes, a.objects - b.objects}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; on
// systems without /proc it falls back to the memory the Go runtime
// obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}
