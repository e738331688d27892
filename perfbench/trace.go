package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Derived spans are laid out from durations the program reports
	// (core.Metrics) rather than timed by the benchmark.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs take the same code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// record adds a finished span and returns its id.
func (t *tracer) record(name string, op, parent int, start, end time.Time, derived bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: t.us(start), End: t.us(end), Derived: derived})
	return id
}

// open starts a span whose end is filled in by close.
func (t *tracer) open(name string, op, parent int) int {
	now := time.Now()
	return t.record(name, op, parent, now, now, false)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := t.us(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfMS returns each span name's total self time in milliseconds: its
// spans' durations minus the time their child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += max(0, s.End-s.Start-child[s.ID]) / 1000
	}
	return out
}

// write saves the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfMS()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type layer struct {
		Name   string  `json:"name"`
		SelfMS float64 `json:"self_ms"`
	}
	layers := make([]layer, len(names))
	for i, n := range names {
		layers[i] = layer{n, self[n]}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Layers []layer `json:"layers"`
		Spans  []span  `json:"spans"`
	}{layers, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
