package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Job identifies the submission the span serves (its arrival index
	// plus one); every span of one client submission shares it. Tmpl is
	// the submission's template index, which server-side spans recover
	// from the job content.
	Job   int64 `json:"job,omitempty"`
	Tmpl  int   `json:"tmpl"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID for children to cite.
func (t *tracer) add(name string, job int64, tmpl int, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Tmpl: tmpl,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin records a span starting now whose end is set by end.
func (t *tracer) begin(name string, job int64, tmpl int, parent int64) int64 {
	now := time.Now()
	return t.add(name, job, tmpl, parent, now, now)
}

// end closes span id, opened by begin.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// durations returns the durations of every span named name that
// started at or after from.
func (t *tracer) durations(name string, from time.Time) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	since := from.Sub(t.t0).Nanoseconds()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Start >= since {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write dumps every span to path as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// meanMS and meanUS average durations in milliseconds and microseconds.
func meanMS(ds []time.Duration) float64 { return mean(msOf(ds)) }
func meanUS(ds []time.Duration) float64 { return mean(msOf(ds)) * 1000 }
