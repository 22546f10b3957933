package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"muri/internal/telemetry"
)

// recorder keeps the spans of a traced run in memory. Spans are recorded
// only from this package, around the calls it makes into the program's
// layers; the program itself is not instrumented. Safe for concurrent
// use: the daemon workloads record from executor and observer callbacks.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cost is the time spent inside add: the recorder's own overhead.
	cost time.Duration
}

// span is one timed call. Spans of one job, replay or round share id;
// parent names the layer of the span that encloses this one ("" for a
// root), which is what self time subtracts.
type span struct {
	layer, name, parent string
	id                  int64
	start, dur          time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span from start to end. A nil recorder records nothing,
// so untraced runs pass nil and call sites need no guard.
func (r *recorder) add(layer, name, parent string, id int64, start, end time.Time) {
	if r == nil {
		return
	}
	t := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{layer, name, parent, id, start.Sub(r.t0), end.Sub(start)})
	r.cost += time.Since(t)
	r.mu.Unlock()
}

// spanStats is what the per-layer metrics are computed from: the trace
// file written at the end of the run, parsed back.
type spanStats struct {
	// durs lists each span name's durations, in seconds.
	durs map[string][]float64
	// self is each layer's total span time in seconds, minus the time
	// of the spans whose parent is this layer.
	self map[string]float64
}

// total is the summed duration of the named spans, in seconds.
func (s *spanStats) total(name string) float64 {
	t := 0.0
	for _, d := range s.durs[name] {
		t += d
	}
	return t
}

// flush writes the recorded spans as a Chrome trace file through
// telemetry.Tracer, reads the file back with telemetry.ReadTraceFile and
// derives per-layer self times from what it read.
func (r *recorder) flush(e *env, workload string) (*spanStats, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	tr := telemetry.NewTracer(len(spans) + 64)
	pid := tr.Process("perfbench " + workload)
	for _, s := range spans {
		tid := tr.Thread(pid, s.layer)
		tr.Span(pid, tid, s.name, s.layer, s.start, s.dur, map[string]any{"id": s.id, "parent": s.parent})
	}
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("trace dropped %d spans", n)
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	if err := tr.WriteFile(path); err != nil {
		return nil, err
	}
	f, err := telemetry.ReadTraceFile(path)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	st := &spanStats{durs: map[string][]float64{}, self: map[string]float64{}}
	for _, ev := range f.Spans() {
		d := ev.Dur / 1e6 // µs → s
		st.durs[ev.Name] = append(st.durs[ev.Name], d)
		st.self[ev.Cat] += d
		if p, _ := ev.Args["parent"].(string); p != "" {
			st.self[p] -= d
		}
	}
	return st, nil
}
