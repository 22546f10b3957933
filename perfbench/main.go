// Command perfbench is the repository's benchmark: one process runs one
// named workload for a fixed time, checks the program's outputs, and
// prints one JSON result line whose metrics are named in BENCHMARK.json.
//
//	go run . --workload sim-paper --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (tracing off); with
// --trace 1 it records spans around the calls into each layer, writes
// them as a Chrome trace under .bench_build/traces/, and reports the
// per-layer metrics derived from that file. README.md maps every
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// benchWorkload is one named benchmark input. setup builds the inputs from
// the seed (its CPU time is setup_s); measure runs for the given
// duration and reports into out.
type benchWorkload struct {
	name    string
	setup   func(e *env) (any, error)
	measure func(e *env, in any, out *outcome) error
	// setups is how many times a run builds its inputs; setup_s is their
	// least CPU time, and the last build's inputs are measured.
	setups int
}

var workloads = []benchWorkload{
	{"sim-paper", setupSimPaper, measureSimPaper, 5},
	{"sim-scale", setupSimScale, measureSimScale, 5},
	{"daemon-load", setupDaemonLoad, measureDaemonLoad, 5},
	{"daemon-recover", setupDaemonRecover, measureDaemonRecover, 3},
}

// env carries a run's parameters.
type env struct {
	seed    int64
	seconds time.Duration
	// rec is nil with --trace 0: nothing records spans.
	rec *recorder
	// work is a fresh scratch directory for this run inside the checkout.
	work string
	// setups is how many times the run builds its inputs.
	setups int
}

// outcome collects what a workload measured. e2e and layer are keyed by
// the metric names of BENCHMARK.json, which also gives their units.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// problems lists failed correctness checks, one line each.
	problems []string
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json the program checks its output
// against, so a metric cannot be renamed on one side only.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose result line says correct=false.
var errIncorrect = errors.New("a correctness check failed")

func run(name string, seed int64, seconds time.Duration, traced bool) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	listed := false
	for _, sw := range spec.Workloads {
		listed = listed || sw.Name == name
	}
	if w == nil || !listed {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{seed: seed, seconds: seconds, work: work, setups: w.setups}
	if traced {
		e.rec = newRecorder()
	}
	fmt.Printf("workload=%s seed=%d seconds=%v trace=%v\n", name, seed, seconds, traced)

	var in any
	setups := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		if c, ok := in.(interface{ close() }); ok {
			c.close()
		}
		in = nil
		runtime.GC() // every set-up starts from the same heap state
		c0 := cpuSeconds()
		if in, err = w.setup(e); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	err = w.measure(e, in, out)
	if c, ok := in.(interface{ close() }); ok {
		c.close()
	}
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	out.e2e["setup_s"] = least(setups)
	out.e2e["peak_rss_mb"] = peakRSSMB()

	want := spec.EndToEnd
	got := out.e2e
	if traced {
		want, got = spec.PerLayer, out.layer
		// A layer this workload never calls did no work: its counts and
		// times are zero, not missing.
		for _, m := range want {
			if _, ok := got[m.Name]; !ok {
				got[m.Name] = 0
			}
		}
	}
	res := resultJSON{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, m.Name)
		}
		res.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	for k := range got {
		if _, ok := res.Metrics[k]; !ok {
			return fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not list", name, k)
		}
	}
	if res.Attempted < 1 {
		out.failf("nothing was attempted")
		res.Correct = false
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// peakRSSMB is the process's peak resident set size. Each run is its own
// process, so this is the workload's high-water mark, set-up included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the CPU time, user and system, that every thread of this
// process has used so far. The kernel leaves out the time a hypervisor
// ran other guests on this one's CPUs (steal), which on a shared host
// moved wall-clock figures by half between identical runs; CPU time is
// the work the program did, which is what the timed metrics compare.
// Other guests also slow the CPUs they leave this one, in spells of
// seconds, so work that repeats exactly reports its least time:
// interference only ever adds.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func least(xs []float64) float64 { return quantile(xs, 0) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
