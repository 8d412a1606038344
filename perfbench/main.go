// Command perfbench is the repository's benchmark: one command that
// runs a seeded serving workload end to end, checks every output for
// correctness, and prints each metric with its unit and its clock —
// host (Go process wall time) or modeled (internal/uarch cycles).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cell-serve --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// makes a separate traced run and prints the per-layer metrics. The
// last line of standard output is the result object; the lines before
// it are the run metadata and a readable table. See README.md for why
// each workload exists and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Share of --seconds each measured serving phase gets (saturation is
// split into two slices).
const (
	satShare   = 0.3
	lightShare = 0.35
	heavyShare = 0.35
)

// setupReps is how many times an untraced run sets up the deployment;
// setup_s is the median.
const setupReps = 3

// drainTimeout bounds the wait for a phase's blocks to finish.
const drainTimeout = 60 * time.Second

// Clocks a metric is measured on.
const (
	clockHost    = "host"
	clockModeled = "modeled"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 35, "measured serving time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root (for run metadata)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1

	meta := collectMeta(o)
	mj, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "run %s\n", mj)

	rep := &report{}
	var err error
	if o.trace {
		err = tracedRun(spec, o, rep)
	} else {
		err = untracedRun(spec, o, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: correctness: %s\n", f)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if missing := rep.missing(want); len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: metrics not produced: %s\n", strings.Join(missing, ", "))
		return 1
	}
	rep.print(stdout, want)
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64
	Unit  string
	Clock string
	Note  string
}

// report collects a run's metrics and correctness evidence.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
}

func (r *report) add(name string, v float64, unit, clock string) {
	r.addNote(name, v, unit, clock, "")
}

func (r *report) addNote(name string, v float64, unit, clock, note string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit, Clock: clock, Note: note}
}

// addPctl reports a latency percentile with its sample evidence.
func (r *report) addPctl(name string, p pctl, unit, clock string) {
	note := fmt.Sprintf("n=%d beyond=%d", p.N, p.Beyond)
	if !p.Supported() {
		note += " (fewer than 10 samples beyond)"
	}
	r.addNote(name, p.Value, unit, clock, note)
}

// fail records a correctness failure: the run's outputs cannot be
// trusted and the benchmark exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) missing(want []metricDef) []string {
	var out []string
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		if !ok {
			out = append(out, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			out = append(out, fmt.Sprintf("%s (unit %s, want %s)", d.Name, m.Unit, d.Unit))
		}
	}
	return out
}

// print writes the readable table of every metric the run measured
// and, last, the result object, which carries only the declared ones.
func (r *report) print(w io.Writer, want []metricDef) {
	declared := map[string]bool{}
	for _, d := range want {
		declared[d.Name] = true
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-44s %16s %-10s %-8s %s\n", "metric", "value", "unit", "clock", "note")
	out := map[string]any{}
	for _, n := range names {
		m := r.metrics[n]
		note := m.Note
		if declared[n] {
			out[n] = map[string]any{"value": m.Value, "unit": m.Unit}
		} else {
			note = strings.TrimSpace(note + " (not in the result)")
		}
		fmt.Fprintf(w, "%-44s %16.6g %-10s %-8s %s\n", n, m.Value, m.Unit, m.Clock, note)
	}
	res, _ := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintf(w, "%s\n", res)
}

// runMeta stamps a run with where and what it measured.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	SourceHash string  `json:"source_sha256"`
}

func collectMeta(o options) runMeta {
	return runMeta{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(o.root),
		SourceHash: sourceHash(o.root),
	}
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
