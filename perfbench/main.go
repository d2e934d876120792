// Command perfbench is the repository's benchmark. One invocation runs one
// named workload in a closed loop from a single process for a fixed number
// of seconds, checks every simulated result against reference runs and
// pinned digests, and prints each metric by name with its unit. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it is the
// separate traced run: it records spans around every call it makes into a
// layer, takes a CPU profile, replays each layer's public API on the
// workload's own traces, and prints the per-layer metrics.
//
// Build and run it through run.sh, which keeps the build cache inside the
// checkout:
//
//	bash perfbench/run.sh --workload repair-heavy --seed 1 --seconds 15 --trace 0
//
// README.md in this directory explains the workloads and how each
// per-layer metric relates to the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

// maxFailureLines bounds how many failure messages a run prints.
const maxFailureLines = 20

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	out      string
}

// metric is one reported value. Timing metrics also carry the distribution
// they summarize (quartiles over ops, passes or set-up repetitions).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Dist  *dist   `json:"dist,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// report is everything one run produces.
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   []metric
	tables    []string  // extra human-readable sections
	series    []float64 // per-op ns/inst in run order, kept in the result file
	spans     *tracer
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

// fail records why an op or a check failed. The workload counts the failed
// ops itself (report.failed): a failed check fails every op it covers.
func (r *report) fail(format string, args ...any) {
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records a failure unless ok; it returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are derived from")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds the timed loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root (holds .bench_build)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d, want 0 or 1\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d, want >= 1\n", o.seconds)
		return 2
	}
	wl, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n",
			o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	o.out = filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	fp := takeFingerprint(o)
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("# host: %s\n", fp)
	fmt.Printf("# %s\n", wl.describe())
	fmt.Println("# load: closed loop, one process; modelled caches and predictors start empty in every op")
	fmt.Println("# model: not validated against hardware; results are checked against pinned values, no accuracy figure")

	rep := &report{}
	if o.trace {
		rep.spans = newTracer()
	}
	if err := wl.run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no op was attempted")
		return 1
	}
	if !o.trace {
		rep.add(metric{Name: "op_success_ratio", Unit: "ratio",
			Value: float64(rep.attempted-rep.failed) / float64(rep.attempted)})
	}

	printReport(o, rep)
	if err := writeResult(o, fp, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable lines that precede the JSON result.
func printReport(o options, rep *report) {
	for _, t := range rep.tables {
		fmt.Print(t)
	}
	fmt.Printf("ops attempted=%d failed=%d op_failure_ratio=%g\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	for _, f := range rep.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer"
	}
	fmt.Printf("%s metrics (%s):\n", kind, o.workload)
	for _, m := range rep.metrics {
		line := fmt.Sprintf("  %-30s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Dist != nil {
			line += fmt.Sprintf("  n=%d p25=%.6g p50=%.6g p75=%.6g", m.Dist.N, m.Dist.P25, m.Dist.P50, m.Dist.P75)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Println(line)
	}
}

// writeResult stores the run's full record, fingerprint included, under the
// output directory.
func writeResult(o options, fp fingerprint, rep *report) error {
	rec := struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Attempted   int         `json:"attempted"`
		Failed      int         `json:"failed"`
		Failures    []string    `json:"failures,omitempty"`
		Metrics     []metric    `json:"metrics"`
		OpSeries    []float64   `json:"op_ns_per_inst"`
		SpanFile    string      `json:"span_file,omitempty"`
	}{fp, rep.attempted, rep.failed, rep.failures, rep.metrics, rep.series, ""}
	stem := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, b2i(o.trace))
	if rep.spans != nil {
		rec.SpanFile = filepath.Join(o.out, "spans-"+stem+".jsonl")
		if err := rep.spans.writeFile(rec.SpanFile); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", rep.spans.len(), rec.SpanFile)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "result-"+stem+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	fmt.Printf("result: %s\n", path)
	return nil
}

// printJSON prints the final line: the contract's result object.
func printJSON(rep *report) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(rep.metrics))
	for _, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		ms[m.Name] = val{m.Value, m.Unit}
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// benchWorkload is one named workload of the benchmark.
type benchWorkload interface {
	name() string
	describe() string
	run(o options, rep *report) error
}

var allWorkloads = []benchWorkload{
	&traceWorkload{id: "repair-heavy", suiteName: "cloud-compression", scheme: "forward-coalesce"},
	&traceWorkload{id: "memory-bound", suiteName: "fspec06-bwaves-01", scheme: "forward-coalesce"},
	&traceWorkload{id: "stream-replay", suiteName: "cloud-compression", scheme: "forward-coalesce", stream: true},
	&sweepWorkload{id: "quick-sweep"},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range allWorkloads {
		if w.name() == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name())
	}
	sort.Strings(out)
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
