// Command bench is the repository's benchmark: six named workloads walk
// the XML → optimize → deploy → run path through the public functions of
// the internal packages, timed from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names (smoke_test.go holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_tps", "tuples/s"},
	{"latency_p50_ms", "ms"},
	{"optimize_ms", "ms"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"xmlio.read_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"opt.run_ms", "ms"},
	{"plan.build_ms", "ms"},
	{"opt.solver_cache_ratio", "ratio"},
	{"plan.stations", "count"},
	{"plan.ring_inboxes", "count"},
	{"plan.mpsc_inboxes", "count"},
	{"mailbox.ring_ns_per_tuple", "ns/tuple"},
	{"mailbox.ring_allocs_per_tuple", "allocs/tuple"},
	{"mailbox.mpsc1_ns_per_tuple", "ns/tuple"},
	{"mailbox.mpsc1_allocs_per_tuple", "allocs/tuple"},
	{"mailbox.mpsc3_ns_per_tuple", "ns/tuple"},
	{"mailbox.mpsc3_allocs_per_tuple", "allocs/tuple"},
	{"mailbox.pertuple_ns_per_tuple", "ns/tuple"},
	{"mailbox.pertuple_allocs_per_tuple", "allocs/tuple"},
	{"operators.ns_per_tuple", "ns/tuple"},
	{"operators.allocs_per_tuple", "allocs/tuple"},
	{"runtime.latency_p99_ms", "ms"},
	{"runtime.latency_samples", "count"},
	{"runtime.cpu_ns_per_tuple", "ns/tuple"},
	{"runtime.allocs_per_tuple", "allocs/tuple"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.efficiency", "ratio"},
	{"runtime.max_op_busy_share", "ratio"},
	{"runtime.model_err_pct", "%"},
	{"runtime.model_err_worst_op_pct", "%"},
	{"keypart.replica_skew", "ratio"},
	{"obs.overhead_pct", "%"},
	{"obs.estimator_overhead_pct", "%"},
	{"distributed.tps_default", "tuples/s"},
	{"distributed.tps_batched", "tuples/s"},
	{"distributed.vs_local_ratio", "ratio"},
	{"trace.optimize_coverage_pct", "%"},
	{"trace_overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stationRow is one physical station's measured behaviour in a window.
type stationRow struct {
	Name        string  `json:"name"`
	Role        string  `json:"role"`
	ConsumeRate float64 `json:"consume_rate_tps"`
	EmitRate    float64 `json:"emit_rate_tps"`
	// OpBusyShare is the share of the window its bound operator's
	// Process was running (traced pass, bound operators only).
	OpBusyShare float64 `json:"op_busy_share,omitempty"`
}

// result is what one pass over one workload reports.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	Correct     bool               `json:"correct"`
	Attempted   uint64             `json:"attempted"`
	Failed      uint64             `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Problems    []string           `json:"problems,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Samples     map[string]summary `json:"samples"`
	Stations    []stationRow       `json:"stations,omitempty"`
	SelfTimeMs  map[string]float64 `json:"span_self_time_ms,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`

	defs []metricDef
	// busy is the time spent on this result alone; passes interleave.
	busy time.Duration
	// golden is what the corpus optimized to, for out/optimize-corpus.json.
	golden []goldenRow
}

func newResult(w *workload, seed uint64, traced bool) *result {
	r := &result{
		Workload: w.name, Seed: seed, Traced: traced, Correct: true,
		Metrics: make(map[string]metric), Samples: make(map[string]summary),
		defs: endToEnd,
	}
	if traced {
		r.defs = perLayer
	}
	return r
}

// put records a metric from its samples: the reported value is their
// median (for latency percentiles the caller passes the percentile as a
// single value and the pooled samples separately).
func (r *result) put(name string, value float64, samples []float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: value, Unit: d.unit}
			if samples == nil {
				samples = []float64{value}
			}
			r.Samples[name] = summarize(samples)
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// timed adds the time until the returned function runs to busy.
func (r *result) timed() func() {
	start := time.Now()
	return func() { r.busy += time.Since(start) }
}

func (r *result) fail(n uint64, problems ...string) {
	r.Failed += n
	r.Problems = append(r.Problems, problems...)
}

// close settles the totals: any problem makes the run incorrect, and a
// problem that carried no tuple count still counts as one failure. A
// metric whose step failed reads 0.
func (r *result) close() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.put(d.name, 0, nil)
		}
	}
	if r.Attempted == 0 {
		r.Attempted = 1
	}
	if len(r.Problems) > 0 {
		r.Correct = false
		if r.Failed == 0 {
			r.Failed = 1
		}
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	r.WallSeconds = r.busy.Seconds()
}

// line is the contract's result object.
func (r *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

func (r *result) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): correct=%v attempted=%d failed=%d failed_share=%.3g wall=%.1fs\n",
		r.Workload, pass, r.Seed, r.Correct, r.Attempted, r.Failed, r.FailedShare, r.WallSeconds)
	for _, d := range r.defs {
		s := r.Samples[d.name]
		fmt.Fprintf(w, "  %-34s %14.6g %-12s (n=%d q1=%.6g q3=%.6g)\n", d.name, r.Metrics[d.name].Value, d.unit, s.N, s.Q1, s.Q3)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// environment is the fingerprint results.json carries.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func fingerprint(seed uint64, seconds float64) environment {
	env := environment{
		GoVersion: goruntime.Version(), GOMAXPROCS: goruntime.GOMAXPROCS(0), NumCPU: goruntime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(sha))
			}
		}
		env.Commit = ref
	}
	return env
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measuring time per workload and pass")
	trace := fs.Int("trace", 2, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass; 2: both")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results.json and trace.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 2 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds wants > 0, -trace wants 0, 1 or 2, and there are no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	// Load comes from the runtime's own source station in this process;
	// cap the schedulers so a many-core box measures the same program.
	goruntime.GOMAXPROCS(min(goruntime.NumCPU(), 4))

	tr := newTracer(*trace != 0)
	var results []*result
	if *trace != 1 {
		results = append(results, endToEndPass(selected, *seed, *seconds)...)
	}
	if *trace != 0 {
		for _, w := range selected {
			results = append(results, tracedPass(w, *seed, *seconds, tr))
		}
	}

	ok := true
	for _, r := range results {
		r.print(stdout)
		ok = ok && r.Correct
	}
	if err := writeOutputs(*out, fingerprint(*seed, *seconds), results, tr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The last line is one JSON object: the single result when one
	// workload and one pass were selected, every result keyed
	// workload/metric otherwise.
	final := results[0]
	if len(results) > 1 {
		final = &result{Correct: ok, Metrics: make(map[string]metric)}
		for _, r := range results {
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for k, m := range r.Metrics {
				final.Metrics[r.Workload+"/"+k] = m
			}
		}
	}
	data, err := final.line()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !ok {
		return 1
	}
	return 0
}

func writeOutputs(dir string, env environment, results []*result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(results, func(i, j int) bool { return !results[i].Traced && results[j].Traced })
	data, err := json.MarshalIndent(struct {
		Environment environment `json:"environment"`
		Results     []*result   `json:"results"`
	}{env, results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range results {
		if r.golden == nil {
			continue
		}
		// Copy this over expected/optimize-corpus.json to accept a
		// deliberate change of the optimizer's results.
		rows := make([]string, len(r.golden))
		for i, g := range r.golden {
			row, err := json.Marshal(g)
			if err != nil {
				return err
			}
			rows[i] = string(row)
		}
		data := "[\n" + strings.Join(rows, ",\n") + "\n]\n"
		if err := os.WriteFile(filepath.Join(dir, "optimize-corpus.json"), []byte(data), 0o644); err != nil {
			return err
		}
	}
	return tr.write(filepath.Join(dir, "trace.json"))
}
