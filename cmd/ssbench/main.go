// Command ssbench runs the scenario registry: every table and figure of
// the paper's evaluation (Section 5), the ablations and live walkthroughs,
// and the extended corpus; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
//
// Usage:
//
//	ssbench                         # run the default sweep (50-topology testbed)
//	ssbench -list                   # print the scenario registry with tags
//	ssbench -exp fig7               # one scenario by name
//	ssbench -exp corpus -out results # Section 5 corpus, CSV+JSON under results/
//	ssbench -scenario-tag ablation  # every scenario carrying a tag
//	ssbench -quick                  # smaller testbed, shorter horizon
//	ssbench -csv out/               # also export each data series as CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spinstreams/internal/experiments"
	"spinstreams/internal/qsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ssbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "scenario name (see -list), or 'all' for the default sweep")
	tag := fs.String("scenario-tag", "", "run every registered scenario carrying this tag instead of -exp")
	list := fs.Bool("list", false, "print the scenario registry with tags and exit")
	seed := fs.Uint64("seed", 42, "testbed seed")
	topologies := fs.Int("topologies", 50, "testbed size")
	horizon := fs.Float64("horizon", 40, "simulated seconds per measurement")
	quick := fs.Bool("quick", false, "small testbed and short horizon")
	csvDir := fs.String("csv", "", "also write each scenario's data series as CSV into this directory")
	outDir := fs.String("out", "", "write each scenario's data series as CSV and JSON (with run metadata) into this directory")
	liveTopologies := fs.Int("live-topologies", 8, "testbed entries for fig7live")
	liveDuration := fs.Duration("live-duration", 3*time.Second, "wall-clock run per topology for fig7live")
	liveBatch := fs.Int("batch", 0, "live window size in tuples (0 = runtime default 32; 1 = per-tuple delivery)")
	liveLinger := fs.Duration("linger", 0, "live: longest a paced source keeps a window open (0 = runtime default 1ms)")
	liveRestarts := fs.Int("max-restarts", 0, "live runs: restart a panicked operator up to N times, then degrade (0 = crash, <0 = unlimited)")
	driftTable := fs.Int("drift-table", 2, "drift: paper-example service-time variant (1 or 2)")
	reoptSlow := fs.Float64("reopt-slow", 3, "reopt/autotune: factor by which the deployed hot operator is slower than declared")
	autotuneRounds := fs.Int("autotune-rounds", 3, "autotune: measure/re-optimize/apply rounds")
	autotuneInterval := fs.Duration("autotune-interval", 800*time.Millisecond, "autotune: measurement window per round")
	corpusHorizon := fs.Float64("corpus-horizon", 12, "corpus: simulated seconds per measurement")
	corpusRounds := fs.Int("corpus-rounds", 8, "corpus: autotune hill-climb measurement rounds")
	corpusWorkloads := fs.String("workloads", "", "corpus: comma-separated workload shapes (default steady,bursty,diurnal,hotkey)")
	estimatorSeeds := fs.Int("estimator-seeds", 0, "estimator: corpus seeds for the probe-free sweep (0 = default 34)")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprint(stdout, experiments.DescribeRegistry())
		return nil
	}

	setup := experiments.Setup{
		Seed:       *seed,
		Topologies: *topologies,
		Sim:        qsim.Config{Horizon: *horizon},
	}
	corpus := experiments.CorpusOptions{
		Topologies: *topologies,
		Horizon:    *corpusHorizon,
		Rounds:     *corpusRounds,
	}
	if *corpusWorkloads != "" {
		corpus.Workloads = strings.Split(*corpusWorkloads, ",")
	}
	estimator := experiments.EstimatorOptions{Seeds: *estimatorSeeds}
	if *quick {
		setup.Topologies = 10
		setup.Sim.Horizon = 15
		corpus.Topologies = 5
		corpus.Horizon = 6
		corpus.Rounds = 3
		if estimator.Seeds == 0 {
			estimator.Seeds = 8
		}
	}
	opts := experiments.Options{
		Setup: setup,
		Live: experiments.LiveOptions{
			Topologies:  *liveTopologies,
			Duration:    *liveDuration,
			Batch:       *liveBatch,
			Linger:      *liveLinger,
			MaxRestarts: *liveRestarts,
		},
		Corpus:           corpus,
		Estimator:        estimator,
		DriftTable:       *driftTable,
		SlowFactor:       *reoptSlow,
		AutotuneRounds:   *autotuneRounds,
		AutotuneInterval: *autotuneInterval,
	}

	var scenarios []experiments.Scenario
	switch {
	case *tag != "":
		scenarios = experiments.WithTag(*tag)
		if len(scenarios) == 0 {
			return fmt.Errorf("no scenario carries tag %q\n%s", *tag, experiments.DescribeRegistry())
		}
	case *exp == "all":
		scenarios = experiments.WithTag("default")
	default:
		for _, name := range strings.Split(*exp, ",") {
			s, ok := experiments.Get(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q\n%s", name, experiments.DescribeRegistry())
			}
			scenarios = append(scenarios, s)
		}
	}

	banner := len(scenarios) > 1
	for _, s := range scenarios {
		if banner {
			fmt.Fprintf(stdout, "=== %s ===\n", strings.ToUpper(s.Name))
		}
		if err := runScenario(stdout, s, opts, *csvDir, *outDir); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

// runScenario executes one registry entry: run, check, print, export.
func runScenario(stdout io.Writer, s experiments.Scenario, opts experiments.Options, csvDir, outDir string) error {
	start := time.Now()
	res, err := s.Run(context.Background(), opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if s.Check != nil {
		if err := s.Check(res); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
	}
	fmt.Fprintln(stdout, res)
	if csvDir != "" {
		if err := writeFile(filepath.Join(csvDir, s.Name+".csv"), func(w io.Writer) error {
			return experiments.WriteCSV(w, res)
		}); err != nil {
			return err
		}
	}
	if outDir != "" {
		meta := experiments.RunMeta{
			Scenario:       s.Name,
			Seed:           opts.Setup.Seed,
			GeneratedAt:    start.UTC().Format(time.RFC3339),
			ElapsedSeconds: elapsed.Seconds(),
		}
		if err := writeFile(filepath.Join(outDir, "scenario_"+s.Name+".csv"), func(w io.Writer) error {
			return experiments.WriteCSV(w, res)
		}); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(outDir, "scenario_"+s.Name+".json"), func(w io.Writer) error {
			return experiments.WriteJSON(w, meta, res)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
