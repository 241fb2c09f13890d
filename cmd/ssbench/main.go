// Command ssbench runs the scenario registry: every table and figure of
// the paper's evaluation (Section 5), the ablations and live walkthroughs,
// and the extended corpus; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison. Each scenario fixes its own sizes; -quick
// selects the small profile.
//
// Usage:
//
//	ssbench                          # run the default sweep (50-topology testbed)
//	ssbench -list                    # print the scenario registry with tags
//	ssbench -exp fig7                # one scenario by name
//	ssbench -scenario-tag ablation   # every scenario carrying a tag
//	ssbench -quick                   # small profile: 10 topologies, short horizon
//	ssbench -out results             # also write scenario_<name>.{csv,json}
//	ssbench -exp corpus -out results # Section 5 corpus, CSV+JSON under results/
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
	quick := fs.Bool("quick", false, "small profile: smaller testbed and corpus, shorter horizons and live runs")
	outDir := fs.String("out", "", "write each scenario's data series as CSV and JSON (with run metadata) into this directory")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprint(stdout, experiments.DescribeRegistry())
		return nil
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick}

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
		if err := runScenario(stdout, s, opts, *outDir); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

// runScenario executes one registry entry: run, check, print, export.
func runScenario(stdout io.Writer, s experiments.Scenario, opts experiments.Options, outDir string) error {
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
	if outDir == "" {
		return nil
	}
	meta := experiments.RunMeta{
		Scenario:       s.Name,
		Seed:           opts.Seed,
		GeneratedAt:    start.UTC().Format(time.RFC3339),
		ElapsedSeconds: elapsed.Seconds(),
	}
	if err := writeFile(filepath.Join(outDir, "scenario_"+s.Name+".csv"), func(w io.Writer) error {
		return experiments.WriteCSV(w, res)
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(outDir, "scenario_"+s.Name+".json"), func(w io.Writer) error {
		return experiments.WriteJSON(w, meta, res)
	})
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
