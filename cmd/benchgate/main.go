// Command benchgate is the CI gate for the two benchmark series bench/
// does not carry yet: BenchmarkReconfigStall's p99 pause-fence stall
// (written under SS_BENCH_JSON, compared against the committed
// BENCH_runtime.json) and the solver-cache ratio of
// BenchmarkSolverCacheAutoFuse. Transport throughput and observability
// overheads are bench/'s mailbox.*, obs.* and workload metrics.
//
// Usage:
//
//	go run ./cmd/benchgate -baseline BENCH_runtime.json -candidate BENCH_candidate.json
//	go run ./cmd/benchgate -opt-baseline BENCH_optimizer.json -opt-candidate BENCH_opt_candidate.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// record mirrors the JSON written by BenchmarkReconfigStall.
type record struct {
	Benchmark string `json:"benchmark"`
	// ReconfigStallP99Ms is the p99 pause-fence stall over the
	// benchmark's rescale sequence.
	ReconfigStallP99Ms float64 `json:"reconfig_stall_p99_ms"`
}

// optRecord mirrors the JSON written by BenchmarkSolverCacheAutoFuse in
// internal/opt: how many steady-state solves a direct solver performs on
// the autofuse workload versus how many the memoizing cache actually
// computes. The ratio is structural (it depends on the candidate count,
// not on wall clock), so unlike the throughput gate it is tight: the
// optimizer claims at least a 2x reduction, and the gate holds it to
// that.
type optRecord struct {
	Benchmark string  `json:"benchmark"`
	Graphs    int     `json:"graphs"`
	Direct    int     `json:"direct_solves"`
	Cached    int     `json:"cached_solves"`
	Ratio     float64 `json:"ratio"`
}

func loadOpt(path string) (*optRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r optRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Cached <= 0 || r.Direct <= 0 {
		return nil, fmt.Errorf("%s: solve counts missing or non-positive", path)
	}
	return &r, nil
}

func load(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.ReconfigStallP99Ms <= 0 {
		return nil, fmt.Errorf("%s: no reconfig_stall_p99_ms", path)
	}
	return &r, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_runtime.json", "committed baseline record")
	candidatePath := flag.String("candidate", "", "freshly measured record (enables the stall gate)")
	maxStallFactor := flag.Float64("max-stall-factor", 4.0, "max allowed growth factor of the reconfiguration p99 stall over baseline")
	stallFloorMs := flag.Float64("stall-floor-ms", 1.0, "ignore stall regressions while the candidate p99 stays under this many ms (scheduler noise floor)")
	optBaselinePath := flag.String("opt-baseline", "BENCH_optimizer.json", "committed solver-cache baseline record")
	optCandidatePath := flag.String("opt-candidate", "", "freshly measured solver-cache record (enables the optimizer gate)")
	minOptRatio := flag.Float64("min-opt-ratio", 2.0, "min direct/cached solve ratio for the optimizer gate")
	flag.Parse()

	if *optCandidatePath == "" && *candidatePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -candidate or -opt-candidate is required")
		os.Exit(2)
	}
	if *optCandidatePath != "" {
		gateOptimizer(*optBaselinePath, *optCandidatePath, *minOptRatio)
	}
	if *candidatePath != "" {
		gateStall(*baselinePath, *candidatePath, *maxStallFactor, *stallFloorMs)
	}
	fmt.Println("benchgate: ok")
}

// gateStall holds the reconfiguration fence to its cost: live ApplyDelta
// pauses only the rescaled stations, and the p99 pause must not grow
// beyond maxFactor times the committed baseline. Sub-floor candidates are
// inside scheduler noise and never fail. Exits non-zero on failure.
func gateStall(baselinePath, candidatePath string, maxFactor, floorMs float64) {
	base, err := load(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}
	cand, err := load(candidatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: candidate: %v\n", err)
		os.Exit(2)
	}
	b, c := base.ReconfigStallP99Ms, cand.ReconfigStallP99Ms
	fmt.Printf("%-14s baseline p99 %8.3f ms  candidate %8.3f ms  %+6.1f%%\n", "reconfig-stall", b, c, (c/b-1)*100)
	if c > floorMs && c > b*maxFactor {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL reconfiguration p99 stall %.3f ms exceeds %.1fx baseline %.3f ms\n", c, maxFactor, b)
		os.Exit(1)
	}
}

// gateOptimizer enforces the solver-cache claim: the memoizing solver
// must perform at least minRatio times fewer steady-state solves than a
// direct solver on the autofuse workload. Exits non-zero on failure.
func gateOptimizer(baselinePath, candidatePath string, minRatio float64) {
	cand, err := loadOpt(candidatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: opt candidate: %v\n", err)
		os.Exit(2)
	}
	ratio := float64(cand.Direct) / float64(cand.Cached)
	fmt.Printf("%-14s %d graphs: %d direct solves, %d cached solves, ratio %.2fx\n",
		"solver-cache", cand.Graphs, cand.Direct, cand.Cached, ratio)
	if base, err := loadOpt(baselinePath); err != nil {
		// The baseline is informational for this gate (the ratio bound
		// is absolute), so a missing one is reported but not fatal.
		fmt.Fprintf(os.Stderr, "benchgate: opt baseline: %v (skipping comparison)\n", err)
	} else {
		baseRatio := float64(base.Direct) / float64(base.Cached)
		fmt.Printf("%-14s baseline ratio %.2fx  candidate %+.1f%%\n",
			"solver-cache", baseRatio, (ratio/baseRatio-1)*100)
	}
	if ratio < minRatio {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL solver-cache ratio %.2fx is below the required %.2fx\n",
			ratio, minRatio)
		os.Exit(1)
	}
}
