// Command benchgate is the CI gate for the one benchmark series bench/
// does not carry yet: BenchmarkReconfigStall's p99 pause-fence stall
// (written under SS_BENCH_JSON, compared against the committed
// BENCH_runtime.json). Transport throughput and observability overheads
// are bench/'s mailbox.*, obs.* and workload metrics; the optimizer's
// one-solve-per-topology count is held by internal/opt's
// TestAutoFuseSolvesEachTopologyOnce.
//
// Usage:
//
//	go run ./cmd/benchgate -baseline BENCH_runtime.json -candidate BENCH_candidate.json
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
	candidatePath := flag.String("candidate", "", "freshly measured record")
	maxStallFactor := flag.Float64("max-stall-factor", 4.0, "max allowed growth factor of the reconfiguration p99 stall over baseline")
	stallFloorMs := flag.Float64("stall-floor-ms", 1.0, "ignore stall regressions while the candidate p99 stays under this many ms (scheduler noise floor)")
	flag.Parse()

	if *candidatePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -candidate is required")
		os.Exit(2)
	}
	gateStall(*baselinePath, *candidatePath, *maxStallFactor, *stallFloorMs)
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
