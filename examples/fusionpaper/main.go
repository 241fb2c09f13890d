// The exact operator-fusion walk-through of Section 5.4 of the paper:
// the six-operator topology of Figure 11 in both service-time variants.
// Table 1 (fast operators 3/4/5) — fusion is feasible; Table 2 (slow
// operators) — the tool raises an alert because the meta-operator becomes
// a bottleneck. Predictions are verified in the simulator. Both run as the
// registry's table1/table2 scenarios, the ones `ssbench -exp` runs.
//
//	go run ./examples/fusionpaper
package main

import (
	"context"
	"fmt"
	"os"

	"spinstreams/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fusionpaper:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, name := range []string{"table1", "table2"} {
		s, _ := experiments.Get(name)
		res, err := s.Run(context.Background(), experiments.Options{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	fmt.Println("paper reference: Table 1 fused T = 2.80 ms, throughput 1000 predicted / 970 measured;")
	fmt.Println("                 Table 2 fused T = 4.42 ms, throughput 760 predicted / 753 measured.")
	return nil
}
