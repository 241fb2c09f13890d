// Fraud scoring: a real-time analytics pipeline over a stream of card
// transactions — the kind of workload the paper's introduction motivates.
//
// Topology:
//
//	transactions -> dedup -> score -> split -> high-risk filter -> top-k alerts
//	                                 \-> per-card rolling average (keyed, skewed)
//
// The per-card aggregation is partitioned-stateful with a ZipF key
// distribution (a few hot cards dominate), so the optimizer must use key
// partitioning — and key skew limits how far fission can go.
//
//	go run ./examples/fraud
package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"spinstreams"
	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/stats"
)

const ms = 1e-3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fraud:", err)
		os.Exit(1)
	}
}

func run() error {
	const numCards = 200
	cardFreq := stats.ZipfWeights(numCards, 1.4)

	t := spinstreams.NewTopology()
	src := t.MustAddOperator(spinstreams.Operator{
		Name: "transactions", Kind: spinstreams.KindSource, ServiceTime: 0.8 * ms, Impl: "source",
	})
	dedup := t.MustAddOperator(spinstreams.Operator{
		Name: "dedup", Kind: spinstreams.KindPartitionedStateful, ServiceTime: 0.4 * ms,
		OutputSelectivity: 0.9, Impl: "dedup",
		Keys: &spinstreams.KeyDistribution{Freq: cardFreq},
	})
	score := t.MustAddOperator(spinstreams.Operator{
		Name: "score", Kind: spinstreams.KindStateless, ServiceTime: 2.5 * ms, Impl: "magnitude",
	})
	riskFilter := t.MustAddOperator(spinstreams.Operator{
		Name: "high-risk", Kind: spinstreams.KindStateless, ServiceTime: 0.3 * ms,
		OutputSelectivity: 0.5, Impl: "threshold-filter",
	})
	rolling := t.MustAddOperator(spinstreams.Operator{
		Name: "per-card-average", Kind: spinstreams.KindPartitionedStateful, ServiceTime: 2.2 * ms,
		InputSelectivity: 10, Impl: "wma",
		Keys: &spinstreams.KeyDistribution{Freq: cardFreq},
	})
	alerts := t.MustAddOperator(spinstreams.Operator{
		Name: "alerts-topk", Kind: spinstreams.KindStateful, ServiceTime: 1.0 * ms,
		InputSelectivity: 5, Impl: "topk",
	})
	dash := t.MustAddOperator(spinstreams.Operator{
		Name: "dashboard", Kind: spinstreams.KindSink, ServiceTime: 0.1 * ms, Impl: "projection",
	})
	t.MustConnect(src, dedup, 1)
	t.MustConnect(dedup, score, 1)
	t.MustConnect(score, riskFilter, 0.55)
	t.MustConnect(score, rolling, 0.45)
	t.MustConnect(riskFilter, alerts, 1)
	t.MustConnect(alerts, dash, 1)
	t.MustConnect(rolling, dash, 1)

	// Predict the initial design.
	a, err := spinstreams.Analyze(t)
	if err != nil {
		return err
	}
	fmt.Printf("initial design: %.0f tx/s predicted", a.Throughput())
	if a.Bottlenecked() {
		fmt.Printf(" (bottlenecks:")
		for _, id := range a.Limiting {
			fmt.Printf(" %s", t.Op(id).Name)
		}
		fmt.Printf(")")
	}
	fmt.Println()

	// Optimize with a replica budget, as an operations team would.
	opt, err := spinstreams.Optimize(t, "fission", spinstreams.OptimizerOptions{
		Fission: spinstreams.FissionOptions{MaxReplicas: 12},
	})
	if err != nil {
		return err
	}
	fmt.Printf("optimized (budget 12 replicas): %.0f tx/s predicted\n", opt.Throughput())
	for i := 0; i < t.Len(); i++ {
		if n := opt.Replicas()[i]; n > 1 {
			fmt.Printf("  %s -> %d replicas", t.Op(core.OpID(i)).Name, n)
			if pm := opt.Analysis.PMax[i]; pm > 0 {
				fmt.Printf(" (hottest replica owns %.0f%% of the cards' traffic)", pm*100)
			}
			fmt.Println()
		}
	}
	for _, u := range opt.Fission.Unresolved {
		fmt.Printf("  unresolved: %s (%s)\n", t.Op(u).Name, t.Op(u).Kind)
	}

	// Execute the optimized pipeline live with the real operator
	// implementations and watch alerts arrive at the dashboard.
	// The live stream draws card ids from the same ZipF law the optimizer
	// was given, and the dedup horizon is short so its real novelty rate
	// matches the profiled 0.9 output selectivity.
	gen, err := operators.NewGenerator(operators.GeneratorConfig{
		Seed: 7, NumKeys: numCards, KeySkew: 1.4,
	})
	if err != nil {
		return err
	}
	binding := &spinstreams.Binding{Ops: map[spinstreams.OpID]operators.Operator{
		dedup:      operators.MustBuild(operators.Spec{Impl: "dedup", WindowLen: 2, NumKeys: numCards, Param: 0.9}),
		score:      operators.MustBuild(operators.Spec{Impl: "magnitude"}),
		riskFilter: operators.MustBuild(operators.Spec{Impl: "threshold-filter", Param: 0.5}),
		rolling:    operators.MustBuild(operators.Spec{Impl: "wma", WindowLen: 30, Slide: 10, NumKeys: numCards}),
		alerts:     operators.MustBuild(operators.Spec{Impl: "topk", WindowLen: 25, Slide: 5, K: 3}),
		dash:       operators.MustBuild(operators.Spec{Impl: "projection", K: 3}),
	}}
	var alertsSeen atomic.Uint64
	m, err := spinstreams.Run(context.Background(), t, opt.Replicas(), binding, spinstreams.RunConfig{
		Duration:  3 * time.Second,
		Seed:      7,
		Generator: gen,
		OnSink: func(op spinstreams.OpID, tup spinstreams.Tuple) {
			alertsSeen.Add(1)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("live run: %.0f tx/s measured; dashboard received %d results\n",
		m.Throughput, alertsSeen.Load())
	fmt.Printf("  per-card-average departure: %.1f aggregates/s (1 per %d tx per card)\n",
		m.Departure[rolling], 10)
	return nil
}
