// Quickstart: build a small pipeline, predict its throughput under
// backpressure, let the optimizer remove the bottleneck, and confirm the
// prediction by simulating and by executing the topology live.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"spinstreams"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A four-stage pipeline: the enrichment stage is 4x slower than the
	// source and will throttle everything through backpressure.
	t := spinstreams.NewTopology()
	src := t.MustAddOperator(spinstreams.Operator{
		Name: "events", Kind: spinstreams.KindSource, ServiceTime: 1 * ms, Impl: "source",
	})
	parse := t.MustAddOperator(spinstreams.Operator{
		Name: "parse", Kind: spinstreams.KindStateless, ServiceTime: 0.3 * ms, Impl: "affine",
	})
	enrich := t.MustAddOperator(spinstreams.Operator{
		Name: "enrich", Kind: spinstreams.KindStateless, ServiceTime: 4 * ms, Impl: "magnitude",
	})
	store := t.MustAddOperator(spinstreams.Operator{
		Name: "store", Kind: spinstreams.KindSink, ServiceTime: 0.2 * ms, Impl: "projection",
	})
	t.MustConnect(src, parse, 1)
	t.MustConnect(parse, enrich, 1)
	t.MustConnect(enrich, store, 1)

	// Step 1 — steady-state analysis (Algorithm 1).
	a, err := spinstreams.Analyze(t)
	if err != nil {
		return err
	}
	fmt.Printf("initial design: predicted throughput %.0f events/s\n", a.Throughput())
	for _, id := range a.Limiting {
		fmt.Printf("  bottleneck: %s (saturated; backpressure throttles the source)\n", t.Op(id).Name)
	}

	// Step 2 — bottleneck elimination via fission (Algorithm 2).
	// Fission only chooses degrees, so t with opt.Replicas() is the
	// optimized deployment.
	opt, err := spinstreams.Optimize(t, "fission", spinstreams.OptimizerOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("after fission: predicted throughput %.0f events/s (enrich x%d replicas)\n",
		opt.Throughput(), opt.Replicas()[enrich])

	// Step 3 — check the prediction in the discrete-event simulator.
	sim, err := spinstreams.Simulate(t, opt.Replicas(), spinstreams.SimConfig{Horizon: 30})
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %.0f events/s\n", sim.Throughput)

	// Step 4 — execute live on the goroutine runtime (stations with bounded
	// inboxes; replicated operators run behind emitter/collector stations).
	m, err := spinstreams.Run(context.Background(), t, opt.Replicas(), nil, spinstreams.RunConfig{
		Duration: 3 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Printf("executed live: %.0f events/s\n", m.Throughput)
	return nil
}

const ms = 1e-3
