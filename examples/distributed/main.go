// Distributed execution: the same optimized pipeline runs first on a
// single process, then partitioned across three TCP-connected nodes — the
// Akka-Remoting direction the paper names as future work. Backpressure
// propagates across the network (a saturated remote mailbox stalls the
// TCP stream, which stalls the upstream sender), so the cost model's
// predictions hold in both deployments.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"spinstreams"
)

const ms = 1e-3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	t := spinstreams.NewTopology()
	src := t.MustAddOperator(spinstreams.Operator{
		Name: "ingest", Kind: spinstreams.KindSource, ServiceTime: 2 * ms, Impl: "source",
	})
	parse := t.MustAddOperator(spinstreams.Operator{
		Name: "parse", Kind: spinstreams.KindStateless, ServiceTime: 1 * ms, Impl: "affine",
	})
	enrich := t.MustAddOperator(spinstreams.Operator{
		Name: "enrich", Kind: spinstreams.KindStateless, ServiceTime: 6 * ms, Impl: "magnitude",
	})
	store := t.MustAddOperator(spinstreams.Operator{
		Name: "store", Kind: spinstreams.KindSink, ServiceTime: 0.5 * ms, Impl: "projection",
	})
	t.MustConnect(src, parse, 1)
	t.MustConnect(parse, enrich, 1)
	t.MustConnect(enrich, store, 1)

	opt, err := spinstreams.Optimize(t, "fission", spinstreams.OptimizerOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("predicted: %.0f items/s (enrich x%d replicas)\n",
		opt.Throughput(), opt.Replicas()[enrich])

	ctx := context.Background()
	local, err := spinstreams.Run(ctx, t, opt.Replicas(), nil, spinstreams.RunConfig{
		Duration: 3 * time.Second, Seed: 5,
	})
	if err != nil {
		return err
	}
	fmt.Printf("single process:       %.0f items/s measured\n", local.Throughput)

	distCfg := spinstreams.DistributedConfig{Nodes: 3}
	distCfg.Duration = 3 * time.Second
	distCfg.Seed = 5
	dist, err := spinstreams.RunDistributed(ctx, t, opt.Replicas(), nil, distCfg)
	if err != nil {
		return err
	}
	fmt.Printf("3 nodes over TCP:     %.0f items/s measured\n", dist.Throughput)
	fmt.Println("stations per node exchange items over loopback TCP; emitter,")
	fmt.Println("replicas and collector of each operator stay co-located.")
	return nil
}
