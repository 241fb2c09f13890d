package core_test

import (
	"fmt"

	"spinstreams/internal/core"
)

// ExampleSteadyState demonstrates Algorithm 1: the slow middle stage caps
// the throughput at its service rate, and the source departure rate is
// corrected for backpressure.
func ExampleSteadyState() {
	t := core.NewTopology()
	src := t.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	slow := t.MustAddOperator(core.Operator{Name: "slow", Kind: core.KindStateful, ServiceTime: 0.004})
	sink := t.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	t.MustConnect(src, slow, 1)
	t.MustConnect(slow, sink, 1)

	a, err := core.SteadyState(t)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("throughput: %.0f items/s\n", a.Throughput())
	fmt.Printf("bottleneck: %s (rho = %.2f)\n", t.Op(a.Limiting[0]).Name, a.Rho[slow])
	// Output:
	// throughput: 250 items/s
	// bottleneck: slow (rho = 1.00)
}

// ExampleEliminateBottlenecks demonstrates Algorithm 2: the stateless
// bottleneck gets ceil(rho) = 4 replicas and the topology reaches the
// source's generation rate.
func ExampleEliminateBottlenecks() {
	t := core.NewTopology()
	src := t.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	hot := t.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 0.004})
	sink := t.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	t.MustConnect(src, hot, 1)
	t.MustConnect(hot, sink, 1)

	res, err := core.EliminateBottlenecks(t, core.FissionOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("replicas of hot: %d\n", res.Analysis.Replicas[hot])
	fmt.Printf("throughput: %.0f items/s\n", res.Analysis.Throughput())
	// Output:
	// replicas of hot: 4
	// throughput: 1000 items/s
}

// ExampleFuse demonstrates Algorithm 3 on the paper's Section 5.4
// walk-through: fusing the three underutilized operators keeps the
// predicted throughput at 1000 tuples/s.
func ExampleFuse() {
	t, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	fused, report, err := core.Fuse(t, nil, sub, "F")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("operators: %d -> %d\n", t.Len(), fused.Len())
	fmt.Printf("fused service time: %.2f ms\n", report.ServiceTime*1e3)
	fmt.Printf("introduces bottleneck: %v\n", report.IntroducesBottleneck)
	// Output:
	// operators: 6 -> 4
	// fused service time: 2.78 ms
	// introduces bottleneck: false
}

// ExampleEstimateLatency demonstrates the latency extension: M/M/1 waiting
// times on top of the steady-state rates.
func ExampleEstimateLatency() {
	t := core.NewTopology()
	src := t.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.002})
	mid := t.MustAddOperator(core.Operator{Name: "mid", Kind: core.KindStateless, ServiceTime: 0.001})
	sink := t.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	t.MustConnect(src, mid, 1)
	t.MustConnect(mid, sink, 1)

	est, err := core.EstimateLatency(t, nil, core.MM1, 64)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("mid wait: %.1f ms\n", est.Wait[mid]*1e3)
	// Output:
	// mid wait: 1.0 ms
}
