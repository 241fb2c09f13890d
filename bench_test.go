// Benchmarks of the ablations called out in DESIGN.md, the live
// reconfiguration stall, and micro-benchmarks of the core algorithms.
// Custom metrics report the headline quantity (pmax, throughput, stall
// p99) next to the usual ns/op. The paper's tables and figures are
// scenarios of the registry in internal/experiments: run them with
// `go run ./cmd/ssbench`.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package spinstreams_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/keypart"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/runtime"
	"spinstreams/internal/stats"
	"spinstreams/internal/window"
)

// BenchmarkAblationRestartVsScale compares the paper's restart-based
// Algorithm 1 against the single-pass scaling variant on the same graphs.
func BenchmarkAblationRestartVsScale(b *testing.B) {
	bed, err := randtopo.Testbed(randtopo.Config{Seed: 7}, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("restart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range bed {
				if _, err := core.SteadyState(g.Topology); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range bed {
				if _, err := core.SteadyStateFast(g.Topology); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationFusionRateDP compares the paper-literal exponential
// path enumeration against the linear DP for the fused service rate.
func BenchmarkAblationFusionRateDP(b *testing.B) {
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	front, err := core.ValidateSubgraph(topo, sub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FusionServiceTimeByPaths(topo, sub, front)
		}
	})
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.FusionServiceTime(topo, sub, front); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKeyPartitioning compares greedy packing vs consistent
// hashing on a skewed key distribution; reports each pmax.
func BenchmarkAblationKeyPartitioning(b *testing.B) {
	freq := stats.ZipfWeights(1000, 1.5)
	b.Run("greedy", func(b *testing.B) {
		var pmax float64
		for i := 0; i < b.N; i++ {
			asg, err := keypart.Greedy{}.Partition(freq, 16)
			if err != nil {
				b.Fatal(err)
			}
			pmax = asg.PMax
		}
		b.ReportMetric(pmax, "pmax")
	})
	b.Run("hash", func(b *testing.B) {
		var pmax float64
		for i := 0; i < b.N; i++ {
			asg, err := keypart.ConsistentHash{Seed: 3}.Partition(freq, 16)
			if err != nil {
				b.Fatal(err)
			}
			pmax = asg.PMax
		}
		b.ReportMetric(pmax, "pmax")
	})
}

// BenchmarkAblationBufferSize sweeps the mailbox capacity in the simulator
// (the model is capacity-independent; throughput should be stable).
func BenchmarkAblationBufferSize(b *testing.B) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable2)
	for _, capacity := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res, err := qsim.SimulateTopology(topo, nil, qsim.Config{
					Seed: uint64(i), Horizon: 10, BufferSize: capacity,
				})
				if err != nil {
					b.Fatal(err)
				}
				tp = res.Throughput
			}
			b.ReportMetric(tp, "tuples/s")
		})
	}
}

// BenchmarkReconfigStall measures the cost of live reconfiguration: each
// iteration starts a controller on an unpadded 4-operator pipeline,
// applies a grow/grow/shrink rescale sequence while tuples flow, and
// collects every pause-fence stall. The reported metric is the p99 fence
// stall in milliseconds — the time reconfigured stations (and only they)
// were paused; unaffected stations keep running throughout. Set
// SS_BENCH_JSON=<path> to record the p99 (CI gates it against the
// committed BENCH_runtime.json baseline with cmd/benchgate).
func BenchmarkReconfigStall(b *testing.B) {
	topo := core.NewTopology()
	var prev core.OpID
	for i, spec := range []struct {
		name string
		kind core.Kind
	}{
		{"src", core.KindSource},
		{"stage1", core.KindStateless},
		{"stage2", core.KindStateless},
		{"sink", core.KindSink},
	} {
		id := topo.MustAddOperator(core.Operator{Name: spec.name, Kind: spec.kind, ServiceTime: 0.001})
		if i > 0 {
			topo.MustConnect(prev, id, 1)
		}
		prev = id
	}
	var stalls []time.Duration
	for i := 0; i < b.N; i++ {
		c, err := runtime.StartTopology(topo, nil, nil, runtime.Config{
			Seed:                uint64(i + 1),
			MailboxSize:         64,
			NoServicePadding:    true,
			ReconfigStallBudget: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, step := range []opt.ReplicaChange{
			{Operator: "stage1", From: 1, To: 2},
			{Operator: "stage2", From: 1, To: 3},
			{Operator: "stage2", From: 3, To: 2},
		} {
			time.Sleep(20 * time.Millisecond)
			if _, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{step}}); err != nil {
				b.Fatal(err)
			}
		}
		stalls = append(stalls, c.Stalls()...)
		if _, err := c.Stop(); err != nil {
			b.Fatal(err)
		}
	}
	if len(stalls) == 0 {
		b.Fatal("no stalls recorded")
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
	idx := (99*len(stalls) + 99) / 100
	if idx > len(stalls) {
		idx = len(stalls)
	}
	p99 := float64(stalls[idx-1]) / float64(time.Millisecond)
	b.ReportMetric(p99, "stall-p99-ms")
	if path := os.Getenv("SS_BENCH_JSON"); path != "" {
		doc := map[string]any{"benchmark": "BenchmarkReconfigStall", "reconfig_stall_p99_ms": p99}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyState measures Algorithm 1 on growing random graphs.
func BenchmarkSteadyState(b *testing.B) {
	for _, v := range []int{10, 20} {
		g, err := randtopo.GenerateSized(randtopo.Config{Seed: 9}, v, v+v/5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SteadyState(g.Topology); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEliminateBottlenecks measures Algorithm 2.
func BenchmarkEliminateBottlenecks(b *testing.B) {
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: 11}, 20, 24)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.EliminateBottlenecks(g.Topology, core.FissionOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusionCandidates measures the automatic candidate search.
func BenchmarkFusionCandidates(b *testing.B) {
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: 13}, 20, 24)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.FusionCandidates(g.Topology, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEvents measures raw simulator speed in events/s.
func BenchmarkSimulatorEvents(b *testing.B) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	var events uint64
	var seconds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := qsim.SimulateTopology(topo, nil, qsim.Config{Seed: uint64(i), Horizon: 10})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	seconds = b.Elapsed().Seconds()
	if seconds > 0 {
		b.ReportMetric(float64(events)/seconds, "events/s")
	}
}

// BenchmarkOperators measures the per-item cost of representative catalog
// operators (the profiling the paper's workflow depends on).
func BenchmarkOperators(b *testing.B) {
	specs := []operators.Spec{
		{Impl: "identity"},
		{Impl: "scale", Param: 2},
		{Impl: "magnitude"},
		{Impl: "threshold-filter", Param: 0.5},
		{Impl: "wma", WindowLen: 1000, Slide: 10},
		{Impl: "wquantile", WindowLen: 1000, Slide: 10, Param: 0.95},
		{Impl: "skyline", WindowLen: 200, Slide: 10, K: 2},
		{Impl: "topk", WindowLen: 1000, Slide: 10, K: 10},
		{Impl: "bandjoin", WindowLen: 500, Param: 0.01},
	}
	for _, spec := range specs {
		b.Run(spec.Impl, func(b *testing.B) {
			op := operators.MustBuild(spec)
			gen, err := operators.NewGenerator(operators.GeneratorConfig{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			emit := func(operators.Tuple) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Process(gen.Next(), emit)
			}
		})
	}
}

// BenchmarkWindow measures the sliding-window substrate.
func BenchmarkWindow(b *testing.B) {
	w := window.MustCount[float64](1000, 10)
	var snap []float64
	for i := 0; i < b.N; i++ {
		if w.Add(float64(i)) {
			snap = w.Snapshot(snap[:0])
		}
	}
	_ = snap
}

// BenchmarkXMLRoundTrip measures the topology formalism.
func BenchmarkXMLRoundTrip(b *testing.B) {
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: 15}, 20, 24)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		roundTripXML(b, g)
	}
}

// BenchmarkSteadyStateCyclic measures the traffic-equation fixed point on
// a feedback topology.
func BenchmarkSteadyStateCyclic(b *testing.B) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	work := topo.MustAddOperator(core.Operator{Name: "work", Kind: core.KindStateful, ServiceTime: 0.0005})
	retry := topo.MustAddOperator(core.Operator{Name: "retry", Kind: core.KindStateful, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, work, 1)
	topo.MustConnect(work, sink, 0.7)
	topo.MustConnect(work, retry, 0.3)
	topo.MustConnect(retry, work, 1)
	for i := 0; i < b.N; i++ {
		if _, err := core.SteadyStateCyclic(topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSheddingModel measures the load-shedding steady state.
func BenchmarkSheddingModel(b *testing.B) {
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: 21}, 20, 24)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.SteadyStateShedding(g.Topology); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateLatency measures the latency extension.
func BenchmarkEstimateLatency(b *testing.B) {
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: 23}, 20, 24)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.SteadyState(g.Topology)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateLatency(g.Topology, a, core.MM1, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoFuse measures the automatic fusion loop.
func BenchmarkAutoFuse(b *testing.B) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	for i := 0; i < b.N; i++ {
		if _, err := core.AutoFuse(topo, core.AutoFuseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
