package spinstreams_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spinstreams"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	topo := spinstreams.NewTopology()
	src := topo.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	hot := topo.MustAddOperator(spinstreams.Operator{Name: "hot", Kind: spinstreams.KindStateless, ServiceTime: 4e-3})
	sink := topo.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, hot, 1)
	topo.MustConnect(hot, sink, 1)

	a, err := spinstreams.Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput() < 249 || a.Throughput() > 251 {
		t.Fatalf("predicted throughput = %v, want 250", a.Throughput())
	}
	res, err := spinstreams.Optimize(topo, spinstreams.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Replicas[hot] != 4 {
		t.Fatalf("replicas = %d, want 4", res.Analysis.Replicas[hot])
	}
	sim, err := spinstreams.Simulate(topo, res.Analysis.Replicas, spinstreams.SimConfig{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Throughput < 900 {
		t.Fatalf("simulated throughput = %v, want ~1000", sim.Throughput)
	}
}

func TestFacadePaperExampleAndFusion(t *testing.T) {
	topo, sub := spinstreams.PaperExample(false)
	cands, err := spinstreams.Candidates(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	fused, report, err := spinstreams.Fuse(topo, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	if report.IntroducesBottleneck {
		t.Fatal("table 1 fusion flagged")
	}
	var buf bytes.Buffer
	if err := spinstreams.WriteTopology(&buf, "fused", fused); err != nil {
		t.Fatal(err)
	}
	back, err := spinstreams.ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != fused.Len() {
		t.Fatal("xml round trip changed topology")
	}
}

func TestFacadeExecute(t *testing.T) {
	topo := spinstreams.NewTopology()
	src := topo.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	sink := topo.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, sink, 1)
	m, err := spinstreams.Execute(context.Background(), topo, nil, nil, spinstreams.RunConfig{
		Duration: 800 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput < 700 || m.Throughput > 1300 {
		t.Fatalf("throughput = %v, want ~1000", m.Throughput)
	}
}

// TestFacadeExecuteWithFaults drives the fault-injection and graceful-
// degradation surface through the public facade: injected panics with
// unlimited restarts must leave the run alive and the tuple accounting
// exactly conserved.
func TestFacadeExecuteWithFaults(t *testing.T) {
	topo := spinstreams.NewTopology()
	src := topo.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	mid := topo.MustAddOperator(spinstreams.Operator{Name: "mid", Kind: spinstreams.KindStateless, ServiceTime: 2e-4})
	sink := topo.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, mid, 1)
	topo.MustConnect(mid, sink, 1)
	inj := spinstreams.NewFaultInjector(spinstreams.FaultInjectorConfig{
		Seed:      5,
		PanicProb: 0.01,
	})
	m, err := spinstreams.Execute(context.Background(), topo, nil, nil, spinstreams.RunConfig{
		Duration:    800 * time.Millisecond,
		Warmup:      200 * time.Millisecond,
		MaxRestarts: -1,
		Faults:      inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt := m.Totals
	if out := tt.Delivered + tt.Shed + tt.Failed + tt.Drained + tt.Abandoned; tt.Generated != out {
		t.Fatalf("conservation violated: generated %d, accounted %d (%+v)", tt.Generated, out, tt)
	}
	if c := inj.Counts(); c.Panics == 0 {
		t.Fatal("fault schedule injected no panics")
	} else if m.Restarts == 0 {
		t.Fatalf("%d panics but no restarts", c.Panics)
	}
	if tt.Delivered == 0 {
		t.Fatal("nothing delivered despite unlimited restarts")
	}
}

func TestFacadeOperatorCatalog(t *testing.T) {
	names := spinstreams.OperatorCatalog()
	if len(names) != 20 {
		t.Fatalf("catalog = %d entries, want 20", len(names))
	}
	op, err := spinstreams.BuildOperator(spinstreams.Spec{Impl: names[0]})
	if err != nil || op == nil {
		t.Fatalf("BuildOperator: %v", err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Cyclic analysis through the facade.
	cyc := spinstreams.NewTopology()
	src := cyc.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	work := cyc.MustAddOperator(spinstreams.Operator{Name: "work", Kind: spinstreams.KindStateful, ServiceTime: 5e-4})
	retry := cyc.MustAddOperator(spinstreams.Operator{Name: "retry", Kind: spinstreams.KindStateful, ServiceTime: 1e-4})
	sink := cyc.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	cyc.MustConnect(src, work, 1)
	cyc.MustConnect(work, sink, 0.8)
	cyc.MustConnect(work, retry, 0.2)
	cyc.MustConnect(retry, work, 1)
	a, err := spinstreams.AnalyzeCyclic(cyc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput() < 999 {
		t.Errorf("cyclic throughput = %v", a.Throughput())
	}

	// Shedding analysis.
	topo, _ := spinstreams.PaperExample(true)
	shed, err := spinstreams.AnalyzeShedding(topo)
	if err != nil {
		t.Fatal(err)
	}
	if shed.SourceRate <= 0 {
		t.Error("shedding analysis empty")
	}

	// Latency estimate.
	est, err := spinstreams.EstimateLatency(topo, nil, spinstreams.MM1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if est.EndToEnd <= 0 {
		t.Error("latency estimate empty")
	}

	// AutoFuse.
	fuseTopo, _ := spinstreams.PaperExample(false)
	auto, err := spinstreams.AutoFuse(fuseTopo, spinstreams.AutoFuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.OperatorsAfter >= auto.OperatorsBefore {
		t.Error("autofuse did not coarsen the paper topology")
	}
}

func TestFacadeDistributedAndFiles(t *testing.T) {
	topo := spinstreams.NewTopology()
	src := topo.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 2e-3})
	sink := topo.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, sink, 1)

	cfg := spinstreams.DistributedConfig{Nodes: 2}
	cfg.Duration = 900 * time.Millisecond
	cfg.Warmup = 300 * time.Millisecond
	m, err := spinstreams.ExecuteDistributed(context.Background(), topo, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput < 300 || m.Throughput > 700 {
		t.Errorf("distributed throughput = %v, want ~500", m.Throughput)
	}

	path := filepath.Join(t.TempDir(), "t.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := spinstreams.WriteTopology(f, "t", topo); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := spinstreams.ReadTopologyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("file round trip lost operators")
	}
}

// TestFacadeOptimizerPipeline covers the pass-pipeline facade: one call
// runs analysis, fission and fusion with a rewrite trace, and Reoptimize
// turns a drift report from a live run into a delta plan.
func TestFacadeOptimizerPipeline(t *testing.T) {
	topo, _ := spinstreams.PaperExample(false)
	res, err := spinstreams.OptimizePipeline(topo, spinstreams.OptimizerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Topology().Len() >= topo.Len() {
		t.Error("pipeline did not fuse the paper example")
	}
	if res.Trace == nil || len(res.Trace.Passes) == 0 {
		t.Error("pipeline produced no rewrite trace")
	}
	if _, err := res.Trace.JSON(); err != nil {
		t.Errorf("trace JSON: %v", err)
	}

	reg := spinstreams.NewObsRegistry()
	if _, err := spinstreams.Execute(context.Background(), topo, nil, nil, spinstreams.RunConfig{
		Duration: 500 * time.Millisecond, Warmup: 125 * time.Millisecond, MailboxSize: 8, Obs: reg, Estimator: true,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := spinstreams.ComputeDrift(topo, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := spinstreams.Reoptimize(topo, rep, spinstreams.OptimizerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if delta.String() == "" {
		t.Error("delta plan renders empty")
	}
}
