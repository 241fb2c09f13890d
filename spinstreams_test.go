package spinstreams_test

import (
	"bytes"
	"context"
	"fmt"
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
	res, err := spinstreams.Optimize(topo, "fission", spinstreams.OptimizerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas()[hot] != 4 {
		t.Fatalf("replicas = %d, want 4", res.Replicas()[hot])
	}
	if res.Baseline.Throughput() != a.Throughput() || res.Throughput() < 999 {
		t.Fatalf("optimize predicted %v -> %v, want 250 -> 1000", res.Baseline.Throughput(), res.Throughput())
	}
	sim, err := spinstreams.Simulate(topo, res.Replicas(), spinstreams.SimConfig{Horizon: 20})
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
	if err := spinstreams.WriteTopology(&buf, "fused", fused, nil); err != nil {
		t.Fatal(err)
	}
	back, replicas, err := spinstreams.ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != fused.Fingerprint() || len(replicas) != fused.Len() {
		t.Fatal("xml round trip changed the deployment")
	}
}

func TestFacadeExecute(t *testing.T) {
	topo := spinstreams.NewTopology()
	src := topo.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	sink := topo.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, sink, 1)
	m, err := spinstreams.Run(context.Background(), topo, nil, nil, spinstreams.RunConfig{
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
	m, err := spinstreams.Run(context.Background(), topo, nil, nil, spinstreams.RunConfig{
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

// TestFacadeExtensions drives the pipeline's extensions through
// Optimize's pass list: the cyclic fixed-point analysis, automatic
// fusion and the latency estimate.
func TestFacadeExtensions(t *testing.T) {
	cyc := spinstreams.NewTopology()
	src := cyc.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	work := cyc.MustAddOperator(spinstreams.Operator{Name: "work", Kind: spinstreams.KindStateful, ServiceTime: 5e-4})
	retry := cyc.MustAddOperator(spinstreams.Operator{Name: "retry", Kind: spinstreams.KindStateful, ServiceTime: 1e-4})
	sink := cyc.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	cyc.MustConnect(src, work, 1)
	cyc.MustConnect(work, sink, 0.8)
	cyc.MustConnect(work, retry, 0.2)
	cyc.MustConnect(retry, work, 1)
	res, err := spinstreams.Optimize(cyc, "fission", spinstreams.OptimizerOptions{AllowCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cyclic || res.Baseline.Throughput() < 999 {
		t.Errorf("cyclic analysis: cyclic %v, throughput %v", res.Cyclic, res.Baseline.Throughput())
	}
	if _, err := spinstreams.Optimize(cyc, "", spinstreams.OptimizerOptions{}); err == nil {
		t.Error("cyclic topology optimized without AllowCycles")
	}

	topo, _ := spinstreams.PaperExample(false)
	res, err = spinstreams.Optimize(topo, "fusion,latency", spinstreams.OptimizerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fusion == nil || res.Fusion.OperatorsAfter >= res.Fusion.OperatorsBefore {
		t.Error("fusion did not coarsen the paper topology")
	}
	if res.Latency == nil || res.Latency.EndToEnd <= 0 {
		t.Error("latency estimate empty")
	}
	if _, err := spinstreams.Optimize(topo, "fusion,fuse=op3+op4", spinstreams.OptimizerOptions{}); err == nil {
		t.Error("two fusion-slot passes accepted")
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
	m, err := spinstreams.RunDistributed(context.Background(), topo, nil, nil, cfg)
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
	if err := spinstreams.WriteTopology(f, "t", topo, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, _, err := spinstreams.ReadTopologyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("file round trip lost operators")
	}
}

// TestFacadeOptimizerPipeline covers the pass-pipeline facade: one call
// runs analysis, fission and fusion with a rewrite trace, and a live run
// with the estimator yields a drift report re-analyzed on measured
// profiles.
func TestFacadeOptimizerPipeline(t *testing.T) {
	topo, _ := spinstreams.PaperExample(false)
	res, err := spinstreams.Optimize(topo, "fission,fusion", spinstreams.OptimizerOptions{})
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
	if _, err := spinstreams.Run(context.Background(), topo, nil, nil, spinstreams.RunConfig{
		Duration: 500 * time.Millisecond, Warmup: 125 * time.Millisecond, MailboxSize: 8, Obs: reg, Estimator: true,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := spinstreams.ComputeDrift(topo, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredProfiles == nil || rep.String() == "" {
		t.Error("drift report carries no measured profiles")
	}
}

// TestFacadeReadersKeepDegrees: the facade readers return the degrees a
// written deployment records, from a reader and from a file.
func TestFacadeReadersKeepDegrees(t *testing.T) {
	topo := spinstreams.NewTopology()
	src := topo.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
	hot := topo.MustAddOperator(spinstreams.Operator{Name: "hot", Kind: spinstreams.KindStateless, ServiceTime: 4e-3})
	sink := topo.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, hot, 1)
	topo.MustConnect(hot, sink, 1)
	res, err := spinstreams.Optimize(topo, "fission", spinstreams.OptimizerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spinstreams.WriteTopology(&buf, "opt", res.Final.Topology(), res.Replicas()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "opt.xml")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, fromReader, err := spinstreams.ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, fromFile, err := spinstreams.ReadTopologyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]int{"ReadTopology": fromReader, "ReadTopologyFile": fromFile} {
		if fmt.Sprint(got) != "[1 4 1]" {
			t.Errorf("%s degrees = %v, want [1 4 1]", name, got)
		}
	}
}
