package runtime

import (
	"context"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

func TestDistributedPipelineMatchesModel(t *testing.T) {
	// Source at 200/s split across 2 nodes: throughput must match the
	// local prediction despite crossing TCP.
	topo := pipeline(t, 0.005, 0.002, 0.001)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistributedConfig{Config: shortCfg(40), Nodes: 2}
	// Generous run length and tolerance: with one host CPU, concurrent
	// test packages can delay the TCP reader goroutines.
	cfg.Duration = 3 * time.Second
	cfg.Warmup = 1500 * time.Millisecond
	m, err := RunDistributed(context.Background(), p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, a.Throughput()); e > 0.25 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, a.Throughput(), e)
	}
}

func TestDistributedBackpressureOverTCP(t *testing.T) {
	// The bottleneck is on a remote node: backpressure must propagate
	// back through the TCP stream and throttle the source.
	topo := pipeline(t, 0.002, 0.010, 0.001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Socket and gob buffering add a few hundred items of effective
	// mailbox capacity on cross-node edges; the warmup must outlast the
	// fill transient before the steady state is measured.
	cfg := DistributedConfig{Config: shortCfg(41), Nodes: 3}
	cfg.Duration = 5 * time.Second
	cfg.Warmup = 3500 * time.Millisecond
	cfg.MailboxSize = 8
	m, err := RunDistributed(context.Background(), p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bottleneck rate 100/s; allow slack for residual buffering.
	if e := stats.RelErr(m.Throughput, 100); e > 0.25 {
		t.Errorf("throughput = %v, want ~100 (err %.3f)", m.Throughput, e)
	}
}

func TestDistributedWithReplicasAcrossNodes(t *testing.T) {
	topo := pipeline(t, 0.002, 0.008, 0.001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{Replicas: fis.Analysis.Replicas})
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunDistributed(context.Background(), p, nil, DistributedConfig{
		Config: shortCfg(42),
		Nodes:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, fis.Analysis.Throughput()); e > 0.25 {
		t.Errorf("throughput = %v, predicted %v", m.Throughput, fis.Analysis.Throughput())
	}
}

func TestDistributedSingleNodeEqualsLocal(t *testing.T) {
	// One node means no cross-node edges at all; behaves like Run.
	topo := pipeline(t, 0.002, 0.001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunDistributed(context.Background(), p, nil, DistributedConfig{
		Config: shortCfg(43),
		Nodes:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, 500); e > 0.15 {
		t.Errorf("throughput = %v, want ~500", m.Throughput)
	}
}

func TestDistributedValidation(t *testing.T) {
	topo := pipeline(t, 0.001, 0.001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(context.Background(), nil, nil, DistributedConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := RunDistributed(context.Background(), p, nil, DistributedConfig{
		Config: shortCfg(44), Assignment: []int{0},
	}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := RunDistributed(context.Background(), p, nil, DistributedConfig{
		Config: shortCfg(44), Nodes: 2, Assignment: []int{0, 5},
	}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestAssignByOperator(t *testing.T) {
	topo := pipeline(t, 0.001, 0.004, 0.001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{Replicas: fis.Analysis.Replicas})
	if err != nil {
		t.Fatal(err)
	}
	asg := AssignByOperator(p, 2)
	if len(asg) != len(p.Stations) {
		t.Fatalf("assignment length %d, want %d", len(asg), len(p.Stations))
	}
	// All stations of a logical operator share a node.
	byOp := map[core.OpID]int{}
	for i, st := range p.Stations {
		if prev, ok := byOp[st.Op]; ok && prev != asg[i] {
			t.Errorf("operator %d split across nodes", st.Op)
		}
		byOp[st.Op] = asg[i]
	}
}

func TestDistributedBatchedPipeline(t *testing.T) {
	// The batched transport frames whole micro-batches per TCP write;
	// throughput must still match the model and network backpressure must
	// survive (run under -race in CI to exercise the concurrent batch
	// path).
	topo := pipeline(t, 0.005, 0.002, 0.001)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistributedConfig{Config: shortCfg(42), Nodes: 2}
	cfg.Mailbox = mailbox.Batched
	cfg.Duration = 3 * time.Second
	cfg.Warmup = 1500 * time.Millisecond
	m, err := RunDistributed(context.Background(), p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, a.Throughput()); e > 0.25 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, a.Throughput(), e)
	}
}

func TestDistributedBatchedKeepsUp(t *testing.T) {
	// Unpadded, a cross-node frame of Batch tuples must move at least as
	// well as single-tuple frames. With the socket buffers pinned at 4 KiB
	// a 32-tuple frame did not fit and every frame waited out a
	// delayed-ACK stall: ~500 tuples/s against ~90 000, so a floor of a
	// tenth of the per-tuple rate is far from noise.
	topo := pipeline(t, 0.0001, 0.0001, 0.0001, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tps := map[mailbox.Mode]float64{}
	for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched} {
		cfg := DistributedConfig{Config: shortCfg(43), Nodes: 2}
		cfg.NoServicePadding = true
		cfg.Mailbox = mode
		cfg.Duration, cfg.Warmup = time.Second, 300*time.Millisecond
		m, err := RunDistributed(context.Background(), p, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tps[mode] = m.Throughput
	}
	if tps[mailbox.Batched] < 0.1*tps[mailbox.PerTuple] {
		t.Errorf("batched moves %.0f tuples/s over loopback, per-tuple %.0f: frames are stalling",
			tps[mailbox.Batched], tps[mailbox.PerTuple])
	}
}
