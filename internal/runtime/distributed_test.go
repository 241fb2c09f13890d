package runtime

import (
	"context"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
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
	// A cross-node edge holds up to a queue and a credit window of
	// tuples on top of the target mailbox; the warmup must outlast the
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
	if _, err := RunDistributed(context.Background(), p, nil, DistributedConfig{
		Config: shortCfg(44), SendDeadline: -time.Second,
	}); err == nil {
		t.Error("negative SendDeadline accepted")
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
	// With batched inboxes the frame readers deliver into micro-batches
	// alongside the stations; throughput must still match the model and
	// network backpressure must survive (run under -race in CI to
	// exercise the concurrent batch path).
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
	// Batch and Linger do not select a wire behaviour: unpadded, the
	// batched policy must move tuples across nodes at least as well as the
	// per-tuple one (once it did not: ~500 tuples/s against ~90 000, so a
	// floor of a tenth of the per-tuple rate is far from noise).
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

// stampOp holds each tuple for pause, then records when its sequence
// number passed; latency is read against that at the sink.
type stampOp struct {
	at    *sync.Map
	pause time.Duration
}

func (stampOp) Name() string                { return "stamp" }
func (stampOp) Meta() operators.Meta        { return operators.Meta{} }
func (s stampOp) Clone() operators.Operator { return s }
func (s stampOp) Process(in operators.Tuple, emit operators.Emit) {
	time.Sleep(s.pause)
	s.at.Store(in.Seq, time.Now())
	emit(in)
}

// watchEdges samples the registry's edges until stop closes and returns
// the largest in-flight figure seen per run.
func watchEdges(reg *obs.Registry, stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		var worst uint64
		for {
			for _, e := range reg.Snapshot().Edges {
				worst = max(worst, e.InFlight)
			}
			select {
			case <-stop:
				out <- worst
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return out
}

func TestDistributedInflightBounded(t *testing.T) {
	// Credit, not socket buffers, must bound what is unacknowledged on
	// every edge to the window (two target mailboxes), whether the edge
	// waits for its target or for the wire.
	topo := pipeline(t, 0.0005, 0.0005, 0.005)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const mailboxSize = 16
	run := func(t *testing.T, cfg DistributedConfig) (*Metrics, *obs.Snapshot) {
		t.Helper()
		reg := obs.New()
		cfg.MailboxSize = mailboxSize
		cfg.Obs = reg
		stop := make(chan struct{})
		worst := watchEdges(reg, stop)
		m, err := RunDistributed(context.Background(), p, nil, cfg)
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
		if w, window := <-worst, uint64(edgeWindowMailboxes*mailboxSize); w > window {
			t.Errorf("sampled %d tuples in flight on an edge, window %d", w, window)
		}
		checkConservation(t, m)
		return m, reg.Snapshot()
	}
	t.Run("slow-sink", func(t *testing.T) {
		// The sink on the far side of two cross-node edges is 10x slower
		// than the source, which must throttle to the sink's rate.
		cfg := DistributedConfig{Config: shortCfg(45), Nodes: 2}
		cfg.Duration, cfg.Warmup = 2*time.Second, time.Second
		m, s := run(t, cfg)
		if e := stats.RelErr(m.Throughput, 200); e > 0.25 {
			t.Errorf("throughput = %v, want ~200: the source is not throttled to the sink (err %.3f)", m.Throughput, e)
		}
		var stalls uint64
		for _, e := range s.Edges {
			stalls += e.CreditStalls
		}
		if stalls == 0 {
			t.Error("no edge ever stalled on credit, yet the sink is 10x slower than the source")
		}
	})
	t.Run("wire-bound", func(t *testing.T) {
		// Unpadded, the source outruns its edge's writer, so the edge is
		// bound by the wire: its frames carry what the window holds
		// beyond one target mailbox.
		cfg := DistributedConfig{Config: shortCfg(47), Nodes: 2}
		cfg.NoServicePadding = true
		cfg.Duration, cfg.Warmup = 600*time.Millisecond, 200*time.Millisecond
		_, s := run(t, cfg)
		for _, e := range s.Edges {
			if e.From == 0 && (e.Frames == 0 || e.Wrote <= mailboxSize*e.Frames) {
				t.Errorf("edge %d->%d: %d tuples in %d frames, want more than %d per frame", e.From, e.To, e.Wrote, e.Frames, mailboxSize)
			}
		}
	})
}

func TestDistributedIdleEdgeSendsImmediately(t *testing.T) {
	// The middle stage releases a tuple every millisecond at most (the
	// runtime's own pacer catches up on sleep overshoot with back-to-back
	// tuples, which a writer rightly puts in one frame; Batch 1 so the
	// station delivers each output as it is produced, not a window's worth
	// at a time), so its edge to the sink is idle between tuples: each
	// frame must carry one tuple, at once. Linger is set far above the
	// latency bound, so any linger term in the path would show.
	topo := pipeline(t, 0.001, 0.001, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var stamps sync.Map
	var mu sync.Mutex
	var lat []float64
	reg := obs.New()
	cfg := DistributedConfig{Config: shortCfg(46), Nodes: 2}
	cfg.NoServicePadding = true
	cfg.Batch = 1
	cfg.Linger = 50 * time.Millisecond
	cfg.Obs = reg
	cfg.OnSink = func(_ core.OpID, tp operators.Tuple) {
		if at, ok := stamps.Load(tp.Seq); ok {
			d := time.Since(at.(time.Time)).Seconds()
			mu.Lock()
			lat = append(lat, d)
			mu.Unlock()
		}
	}
	binding := &Binding{Ops: map[core.OpID]operators.Operator{1: stampOp{at: &stamps, pause: time.Millisecond}}}
	if _, err := RunDistributed(context.Background(), p, binding, cfg); err != nil {
		t.Fatal(err)
	}
	for _, e := range reg.Snapshot().Edges {
		if e.From != 1 {
			continue // the source's edge is saturated, not idle
		}
		// A scheduling hiccup of a millisecond may let a second tuple
		// queue behind the first now and then; a batching writer would
		// double every frame.
		if e.Frames == 0 || float64(e.Wrote) > 1.02*float64(e.Frames) {
			t.Errorf("edge %d->%d: %d tuples in %d frames, want one per frame", e.From, e.To, e.Wrote, e.Frames)
		}
		if e.CreditStalls != 0 {
			t.Errorf("edge %d->%d stalled on credit %d times while idle", e.From, e.To, e.CreditStalls)
		}
	}
	if len(lat) < 500 {
		t.Fatalf("only %d latency samples", len(lat))
	}
	sort.Float64s(lat)
	t.Logf("stamp->sink over %d tuples: p50 %.3f ms, p99 %.3f ms", len(lat), 1e3*lat[len(lat)/2], 1e3*lat[len(lat)*99/100])
	if p50 := lat[len(lat)/2]; p50 > 0.010 {
		t.Errorf("stamp->sink p50 = %.2f ms across one idle TCP edge, linger is %v", 1e3*p50, cfg.Linger)
	}
}

func TestDistributedNoDuplicatesUnderPartialWrites(t *testing.T) {
	// Unpadded, frames coalesce many tuples; every 25th write is severed
	// after leaking more bytes than one encoded tuple takes. No part of a
	// severed frame may be delivered, or its retry would deliver it twice.
	topo := pipeline(t, 0.0001, 0.0001, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 47, ResetEveryWrites: 25, PartialWriteBytes: 3 * tupleHeaderLen})
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	dups := 0
	reg := obs.New()
	cfg := DistributedConfig{Config: shortCfg(47), Nodes: 2, RetryBackoff: 100 * time.Microsecond}
	cfg.NoServicePadding = true
	cfg.Faults, cfg.Obs = inj, reg
	cfg.Duration, cfg.Warmup = 500*time.Millisecond, 100*time.Millisecond
	cfg.OnSink = func(_ core.OpID, tp operators.Tuple) {
		mu.Lock()
		if seen[tp.Seq] {
			dups++
		}
		seen[tp.Seq] = true
		mu.Unlock()
	}
	m, err := RunDistributed(context.Background(), p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dups > 0 {
		t.Errorf("%d of %d sequence numbers reached the sink twice", dups, len(seen))
	}
	checkConservation(t, m)
	checkRegistryConservation(t, m, reg)
	if inj.Counts().ConnResets == 0 {
		t.Fatal("no connection resets fired")
	}
	var wrote, frames uint64
	for _, e := range reg.Snapshot().Edges {
		wrote, frames = wrote+e.Wrote, frames+e.Frames
	}
	if wrote < 2*frames {
		t.Errorf("%d tuples in %d frames: frames did not coalesce, the severed writes were not multi-tuple", wrote, frames)
	}
}

func TestDistributedLeavesNoGoroutines(t *testing.T) {
	// Every accept loop, writer and frame reader — including the ones
	// redials replaced — must be gone when RunDistributed returns.
	topo := pipeline(t, 0.0005, 0.0002, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := goruntime.NumGoroutine()
	for _, every := range []int{0, 20} {
		cfg := DistributedConfig{Config: shortCfg(48), Nodes: 3, RetryBackoff: time.Millisecond}
		cfg.Duration, cfg.Warmup = 400*time.Millisecond, 100*time.Millisecond
		inj := faultinject.New(faultinject.Config{Seed: 48, ResetEveryWrites: every, PartialWriteBytes: 5})
		cfg.Faults = inj
		if _, err := RunDistributed(context.Background(), p, nil, cfg); err != nil {
			t.Fatal(err)
		}
		if every > 0 && inj.Counts().ConnResets == 0 {
			t.Fatal("no connection resets fired")
		}
		// A goroutine that has called Done may still be returning.
		deadline := time.Now().Add(2 * time.Second)
		for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := goruntime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("reset every %d writes: %d goroutines, %d before the run\n%s",
				every, n, base, buf[:goruntime.Stack(buf, true)])
		}
	}
}

// TestDistributedConnectFailureLeavesNoGoroutines fails the very first
// handshake write. The stations are deployed before the connections are
// opened, so the failed connect must stop them as well as the transport:
// RunDistributed returns the dial error and leaves no goroutine behind.
func TestDistributedConnectFailureLeavesNoGoroutines(t *testing.T) {
	topo := pipeline(t, 0.0005, 0.0002, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := goruntime.NumGoroutine()
	cfg := DistributedConfig{Config: shortCfg(49), Nodes: 3}
	cfg.Faults = faultinject.New(faultinject.Config{Seed: 49, ResetEveryWrites: 1})
	_, err = RunDistributed(context.Background(), p, nil, cfg)
	if err == nil || !strings.Contains(err.Error(), "dial edge") {
		t.Fatalf("RunDistributed = %v, want the dial error", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the failed connect, %d before\n%s", n, base, buf[:goruntime.Stack(buf, true)])
	}
}
