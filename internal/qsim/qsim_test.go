package qsim

import (
	"math"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/plan"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/stats"
)

func pipeline(t *testing.T, times ...float64) *core.Topology {
	t.Helper()
	topo := core.NewTopology()
	var prev core.OpID
	for i, st := range times {
		kind := core.KindStateless
		switch i {
		case 0:
			kind = core.KindSource
		case len(times) - 1:
			kind = core.KindSink
		}
		id := topo.MustAddOperator(core.Operator{
			Name: "s" + string(rune('A'+i)), Kind: kind, ServiceTime: st,
		})
		if i > 0 {
			topo.MustConnect(prev, id, 1)
		}
		prev = id
	}
	return topo
}

func TestSimulatePipelineNoBottleneck(t *testing.T) {
	topo := pipeline(t, 0.010, 0.002, 0.001)
	res, err := SimulateTopology(topo, nil, Config{Seed: 1, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Source rate 100/s; downstream plenty fast: throughput ~100/s.
	if e := stats.RelErr(res.Throughput, 100); e > 0.05 {
		t.Errorf("throughput = %v, want ~100 (err %v)", res.Throughput, e)
	}
}

func TestSimulatePipelineBottleneck(t *testing.T) {
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	res, err := SimulateTopology(topo, nil, Config{Seed: 2, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Backpressure caps ingestion near the 250/s bottleneck rate.
	if e := stats.RelErr(res.Throughput, 250); e > 0.08 {
		t.Errorf("throughput = %v, want ~250 (err %v)", res.Throughput, e)
	}
	// The source must spend a large fraction of time blocked.
	src := res.Stations[0]
	if src.BlockedFrac < 0.4 {
		t.Errorf("source blocked %.2f of the time, want > 0.4", src.BlockedFrac)
	}
}

func TestSimulateDeterministicServiceMatchesModelTightly(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTopology(topo, nil, Config{Seed: 3, Horizon: 30, Service: Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(res.Throughput, a.Throughput()); e > 0.02 {
		t.Errorf("throughput = %v, predicted %v (err %v)", res.Throughput, a.Throughput(), e)
	}
	for op := 0; op < topo.Len(); op++ {
		if e := stats.RelErr(res.Departure[op], a.Delta[op]); e > 0.05 {
			t.Errorf("op %d departure = %v, predicted %v (err %v)", op, res.Departure[op], a.Delta[op], e)
		}
	}
}

func TestSimulatePaperTable2FusionDegradation(t *testing.T) {
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable2)
	fused, report, err := core.Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	before, err := SimulateTopology(topo, nil, Config{Seed: 4, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	after, err := SimulateTopology(fused, nil, Config{Seed: 4, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	// The model predicts ~1000 -> ~758; the simulation must reproduce the
	// degradation (paper measures 961 -> 753).
	if e := stats.RelErr(before.Throughput, report.ThroughputBefore); e > 0.08 {
		t.Errorf("before = %v, predicted %v", before.Throughput, report.ThroughputBefore)
	}
	if e := stats.RelErr(after.Throughput, report.ThroughputAfter); e > 0.08 {
		t.Errorf("after = %v, predicted %v", after.Throughput, report.ThroughputAfter)
	}
	if after.Throughput >= before.Throughput {
		t.Errorf("fusion did not degrade measured throughput: %v -> %v", before.Throughput, after.Throughput)
	}
}

func TestSimulateWithFission(t *testing.T) {
	topo := pipeline(t, 0.001, 0.0035, 0.0001)
	resBase, err := SimulateTopology(topo, nil, Config{Seed: 5, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resFis, err := SimulateTopology(topo, fis.Analysis.Replicas, Config{Seed: 5, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	if resFis.Throughput < resBase.Throughput*1.5 {
		t.Errorf("fission speedup too small: %v -> %v", resBase.Throughput, resFis.Throughput)
	}
	if e := stats.RelErr(resFis.Throughput, fis.Analysis.Throughput()); e > 0.08 {
		t.Errorf("fissioned throughput = %v, predicted %v (err %v)",
			resFis.Throughput, fis.Analysis.Throughput(), e)
	}
}

func TestSimulateSelectivity(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	fm := topo.MustAddOperator(core.Operator{
		Name: "fm", Kind: core.KindStateless, ServiceTime: 0.0001, OutputSelectivity: 3,
	})
	win := topo.MustAddOperator(core.Operator{
		Name: "win", Kind: core.KindStateful, ServiceTime: 0.0001, InputSelectivity: 10,
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.00005})
	topo.MustConnect(src, fm, 1)
	topo.MustConnect(fm, win, 1)
	topo.MustConnect(win, sink, 1)

	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTopology(topo, nil, Config{Seed: 6, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Flatmap triples the rate, window divides by 10: sink sees ~300/s.
	if e := stats.RelErr(res.Arrival[sink], a.Lambda[sink]); e > 0.05 {
		t.Errorf("sink arrival = %v, predicted %v", res.Arrival[sink], a.Lambda[sink])
	}
	if e := stats.RelErr(res.Departure[fm], a.Delta[fm]); e > 0.05 {
		t.Errorf("flatmap departure = %v, predicted %v", res.Departure[fm], a.Delta[fm])
	}
}

func TestSimulateDeterminism(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	r1, err := SimulateTopology(topo, nil, Config{Seed: 42, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateTopology(topo, nil, Config{Seed: 42, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Throughput != r2.Throughput || r1.Events != r2.Events {
		t.Fatalf("same seed diverged: %v/%v events %d/%d",
			r1.Throughput, r2.Throughput, r1.Events, r2.Events)
	}
}

func TestSimulateBufferSizeInsensitivity(t *testing.T) {
	// The steady-state model ignores buffer sizes; beyond tiny mailboxes
	// the measured throughput must be insensitive to capacity.
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	var prev float64
	for _, buf := range []int{16, 64, 256} {
		res, err := SimulateTopology(topo, nil, Config{Seed: 7, Horizon: 40, BufferSize: buf})
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && stats.RelErr(res.Throughput, prev) > 0.05 {
			t.Errorf("buffer %d: throughput %v differs from %v", buf, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestSimulateModelAccuracyOnTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation is slow")
	}
	bed, err := randtopo.Testbed(randtopo.Config{Seed: 11}, 10)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, 0, len(bed))
	for i, g := range bed {
		a, err := core.SteadyState(g.Topology)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		res, err := SimulateTopology(g.Topology, nil, Config{Seed: uint64(i), Horizon: 30})
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		errs = append(errs, stats.RelErr(res.Throughput, a.Throughput()))
	}
	sum := stats.Summarize(errs)
	// The paper reports <3% mean error; allow slack for the short horizon.
	if sum.Mean > 0.10 {
		t.Errorf("mean prediction error %v too high (errors %v)", sum.Mean, errs)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, Config{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := Simulate(&plan.Plan{}, Config{}); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestSimulateNonFiniteHorizon: a NaN or infinite horizon (or warmup)
// is an error, not an event loop that never reaches its end.
func TestSimulateNonFiniteHorizon(t *testing.T) {
	topo := pipeline(t, 1e-3, 1e-4)
	for _, cfg := range []Config{
		{Horizon: math.NaN()},
		{Horizon: math.Inf(1)},
		{Horizon: math.Inf(-1)},
		{Horizon: 10, Warmup: math.NaN()},
		{Horizon: 10, Warmup: math.Inf(1)},
	} {
		if _, err := SimulateTopology(topo, nil, cfg); err == nil {
			t.Errorf("horizon %v, warmup %v accepted", cfg.Horizon, cfg.Warmup)
		}
	}
}

func TestSimulateFlowConservation(t *testing.T) {
	// Measured source departure ~= total sink departure (Prop 3.5).
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	res, err := SimulateTopology(topo, nil, Config{Seed: 8, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	sinkRate := 0.0
	for _, s := range topo.Sinks() {
		sinkRate += res.Departure[s]
	}
	if math.Abs(sinkRate-res.Throughput) > 0.05*res.Throughput {
		t.Errorf("sink rate %v vs source rate %v", sinkRate, res.Throughput)
	}
}

// TestSimulateLatencyMatchesMM1: the simulator's measured mailbox waiting
// times should track the M/M/1 prediction at moderate utilization (the
// simulator's default service law is exponential).
func TestSimulateLatencyMatchesMM1(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.002})
	mid := topo.MustAddOperator(core.Operator{Name: "mid", Kind: core.KindStateless, ServiceTime: 0.0012}) // rho 0.6
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0002})
	topo.MustConnect(src, mid, 1)
	topo.MustConnect(mid, sink, 1)

	est, err := core.EstimateLatency(topo, nil, core.MM1, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTopology(topo, nil, Config{Seed: 20, Horizon: 120})
	if err != nil {
		t.Fatal(err)
	}
	// The source emits deterministically-spaced items under exponential
	// service, so arrivals at mid are not exactly Poisson; allow a loose
	// tolerance — the point is the order of magnitude and the load shape.
	if res.Wait[mid] <= 0 {
		t.Fatalf("measured wait = %v, want > 0", res.Wait[mid])
	}
	if e := stats.RelErr(res.Wait[mid], est.Wait[mid]); e > 0.5 {
		t.Errorf("mid wait measured %v vs predicted %v (err %.2f)", res.Wait[mid], est.Wait[mid], e)
	}
	// The lightly-loaded sink must wait far less than the loaded stage.
	if res.Wait[sink] >= res.Wait[mid] {
		t.Errorf("sink wait %v >= mid wait %v", res.Wait[sink], res.Wait[mid])
	}
}

// TestSimulateLatencyGrowsWithBuffers: with a saturated bottleneck, bigger
// mailboxes do not raise throughput but do raise queueing delay — the
// latency cost of backpressure headroom.
func TestSimulateLatencyGrowsWithBuffers(t *testing.T) {
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	var prevWait float64
	for _, buf := range []int{4, 32, 256} {
		res, err := SimulateTopology(topo, nil, Config{Seed: 21, Horizon: 40, BufferSize: buf})
		if err != nil {
			t.Fatal(err)
		}
		if res.Wait[1] < prevWait {
			t.Errorf("buffer %d: wait %v below smaller buffer's %v", buf, res.Wait[1], prevWait)
		}
		prevWait = res.Wait[1]
	}
	if prevWait < 0.004*100 {
		t.Errorf("bottleneck wait %v suspiciously small for 256-slot mailbox", prevWait)
	}
}

// TestSimulateEdgeProbabilities: measured routing frequencies converge to
// the configured edge probabilities — the data-exchange profiling the
// paper's workflow relies on.
func TestSimulateEdgeProbabilities(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	res, err := SimulateTopology(topo, nil, Config{Seed: 30, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < topo.Len(); op++ {
		want := topo.Out(core.OpID(op))
		if len(want) == 0 {
			continue
		}
		got := res.EdgeProbs[op]
		if len(got) != len(want) {
			t.Fatalf("op %d: %d measured edges, want %d", op, len(got), len(want))
		}
		for e := range want {
			if math.Abs(got[e]-want[e].Prob) > 0.03 {
				t.Errorf("op %d edge %d: measured prob %v, configured %v", op, e, got[e], want[e].Prob)
			}
		}
	}
}

// TestSimulateDeterministicRandomTopologies: with deterministic service
// times the simulator must track the fluid model tightly on random
// topologies (the stochastic error in Fig. 7/8 comes from the exponential
// service variance, not from the simulator itself).
func TestSimulateDeterministicRandomTopologies(t *testing.T) {
	bed, err := randtopo.Testbed(randtopo.Config{Seed: 77}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range bed {
		a, err := core.SteadyState(g.Topology)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		res, err := SimulateTopology(g.Topology, nil, Config{
			Seed: uint64(i), Horizon: 90, Service: Deterministic,
		})
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		// Service is deterministic but routing stays probabilistic, so
		// branchy topologies keep some sampling variance.
		if e := stats.RelErr(res.Throughput, a.Throughput()); e > 0.08 {
			t.Errorf("entry %d: deterministic sim %v vs predicted %v (err %.3f)",
				i, res.Throughput, a.Throughput(), e)
		}
	}
}

// TestSimulateWaitPercentiles: for an M/M/1-like stage the waiting-time
// distribution is exponential-tailed; the measured percentiles must obey
// the textbook relations (P95 > P50, mean between them) and roughly match
// the conditional-wait formula P95 ~ Wq * ln(20*rho)/rho scale.
func TestSimulateWaitPercentiles(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.002})
	mid := topo.MustAddOperator(core.Operator{Name: "mid", Kind: core.KindStateless, ServiceTime: 0.0012})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0002})
	topo.MustConnect(src, mid, 1)
	topo.MustConnect(mid, sink, 1)

	res, err := SimulateTopology(topo, nil, Config{Seed: 31, Horizon: 120})
	if err != nil {
		t.Fatal(err)
	}
	var midStats *StationStats
	for i := range res.Stations {
		if res.Stations[i].Name == "mid" {
			midStats = &res.Stations[i]
		}
	}
	if midStats == nil {
		t.Fatal("mid station missing")
	}
	if midStats.WaitP95 <= midStats.WaitP50 {
		t.Errorf("P95 %v <= P50 %v", midStats.WaitP95, midStats.WaitP50)
	}
	if midStats.MeanWait <= 0 {
		t.Fatal("mean wait not measured")
	}
	// Exponential-ish tail: P95 is several times the median but bounded.
	ratio := midStats.WaitP95 / (midStats.MeanWait + 1e-12)
	if ratio < 1.2 || ratio > 10 {
		t.Errorf("P95/mean = %v, implausible for a queueing wait", ratio)
	}
}

// TestSimulateShedding: under load-shedding semantics the source never
// throttles, saturated operators discard the excess, and the measured
// drop rates match the shedding steady-state model.
func TestSimulateShedding(t *testing.T) {
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	model, err := core.SteadyStateShedding(topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTopology(topo, nil, Config{Seed: 33, Horizon: 60, Shedding: true})
	if err != nil {
		t.Fatal(err)
	}
	// The source runs at full speed (~1000/s, no backpressure).
	if e := stats.RelErr(res.Throughput, model.SourceRate); e > 0.05 {
		t.Errorf("source rate = %v, model %v", res.Throughput, model.SourceRate)
	}
	// The bottleneck drops ~750/s.
	if e := stats.RelErr(res.Dropped[1], model.Dropped[1]); e > 0.10 {
		t.Errorf("drop rate = %v, model %v", res.Dropped[1], model.Dropped[1])
	}
	// The sink still receives the bottleneck-limited 250/s.
	if e := stats.RelErr(res.Departure[2], model.SinkRate); e > 0.10 {
		t.Errorf("sink rate = %v, model %v", res.Departure[2], model.SinkRate)
	}
	// No station ever blocks under shedding.
	for _, st := range res.Stations {
		if st.BlockedFrac > 0.001 {
			t.Errorf("station %s blocked %.3f under shedding", st.Name, st.BlockedFrac)
		}
	}
}

// TestSimulateBackpressureNeverDrops: the default semantics must not
// discard anything.
func TestSimulateBackpressureNeverDrops(t *testing.T) {
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	res, err := SimulateTopology(topo, nil, Config{Seed: 34, Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	for op, d := range res.Dropped {
		if d != 0 {
			t.Errorf("op %d dropped %v under backpressure", op, d)
		}
	}
}

// TestSimulateCyclicRetryLoop: the cyclic steady-state model's traffic
// equations match the simulated feedback topology (unsaturated, so
// blocking cannot deadlock the loop).
func TestSimulateCyclicRetryLoop(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	work := topo.MustAddOperator(core.Operator{Name: "work", Kind: core.KindStateful, ServiceTime: 0.0004})
	retry := topo.MustAddOperator(core.Operator{Name: "retry", Kind: core.KindStateful, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, work, 1)
	topo.MustConnect(work, sink, 0.7)
	topo.MustConnect(work, retry, 0.3)
	topo.MustConnect(retry, work, 1)

	model, err := core.SteadyStateCyclic(topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{AllowCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, Config{Seed: 35, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(res.Arrival[work], model.Lambda[work]); e > 0.05 {
		t.Errorf("work arrival = %v, model %v (err %.3f)", res.Arrival[work], model.Lambda[work], e)
	}
	if e := stats.RelErr(res.Departure[sink], model.Delta[sink]); e > 0.05 {
		t.Errorf("sink rate = %v, model %v", res.Departure[sink], model.Delta[sink])
	}
}

// TestSimulateCyclicSaturatedBlockingFailsGracefully: a saturated feedback
// loop under blocking semantics deadlocks in a real SPS (which is why
// systems avoid cyclic backpressure); the simulator must detect the stall
// and return an error instead of spinning or lying.
func TestSimulateCyclicSaturatedBlockingFailsGracefully(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0005})
	work := topo.MustAddOperator(core.Operator{Name: "work", Kind: core.KindStateful, ServiceTime: 0.002})
	retry := topo.MustAddOperator(core.Operator{Name: "retry", Kind: core.KindStateful, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, work, 1)
	topo.MustConnect(work, sink, 0.2)
	topo.MustConnect(work, retry, 0.8)
	topo.MustConnect(retry, work, 1)

	p, err := plan.Build(topo, plan.Options{AllowCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny mailboxes make the cyclic blocking deadlock certain.
	_, err = Simulate(p, Config{Seed: 36, Horizon: 40, BufferSize: 2})
	if err == nil {
		t.Fatal("saturated blocking cycle did not surface an error")
	}
	// Shedding semantics break the deadlock.
	res, err := Simulate(p, Config{Seed: 36, Horizon: 40, BufferSize: 2, Shedding: true})
	if err != nil {
		t.Fatalf("shedding on the same cycle failed: %v", err)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput under shedding")
	}
}
