package runtime

import (
	"context"
	"math"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
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

func shortCfg(seed uint64) Config {
	return Config{
		Seed:     seed,
		Duration: 1500 * time.Millisecond,
		Warmup:   500 * time.Millisecond,
	}
}

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

// dataplanes is every knob setting the one station loop is held to: tuple
// is per-tuple delivery (Batch 1), batch and auto (the zero value) are
// the two names of the default window policy, and small is the shape the
// live experiments deploy — an 8-tuple
// mailbox under the default 32-tuple window, so no window ever fills.
var dataplanes = []struct {
	name string
	set  func(*Config)
}{
	{"tuple", func(c *Config) { c.Batch = 1 }},
	{"batch", func(c *Config) { c.Mailbox = mailbox.Batched }},
	{"auto", func(*Config) {}},
	{"small", func(c *Config) { c.MailboxSize, c.Batch = 8, 32 }},
}

func TestRunThroughputMatchesModel(t *testing.T) {
	// Capacity is accounted in tuples under every knob, so BAS blocking
	// — and with it the steady state — must come out the same under each.
	cases := []struct {
		name  string
		times []float64
		want  float64
	}{
		// Source at 200/s, stages faster: the source rate is the throughput.
		{"source-bound", []float64{0.005, 0.002, 0.001}, 200},
		// Middle stage at 100/s throttles the 500/s source via blocking sends.
		{"backpressure", []float64{0.002, 0.010, 0.001}, 100},
	}
	for ci, c := range cases {
		topo := pipeline(t, c.times...)
		a, err := core.SteadyState(topo)
		if err != nil {
			t.Fatal(err)
		}
		if e := stats.RelErr(a.Throughput(), c.want); e > 1e-9 {
			t.Fatalf("%s: model predicts %v, want %v", c.name, a.Throughput(), c.want)
		}
		for _, dp := range dataplanes {
			cfg := shortCfg(uint64(1 + ci))
			dp.set(&cfg)
			t.Run(c.name+"/"+dp.name, func(t *testing.T) {
				t.Parallel()
				m, err := RunTopology(context.Background(), topo, nil, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if e := stats.RelErr(m.Throughput, c.want); e > 0.15 {
					t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, c.want, e)
				}
			})
		}
	}
}

func TestRunFissionSpeedup(t *testing.T) {
	topo := pipeline(t, 0.002, 0.008, 0.001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunTopology(context.Background(), topo, nil, nil, shortCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, shortCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Throughput < base.Throughput*1.5 {
		t.Errorf("fission speedup too small: %v -> %v", base.Throughput, opt.Throughput)
	}
	tol := 0.2
	if raceEnabled {
		tol = 0.4 // the race detector slows pacing by 5-20x
	}
	if e := stats.RelErr(opt.Throughput, fis.Analysis.Throughput()); e > tol {
		t.Errorf("optimized throughput = %v, predicted %v", opt.Throughput, fis.Analysis.Throughput())
	}
}

func TestRunFunctionalOperators(t *testing.T) {
	// Without padding, real operators transform data end to end: a scale
	// stage doubles the first field before the sink observes it.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0005})
	sc := topo.MustAddOperator(core.Operator{Name: "scale", Kind: core.KindStateless, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, sc, 1)
	topo.MustConnect(sc, sink, 1)

	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		sc: operators.MustBuild(operators.Spec{Impl: "scale", Param: 2}),
	}}
	var mu sync.Mutex
	var seen []operators.Tuple
	cfg := shortCfg(4)
	cfg.NoServicePadding = true
	cfg.Duration = 600 * time.Millisecond
	cfg.Warmup = 100 * time.Millisecond
	cfg.OnSink = func(op core.OpID, tp operators.Tuple) {
		mu.Lock()
		if len(seen) < 100 {
			seen = append(seen, tp)
		}
		mu.Unlock()
	}
	if _, err := RunTopology(context.Background(), topo, nil, binding, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("sink observed no tuples")
	}
	for _, tp := range seen {
		if tp.Field(0) < 0 || tp.Field(0) >= 2 {
			t.Fatalf("scaled field = %v, want in [0, 2)", tp.Field(0))
		}
	}
}

func TestRunKeyedFission(t *testing.T) {
	freq := make([]float64, 32)
	for i := range freq {
		freq[i] = 1.0 / 32
	}
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.002})
	ps := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.005,
		Keys: &core.KeyDistribution{Freq: freq},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0005})
	topo.MustConnect(src, ps, 1)
	topo.MustConnect(ps, sink, 1)

	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fis.Analysis.Replicas[ps] < 2 {
		t.Fatalf("replicas = %d, want >= 2", fis.Analysis.Replicas[ps])
	}
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, shortCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, fis.Analysis.Throughput()); e > 0.25 {
		t.Errorf("throughput = %v, predicted %v", m.Throughput, fis.Analysis.Throughput())
	}
}

func TestRunMetaOperatorPaperExample(t *testing.T) {
	// Execute the Table 1 fusion live: the meta-operator actor applies
	// the member functions along the item's path (Algorithm 4) padded to
	// their profiled service times; throughput must stay ~1000/s and the
	// fused topology must not lose items.
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	fused, report, err := core.Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	protos := map[core.OpID]operators.Operator{}
	for _, m := range sub {
		protos[m] = operators.MustBuild(operators.Spec{Impl: "identity"})
	}
	meta, err := NewMetaOperator(topo, report, protos)
	if err != nil {
		t.Fatal(err)
	}
	binding := &Binding{Meta: map[core.OpID]*MetaOperator{report.FusedID: meta}}
	m, err := RunTopology(context.Background(), fused, nil, binding, shortCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, report.ThroughputAfter); e > 0.2 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, report.ThroughputAfter, e)
	}
	// Flow conservation: the sink's arrival rate tracks the source rate.
	sinkID, _ := fused.Lookup("op6")
	if e := stats.RelErr(m.Arrival[sinkID], m.Throughput); e > 0.1 {
		t.Errorf("sink arrival %v vs throughput %v", m.Arrival[sinkID], m.Throughput)
	}
}

func TestNewMetaOperatorValidation(t *testing.T) {
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	_, report, err := core.Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMetaOperator(topo, nil, nil); err == nil {
		t.Error("nil report accepted")
	}
	if _, err := NewMetaOperator(topo, report, map[core.OpID]operators.Operator{}); err == nil {
		t.Error("missing prototypes accepted")
	}
}

func TestRunRejectsEmptyPlan(t *testing.T) {
	if _, err := RunTopology(context.Background(), core.NewTopology(), nil, nil, Config{}); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := RunDistributed(context.Background(), &plan.Plan{}, nil, DistributedConfig{}); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestBindingValidate(t *testing.T) {
	topo := pipeline(t, 0.001, 0.001)
	bad := &Binding{Ops: map[core.OpID]operators.Operator{
		core.OpID(99): operators.MustBuild(operators.Spec{Impl: "identity"}),
	}}
	if _, err := RunTopology(context.Background(), topo, nil, bad, shortCfg(7)); err == nil {
		t.Error("out-of-range binding accepted")
	}
}

func TestRunContextCancel(t *testing.T) {
	topo := pipeline(t, 0.001, 0.001)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	cfg := Config{Seed: 8, Duration: 30 * time.Second, Warmup: 10 * time.Second}
	if _, err := RunTopology(ctx, topo, nil, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not shorten the run")
	}
}

func TestRunStationMetrics(t *testing.T) {
	topo := pipeline(t, 0.002, 0.004, 0.0005)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, shortCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stations) == 0 {
		t.Fatal("no station metrics")
	}
	var emitters, workers int
	var replicaRate float64
	for _, st := range m.Stations {
		switch st.Role {
		case plan.RoleEmitter:
			emitters++
		case plan.RoleWorker:
			workers++
			if st.Name == "sB/replica0" {
				replicaRate = st.ConsumeRate
			}
		}
	}
	if emitters != 1 {
		t.Errorf("emitters = %d, want 1", emitters)
	}
	if workers < 3 {
		t.Errorf("workers = %d, want replicas visible", workers)
	}
	// Each replica of the 250/s stage handles roughly half the 500/s flow.
	if replicaRate < 150 || replicaRate > 350 {
		t.Errorf("replica rate = %v, want ~250", replicaRate)
	}
}

func TestRunBandJoinPorts(t *testing.T) {
	// A band-join fed by two distinct upstream operators must receive
	// tuples tagged with distinct ports, so matches only occur across
	// sides. With both sides carrying identical values, every right-side
	// tuple matches the left window content.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0005})
	left := topo.MustAddOperator(core.Operator{Name: "left", Kind: core.KindStateless, ServiceTime: 0.0001})
	right := topo.MustAddOperator(core.Operator{Name: "right", Kind: core.KindStateless, ServiceTime: 0.0001})
	join := topo.MustAddOperator(core.Operator{Name: "join", Kind: core.KindStateful, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, left, 0.5)
	topo.MustConnect(src, right, 0.5)
	topo.MustConnect(left, join, 1)
	topo.MustConnect(right, join, 1)
	topo.MustConnect(join, sink, 1)

	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		// Wide band: everything within the window matches.
		join: operators.MustBuild(operators.Spec{Impl: "bandjoin", WindowLen: 16, Param: 1.0}),
	}}
	var matches atomic.Uint64
	cfg := shortCfg(50)
	cfg.NoServicePadding = true
	cfg.Duration = 700 * time.Millisecond
	cfg.Warmup = 200 * time.Millisecond
	cfg.OnSink = func(op core.OpID, tp operators.Tuple) { matches.Add(1) }
	if _, err := RunTopology(context.Background(), topo, nil, binding, cfg); err != nil {
		t.Fatal(err)
	}
	if matches.Load() == 0 {
		t.Fatal("band-join produced no matches across its two ports")
	}
}

func TestRunPreserveOrder(t *testing.T) {
	// Four replicas process in parallel; with PreserveOrder the collector
	// must release items in the emitter's sequence order, under every
	// knob (the mailbox keeps per-edge FIFO), paced or flat out.
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fis.Analysis.Replicas[1] != 4 {
		t.Fatalf("replicas = %d, want 4", fis.Analysis.Replicas[1])
	}
	for _, dp := range dataplanes {
		for _, padded := range []bool{true, false} {
			name := dp.name + "/padded"
			cfg := shortCfg(60)
			if !padded {
				name = dp.name + "/unpadded"
				cfg.NoServicePadding = true
				cfg.Duration, cfg.Warmup = 400*time.Millisecond, 100*time.Millisecond
			}
			dp.set(&cfg)
			cfg.PreserveOrder = true
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var mu sync.Mutex
				var seqs []uint64
				cfg.OnSink = func(op core.OpID, tp operators.Tuple) {
					mu.Lock()
					seqs = append(seqs, tp.Seq)
					mu.Unlock()
				}
				m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(seqs) < 100 {
					t.Fatalf("sink observed only %d items", len(seqs))
				}
				for i := 1; i < len(seqs); i++ {
					if seqs[i] != seqs[i-1]+1 {
						t.Fatalf("order violated at %d: seq %d after %d", i, seqs[i], seqs[i-1])
					}
				}
				// Order restoration must not cost throughput.
				if e := stats.RelErr(m.Throughput, 1000); padded && e > 0.2 {
					t.Errorf("throughput = %v, want ~1000", m.Throughput)
				}
				checkConservation(t, m)
			})
		}
	}
	// One replica stalls on its first tuple past the end of the run, so
	// the collector still holds every later tuple of the other replicas
	// when it stops: those count as drained. Every station fires one
	// slowdown on its first tuple; only the second firing, which is the
	// first replica to serve (the emitter serves before any replica, and
	// the source has no fault hook), sleeps.
	t.Run("stalled-replica", func(t *testing.T) {
		t.Parallel()
		var slowdowns atomic.Int32
		cfg := Config{
			Seed:             62,
			Duration:         300 * time.Millisecond,
			Warmup:           100 * time.Millisecond,
			NoServicePadding: true,
			PreserveOrder:    true,
			Faults: faultinject.New(faultinject.Config{
				SlowdownProb:  1,
				SlowdownFor:   400 * time.Millisecond,
				MaxPerStation: 1,
				Sleep: func(d time.Duration) {
					if slowdowns.Add(1) == 2 {
						time.Sleep(d)
					}
				},
			}),
		}
		m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Totals.Drained == 0 {
			t.Error("nothing drained although one replica stalled for the whole run")
		}
		checkConservation(t, m)
	})
}

func TestRunPreserveOrderSkipsNonUnitGain(t *testing.T) {
	// A replicated filter (gain 0.5) must not use the reorder buffer: the
	// run completes and delivers roughly half the items.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	fil := topo.MustAddOperator(core.Operator{
		Name: "fil", Kind: core.KindStateless, ServiceTime: 0.003, OutputSelectivity: 0.5,
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, fil, 1)
	topo.MustConnect(fil, sink, 1)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(61)
	cfg.PreserveOrder = true
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Arrival[sink], 500); e > 0.25 {
		t.Errorf("sink arrival = %v, want ~500 (reorder buffer must not stall)", m.Arrival[sink])
	}
}

func TestRunSheddingParity(t *testing.T) {
	// A short send timeout turns backpressure into load shedding (Akka
	// BoundedMailbox semantics with a small timeout), identically on
	// every dataplane: only tuples awaiting admission are dropped, never
	// tuples a mailbox already accepted. If admitted
	// tuples were lost, the bottleneck would consume less than its
	// measured admissions and the sink would fall below the shedding
	// model's rate.
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	model, err := core.SteadyStateShedding(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Every row runs an 8-tuple mailbox here, so auto already is the small
	// row (MailboxSize 8 under Batch 32).
	for _, dp := range dataplanes[:3] {
		t.Run(dp.name, func(t *testing.T) {
			t.Parallel()
			cfg := shortCfg(83)
			cfg.SendTimeout = time.Millisecond
			cfg.MailboxSize = 8
			dp.set(&cfg)
			m, err := RunTopology(context.Background(), topo, nil, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Akka's timeout semantics stall the sender for up to the
			// timeout per dropped item, so the source does not reach its
			// full 1000/s; it must still run far above the 250/s the
			// pure-backpressure steady state would allow.
			if m.Throughput < 400 {
				t.Errorf("source rate = %v, want well above the backpressure 250/s", m.Throughput)
			}
			if m.Dropped[1] < 100 {
				t.Errorf("drop rate = %v, want substantial shedding", m.Dropped[1])
			}
			// Conservation after admission: everything admitted into the
			// bottleneck's mailbox is consumed (the queue residue over the
			// window is at most MailboxSize items, negligible as a rate).
			var bottleneck *StationMetrics
			for i := range m.Stations {
				if m.Stations[i].Name == "sB" {
					bottleneck = &m.Stations[i]
				}
			}
			if bottleneck == nil {
				t.Fatal("bottleneck station not found")
			}
			if e := stats.RelErr(bottleneck.ConsumeRate, m.Arrival[1]); e > 0.1 {
				t.Errorf("bottleneck consumed %v/s of %v/s admitted (err %.3f): admitted tuples were lost",
					bottleneck.ConsumeRate, m.Arrival[1], e)
			}
			// And the sink still sees the bottleneck-limited flow.
			if e := stats.RelErr(m.Arrival[2], model.SinkRate); e > 0.3 {
				t.Errorf("sink arrival = %v, model %v", m.Arrival[2], model.SinkRate)
			}
		})
	}
}

func TestConfigRejectsNonsense(t *testing.T) {
	// Invalid configurations must surface as errors, not be silently
	// coerced into something runnable.
	bad := map[string]Config{
		"warmup >= duration":   {Duration: time.Second, Warmup: time.Second},
		"warmup > duration":    {Duration: time.Second, Warmup: 2 * time.Second},
		"negative duration":    {Duration: -time.Second},
		"negative warmup":      {Warmup: -time.Second},
		"negative sendtimeout": {SendTimeout: -time.Millisecond},
		"negative mailbox":     {MailboxSize: -1},
		"negative batch":       {Batch: -8},
		"negative linger":      {Linger: -time.Millisecond},
		// SPSC names the ring the queue replaced; it is no policy.
		"spsc as a policy": {Mailbox: mailbox.SPSC},
		"unknown mailbox":  {Mailbox: mailbox.Mode(42)},

		"negative reconfig stall budget": {ReconfigStallBudget: -time.Second},

		// A shed or failed tuple never reaches the reorder buffer, which
		// would hold every later one forever.
		"preserveorder with sendtimeout": {PreserveOrder: true, SendTimeout: time.Millisecond},
		"preserveorder with restarts":    {PreserveOrder: true, MaxRestarts: 1},
	}
	for name, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// The same rejection must reach every public entry point.
		topo := pipeline(t, 0.001, 0.001)
		if _, err := RunTopology(context.Background(), topo, nil, nil, cfg); err == nil {
			t.Errorf("%s: RunTopology accepted", name)
		}
		p, err := plan.Build(topo, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunDistributed(context.Background(), p, nil, DistributedConfig{Config: cfg}); err == nil {
			t.Errorf("%s: RunDistributed accepted", name)
		}
	}
	// Zero values still take defaults.
	got, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.MailboxSize != 64 || got.Duration != 3*time.Second || got.Warmup != got.Duration/4 {
		t.Errorf("defaults not applied: %+v", got)
	}
	if got.Batch != mailbox.DefaultBatch || got.Linger != DefaultLinger || got.Mailbox != mailbox.Auto {
		t.Errorf("dataplane defaults not applied: %+v", got)
	}
	// PerTuple is a spelling of Batch 1, nothing more.
	got, err = Config{Mailbox: mailbox.PerTuple, Batch: 64}.withDefaults()
	if err != nil || got.Batch != 1 {
		t.Errorf("PerTuple resolved to Batch %d (%v), want 1", got.Batch, err)
	}
	if got.ReconfigStallBudget != time.Second {
		t.Errorf("reconfiguration defaults not applied: %+v", got)
	}
}

// TestRunPanicMidWindowSameOutputEveryMode replays one fixed fault
// schedule — operator panics landing in the middle of input windows, with
// recovery on — under every mailbox mode. A recovered panic loses exactly
// the tuple in hand: the rest of its window is served by the restarted
// operator and the outputs already staged are still delivered. So the
// conservation identity holds, every panic fails one tuple, and (faults
// fire on the n-th tuple a station serves, whatever the window size) the
// sink sees the same per-key sequences on every dataplane, up to where
// each run happened to stop.
func TestRunPanicMidWindowSameOutputEveryMode(t *testing.T) {
	goroutines := goruntime.NumGoroutine()
	topo := pipeline(t, 0.0002, 0.0002, 0.0001, 0.0001)
	perKey := make([]map[uint64][]uint64, len(dataplanes))
	for i, dp := range dataplanes {
		mode := dp.name
		inj := faultinject.New(faultinject.Config{Seed: 77, PanicProb: 0.002})
		sink := map[uint64][]uint64{}
		var mu sync.Mutex
		cfg := Config{
			Seed:             5,
			Duration:         400 * time.Millisecond,
			Warmup:           100 * time.Millisecond,
			NoServicePadding: true,
			Batch:            16,
			MaxRestarts:      1 << 30,
			Faults:           inj,
			OnSink: func(_ core.OpID, tp operators.Tuple) {
				mu.Lock()
				sink[tp.Key] = append(sink[tp.Key], tp.Seq)
				mu.Unlock()
			},
		}
		dp.set(&cfg)
		m, err := RunTopology(context.Background(), topo, nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, m)
		panics := inj.Counts().Panics
		if panics == 0 || m.Restarts != panics {
			t.Fatalf("%v: %d injected panics, %d restarts", mode, panics, m.Restarts)
		}
		if m.Totals.Failed != panics {
			t.Errorf("%v: %d panics failed %d tuples, want one each", mode, panics, m.Totals.Failed)
		}
		if m.Totals.Delivered < 1000 {
			t.Fatalf("%v: only %d tuples delivered", mode, m.Totals.Delivered)
		}
		perKey[i] = sink
	}
	for i := 1; i < len(dataplanes); i++ {
		for key, want := range perKey[0] {
			got := perKey[i][key]
			n := min(len(got), len(want))
			for j := 0; j < n; j++ {
				if got[j] != want[j] {
					t.Fatalf("key %d, position %d: %v delivered seq %d, %v seq %d",
						key, j, dataplanes[i].name, got[j], dataplanes[0].name, want[j])
				}
			}
		}
	}
	// Every run has returned, so everything it started must be gone: a
	// wedged sender or a leaked timer would still be here.
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before the runs, %d after", goroutines, n)
	}
}

func TestExecutorsDoNotAllocatePerTuple(t *testing.T) {
	// The station loop calls its executor once per tuple; an executor that
	// builds its emit callback per call allocates on every tuple, and so
	// would routing an output into the outbox if it escaped.
	identity := func() operators.Operator { return operators.MustBuild(operators.Spec{Impl: "identity"}) }
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	fused, report, err := core.Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	protos := map[core.OpID]operators.Operator{}
	for _, m := range sub {
		protos[m] = identity()
	}
	meta, err := NewMetaOperator(topo, report, protos)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(fused, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every executor emits into the meta-operator station's outbox: its
	// out-edges are where the meta-operator's explicit destinations lead.
	e := &engine{cfg: Config{Batch: 8}}
	out := e.newOutbox(&tables{p: p}, &p.Stations[p.EntryOf[report.FusedID]])
	ordered := Config{PreserveOrder: true}
	exec := func(st plan.Station, cfg Config) func(operators.Tuple, *outbox) {
		x, _, _, _ := (&Binding{}).executor(&st, cfg)
		return x
	}
	rows := []struct {
		name string
		exec func(operators.Tuple, *outbox)
		outs int
	}{
		{"operator", opExec(identity()), 1},
		{"meta", meta.instance(Config{NoServicePadding: true}).process, 1},
		{"gain accumulator", exec(plan.Station{Role: plan.RoleWorker, Gain: 2}, Config{}), 2},
		{"ordered emitter", exec(plan.Station{Role: plan.RoleEmitter}, ordered), 1},
		{"ordered collector", exec(plan.Station{Role: plan.RoleCollector}, ordered), 1},
	}
	for _, row := range rows {
		// The collector releases only the next sequence number in line.
		var seq uint64
		allocs := testing.AllocsPerRun(200, func() {
			for i := range out.bufs {
				out.bufs[i] = out.bufs[i][:0]
			}
			seq++
			row.exec(operators.Tuple{Seq: seq}, out)
		})
		if allocs != 0 {
			t.Errorf("%s executor: %v allocations per tuple, want 0", row.name, allocs)
		}
		staged := 0
		for _, buf := range out.bufs {
			staged += len(buf)
		}
		if staged != row.outs {
			t.Errorf("%s executor: %d outputs per tuple, want %d", row.name, staged, row.outs)
		}
	}
}

// TestPickEdgeKeyHashAnyKey routes keys from the whole uint64 range on a
// keyed emitter, with and without a key -> replica table: a key >= 2^63
// lands on the edge its residue names, like any other key.
func TestPickEdgeKeyHashAnyKey(t *testing.T) {
	out := []plan.Edge{{To: 1}, {To: 2}, {To: 3}}
	plain := &plan.Station{Discipline: plan.KeyHash, Out: out}
	table := &plan.Station{Discipline: plan.KeyHash, Out: out, KeyReplica: []int{2, 0, 1, 1}}
	for _, tc := range []struct {
		key          uint64
		plain, table int
	}{
		{0, 0, 2},
		{5, 2, 0},
		{1 << 63, 2, 2},
		{math.MaxUint64, 0, 1},
	} {
		var rr int
		if got := pickEdge(nil, plain, -1, &operators.Tuple{Key: tc.key}, 0, 0, &rr); got != tc.plain {
			t.Errorf("key %d without a table: edge %d, want %d", tc.key, got, tc.plain)
		}
		if got := pickEdge(nil, table, -1, &operators.Tuple{Key: tc.key}, 0, 0, &rr); got != tc.table {
			t.Errorf("key %d with table %v: edge %d, want %d", tc.key, table.KeyReplica, got, tc.table)
		}
	}
}

// highKeyOp forwards every tuple with its key moved to 2^63 or above, as a
// user operator bound through the facade may.
type highKeyOp struct{}

func (highKeyOp) Name() string                { return "highkey" }
func (highKeyOp) Meta() operators.Meta        { return operators.Meta{Kind: core.KindStateless} }
func (o highKeyOp) Clone() operators.Operator { return o }
func (highKeyOp) Process(in operators.Tuple, emit operators.Emit) {
	in.Key |= 1 << 63
	emit(in)
}

// TestRunKeysAbove2To63 feeds keys >= 2^63 into a keyed operator fissioned
// to three replicas: the run finishes, every tuple is accounted, and
// every replica consumes.
func TestRunKeysAbove2To63(t *testing.T) {
	freq := make([]float64, 6)
	for i := range freq {
		freq[i] = 1.0 / 6
	}
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0002})
	tag := topo.MustAddOperator(core.Operator{Name: "tag", Kind: core.KindStateless, ServiceTime: 0.0001})
	agg := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.0003,
		Keys: &core.KeyDistribution{Freq: freq},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, tag, 1)
	topo.MustConnect(tag, agg, 1)
	topo.MustConnect(agg, sink, 1)
	binding := &Binding{Ops: map[core.OpID]operators.Operator{tag: highKeyOp{}}}
	cfg := Config{Seed: 63, Duration: 600 * time.Millisecond, Warmup: 150 * time.Millisecond}
	m, err := RunTopology(context.Background(), topo, []int{1, 1, 3, 1}, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, m)
	replicas := 0
	for _, st := range m.Stations {
		if st.Role != plan.RoleWorker || !strings.HasPrefix(st.Name, "agg") {
			continue
		}
		replicas++
		if st.Consumed == 0 {
			t.Errorf("replica %q consumed nothing", st.Name)
		}
	}
	if replicas != 3 {
		t.Fatalf("%d agg replicas, want 3", replicas)
	}
}

// TestZeroConfigDeploysThePlansVerdict runs the paper's Table 1 topology
// with nothing set but seed and run length: every inbox is the default
// queue at the default capacity, and throughput must meet the model
// inside TestRunThroughputMatchesModel's tolerance.
func TestZeroConfigDeploysThePlansVerdict(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := shortCfg(92).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(p, &Binding{}, cfg)
	if err == nil {
		err = e.deploy(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ep := e.tab().epoch; ep != 0 {
		t.Errorf("deployment epoch = %d, want 0", ep)
	}
	for i, m := range e.tab().mailboxes {
		if m.Capacity() != 64 {
			t.Errorf("station %q: inbox capacity %d, want the default 64", p.Stations[i].Name, m.Capacity())
		}
	}
	m := e.measure(context.Background())
	if e := stats.RelErr(m.Throughput, a.Throughput()); e > 0.15 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, a.Throughput(), e)
	}
}

func TestPacerCountsResetsPastSlack(t *testing.T) {
	// A 100 µs period has the 10 ms minimum slack. Every start lies in
	// the past, so no step sleeps.
	p := newPacer(0.0001)
	t0 := time.Now().Add(-time.Second)
	for i, step := range []struct {
		at    time.Duration
		reset bool
	}{
		{0, false},                        // starts the schedule
		{5 * time.Millisecond, false},     // 4.9 ms behind: caught up
		{20 * time.Millisecond, true},     // 19.8 ms behind: past the slack
		{20100 * time.Microsecond, false}, // on the fresh schedule
	} {
		if got := p.wait(t0.Add(step.at)); got != step.reset {
			t.Errorf("step %d at %v: reset = %v, want %v", i, step.at, got, step.reset)
		}
	}
}

func TestPadResetsCountedPerStation(t *testing.T) {
	// The middle operator takes 15 ms per tuple against a declared
	// 0.1 ms, so its schedule lags past the 10 ms slack on every tuple
	// after the first.
	topo := pipeline(t, 0.0001, 0.0001, 0.0001)
	reg := obs.New()
	cfg := shortCfg(48)
	cfg.Obs = reg
	cfg.Duration, cfg.Warmup = 300*time.Millisecond, 100*time.Millisecond
	binding := &Binding{Ops: map[core.OpID]operators.Operator{1: stampOp{at: &sync.Map{}, pause: 15 * time.Millisecond}}}
	if _, err := RunTopology(context.Background(), topo, nil, binding, cfg); err != nil {
		t.Fatal(err)
	}
	for _, st := range reg.Snapshot().Stations {
		if st.Op == 1 && (st.Consumed < 4 || 2*st.PadResets < st.Consumed) {
			t.Errorf("%s: %d pad resets over %d tuples, want one per tuple after the first", st.Name, st.PadResets, st.Consumed)
		}
	}
}
