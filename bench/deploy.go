package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/runtime"
)

// clock is the benchmark's monotonic time base, in nanoseconds.
var clockBase = time.Now()

func clock() int64 { return int64(time.Since(clockBase)) }

// stampSlots bounds how many sampled tuples may be in flight at once;
// far above any queue capacity the workloads configure.
const stampSlots = 1 << 16

// stampTable is the benchmark-side table the stamp operator writes and
// the sink callback reads, indexed by sampled sequence number.
type stampTable struct {
	mask  uint64
	shift uint
	slots []atomic.Int64
}

func newStampTable(every uint64) *stampTable {
	shift := uint(0)
	for 1<<shift < every {
		shift++
	}
	return &stampTable{mask: every - 1, shift: shift, slots: make([]atomic.Int64, stampSlots)}
}

func (s *stampTable) slot(seq uint64) *atomic.Int64 {
	return &s.slots[(seq>>s.shift)&(stampSlots-1)]
}

// stampOp is the first hop after the source: it records when a sampled
// tuple entered the topology and forwards everything unchanged.
type stampOp struct{ tab *stampTable }

func (s *stampOp) Name() string              { return "stamp" }
func (s *stampOp) Meta() operators.Meta      { return operators.Meta{Kind: core.KindStateless} }
func (s *stampOp) Clone() operators.Operator { return s }
func (s *stampOp) Process(in operators.Tuple, emit operators.Emit) {
	if in.Seq&s.tab.mask == 0 {
		s.tab.slot(in.Seq).Store(clock())
	}
	emit(in)
}

// opTimer accumulates the sampled Process time of one logical operator
// across its replicas during a traced window.
type opTimer struct {
	sampled, sampledNs atomic.Int64
}

const (
	// timeEvery: one Process call in this many is timed.
	timeEvery = 64
	// spansPerOp caps how many of those become spans in trace.json.
	spansPerOp = 200
)

// timedOp wraps a bound operator for the traced pass.
type timedOp struct {
	operators.Operator
	name   string
	tm     *opTimer
	tr     *tracer
	run    string
	parent int
	n      uint64
}

func (t *timedOp) Clone() operators.Operator {
	c := *t
	c.Operator, c.n = t.Operator.Clone(), 0
	return &c
}

func (t *timedOp) Process(in operators.Tuple, emit operators.Emit) {
	if t.n++; t.n%timeEvery != 0 {
		t.Operator.Process(in, emit)
		return
	}
	start := time.Now()
	t.Operator.Process(in, emit)
	end := time.Now()
	t.tm.sampledNs.Add(int64(end.Sub(start)))
	if t.tm.sampled.Add(1) <= spansPerOp {
		t.tr.add(t.run, spanProcess+"/"+t.name, t.parent, start, end)
	}
}

// deployment is one optimized document ready to run.
type deployment struct {
	w        *workload
	seed     uint64
	final    *core.Topology
	replicas []int
	plan     *plan.Plan
	analysis *core.Analysis
	// runs counts deployments, so each draws its own routing sequence.
	runs uint64
}

func newDeployment(w *workload, p *planned, seed uint64) (*deployment, error) {
	d := &deployment{
		w: w, seed: seed,
		final: p.res.Final.Topology(), replicas: p.res.Replicas(), plan: p.plan, analysis: p.res.Analysis,
	}
	if _, ok := d.final.Lookup("stamp"); !ok {
		return nil, fmt.Errorf("the optimizer fused the stamp stage away")
	}
	for name := range w.specs {
		if _, ok := d.final.Lookup(name); !ok {
			return nil, fmt.Errorf("the optimizer fused bound operator %s away", name)
		}
	}
	if w.shape != nil {
		if err := w.shape(d); err != nil {
			return nil, fmt.Errorf("plan shape: %w", err)
		}
	}
	return d, nil
}

// boundOps builds the workload's operator implementations, keyed by the
// final topology's operator IDs.
func (d *deployment) boundOps() (map[core.OpID]operators.Operator, error) {
	specs := make([]operators.Spec, d.final.Len())
	for i := range specs {
		specs[i] = d.w.specs[d.final.Op(core.OpID(i)).Name]
	}
	b, err := runtime.Bind(d.final, specs)
	if err != nil {
		return nil, err
	}
	return b.Ops, nil
}

func (d *deployment) genConfig() operators.GeneratorConfig {
	cfg := d.w.gen
	cfg.Seed = d.seed
	return cfg
}

// variant is what a window adds to the workload's plain configuration.
type variant struct {
	obs, estimator bool
	// timed wraps bound operators with opTimers (the traced pass).
	timed bool
	// nodes overrides the workload's node count when non-zero: 1 is the
	// local engine with the workload's knobs, 2 the distributed engine
	// with every transport knob at its zero value — except the policy,
	// which batched sets to Batched.
	nodes   int
	batched bool
	// unchecked skips recording the sink prefix (set-up runs, whose only
	// output is the time of the first delivery).
	unchecked bool
}

// window is one deployment run for a fixed duration.
type window struct {
	metrics *runtime.Metrics
	// latMs are stamp → sink latencies of tuples stamped after warm-up.
	latMs []float64
	// sink holds the digests of the first checkTuples sink tuples.
	sink []digest
	// firstNs is when the first result reached a sink (clock units).
	firstNs int64
	wall    time.Duration
	cpuNs   int64
	mallocs uint64
	gcPause time.Duration
	timers  map[string]*opTimer
}

// recorder is the sink side of a window.
type recorder struct {
	tab         *stampTable
	measureFrom int64
	seen        atomic.Int64
	first       atomic.Int64
	sink        []digest

	mu  sync.Mutex
	lat []float64
}

func (r *recorder) onSink(_ core.OpID, t operators.Tuple) {
	i := r.seen.Add(1) - 1
	if i == 0 {
		r.first.Store(clock())
	}
	if i < int64(len(r.sink)) {
		r.sink[i] = digestOf(t)
	}
	if t.Seq&r.tab.mask != 0 {
		return
	}
	if at := r.tab.slot(t.Seq).Load(); at >= r.measureFrom {
		now := clock()
		r.mu.Lock()
		r.lat = append(r.lat, float64(now-at)/1e6)
		r.mu.Unlock()
	}
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// run deploys the plan for dur (a quarter of it warm-up) and collects
// everything the benchmark reads from one window.
func (d *deployment) run(v variant, dur time.Duration, tr *tracer, runName string, parent int) (*window, error) {
	gen, err := operators.NewGenerator(d.genConfig())
	if err != nil {
		return nil, err
	}
	tab := newStampTable(d.w.stampEvery)
	rec := &recorder{tab: tab}
	if !v.unchecked && d.w.check != checkRates {
		rec.sink = make([]digest, checkTuples)
	}
	win := &window{timers: make(map[string]*opTimer)}
	s := tr.begin(runName, spanRun, parent)

	ops, err := d.boundOps()
	if err != nil {
		return nil, err
	}
	stamp, _ := d.final.Lookup("stamp")
	ops[stamp] = &stampOp{tab: tab}
	if v.timed {
		for id, op := range ops {
			name := d.final.Op(id).Name
			win.timers[name] = &opTimer{}
			ops[id] = &timedOp{Operator: op, name: name, tm: win.timers[name], tr: tr, run: runName, parent: s}
		}
	}
	binding := &runtime.Binding{Ops: ops}

	cfg := d.w.cfg
	// The stream repeats in every window (one reference covers them all);
	// the probabilistic routing must not, or one unlucky burst pattern
	// would repeat in every window and pass for a property of the system.
	d.runs++
	cfg.Duration, cfg.Warmup, cfg.Seed = dur, dur/4, d.seed<<8+d.runs
	cfg.Generator, cfg.OnSink = gen, rec.onSink
	if v.obs || v.estimator {
		cfg.Obs = obs.New()
		cfg.Estimator = v.estimator
	}
	nodes := d.w.nodes
	if v.nodes != 0 {
		nodes = v.nodes
	}
	if v.nodes > 1 {
		cfg.Mailbox, cfg.MailboxSize, cfg.Batch, cfg.Linger = mailbox.PerTuple, 0, 0, 0
		if v.batched {
			cfg.Mailbox = mailbox.Batched
		}
	}

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	cpu0, start := cpuTime(), time.Now()
	rec.measureFrom = clock() + int64(cfg.Warmup)
	if nodes > 1 {
		var p *plan.Plan
		if p, err = plan.Build(d.final, plan.Options{Replicas: d.replicas}); err == nil {
			win.metrics, err = runtime.RunDistributed(context.Background(), p, binding,
				runtime.DistributedConfig{Config: cfg, Nodes: nodes})
		}
	} else {
		win.metrics, err = runtime.RunTopology(context.Background(), d.final, d.replicas, binding, cfg)
	}
	win.wall, win.cpuNs = time.Since(start), cpuTime()-cpu0
	goruntime.ReadMemStats(&after)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	win.mallocs = after.Mallocs - before.Mallocs
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	win.firstNs = rec.first.Load()
	win.latMs = rec.lat
	win.sink = rec.sink[:min(int(rec.seen.Load()), len(rec.sink))]
	return win, nil
}

// verify returns the tuples this window failed: shed or lost to panics,
// any conservation residual, and — when the sink output does not match —
// everything it generated.
func (d *deployment) verify(win *window, ref *reference) (failed uint64, problems []string) {
	tot := win.metrics.Totals
	failed = tot.Shed + tot.Failed
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d tuples shed, %d failed", tot.Shed, tot.Failed))
	}
	if d.w.unitGain {
		out := tot.Delivered + tot.Shed + tot.Failed + tot.Drained + tot.Abandoned
		if out != tot.Generated {
			failed += max(out, tot.Generated) - min(out, tot.Generated)
			problems = append(problems, fmt.Sprintf("conservation: generated %d, accounted %d", tot.Generated, out))
		}
	}
	if d.w.check == checkRates {
		return failed, problems // verified over the pooled windows, see rateCheck
	}
	n, problem := ref.verify(d.w.check, win.sink)
	if problem == "" && n == 0 {
		problem = "no sink output to check"
	}
	if problem != "" {
		return tot.Generated, append(problems, problem)
	}
	return failed, problems
}

// rateCheck compares measured rates with the optimizer's prediction:
// the median window's topology throughput within 5%, and every
// operator's departure rate per source tuple, pooled over the windows,
// within 10%. A stall of the machine slows one window and every rate in
// it alike, so neither the median nor the ratios see it; a bottleneck the
// model missed throttles the source in every window. Each tolerance
// widens to four standard deviations of the counting noise, so a branch
// that sees a few hundred tuples is not failed by chance.
func (d *deployment) rateCheck(wins []*window) (modelErr, worstOpErr float64, problems []string) {
	var tputs, secs []float64
	src, dep := 0.0, make([]float64, d.final.Len())
	for _, w := range wins {
		s := w.metrics.MeasuredSeconds
		secs = append(secs, s)
		tputs = append(tputs, w.metrics.Throughput)
		src += w.metrics.Throughput * s
		for i := range dep {
			dep[i] += w.metrics.Departure[i] * s
		}
	}
	within := func(err, tol, count float64) bool { return err <= math.Max(tol, 4/math.Sqrt(count)) }
	predicted := d.analysis.Throughput()
	modelErr = math.Abs(median(tputs)-predicted) / predicted
	if !within(modelErr, 0.05, predicted*median(secs)) {
		problems = append(problems, fmt.Sprintf("throughput %.1f tuples/s is %.1f%% off the predicted %.1f",
			median(tputs), 100*modelErr, predicted))
	}
	for i := range dep {
		want := d.analysis.Delta[i] / predicted
		if want <= 0 || src <= 0 {
			continue
		}
		e := math.Abs(dep[i]/src-want) / want
		worstOpErr = math.Max(worstOpErr, e)
		if !within(e, 0.10, want*src) {
			problems = append(problems, fmt.Sprintf("%s emits %.4f per source tuple, %.1f%% off the predicted %.4f",
				d.final.Op(core.OpID(i)).Name, dep[i]/src, 100*e, want))
		}
	}
	return modelErr, worstOpErr, problems
}

// replicaSkew is max ÷ mean consume rate over the replicas of the most
// replicated operator (1 when nothing is replicated). Metrics.Stations
// is indexed like the plan's stations.
func (d *deployment) replicaSkew(m *runtime.Metrics) float64 {
	var widest []plan.StationID
	for _, workers := range d.plan.WorkersOf {
		if len(workers) > len(widest) {
			widest = workers
		}
	}
	if len(widest) < 2 {
		return 1
	}
	total, top := 0.0, 0.0
	for _, id := range widest {
		r := m.Stations[id].ConsumeRate
		total += r
		top = math.Max(top, r)
	}
	if total == 0 {
		return 1
	}
	return top / (total / float64(len(widest)))
}
