package main

import (
	"fmt"
	"sort"
	"time"

	"spinstreams/internal/mailbox"
	"spinstreams/internal/plan"
)

const (
	// Set-ups repeat until setupShare of the measuring time is spent, at
	// most maxSetupsPerStep in each step; setup_s is the median.
	setupShare       = 0.1
	maxSetupsPerStep = 5
	// tracedRounds is how many times the traced pass repeats its
	// instrumentation variants.
	tracedRounds = 3
	// setupWindow is how long each set-up's deployment runs: several
	// times what the slowest workload needs for its first result.
	setupWindow = 100 * time.Millisecond
)

// setUp walks the whole path once from nothing — documents, plan,
// deployment, first delivery — and returns the time to the first result
// at a sink.
func setUp(w *workload, seed uint64, tr *tracer, run string) (float64, error) {
	s := tr.begin(run, spanSetup, 0)
	defer tr.end(s)
	t0 := clock()
	g := tr.begin(run, spanGenerate, s)
	docs, err := w.docs()
	tr.end(g)
	if err != nil {
		return 0, err
	}
	p, err := toPlan(tr, run, s, docs[w.deploy])
	if err != nil {
		return 0, err
	}
	d, err := newDeployment(w, p, seed)
	if err != nil {
		return 0, err
	}
	win, err := d.run(variant{unchecked: true}, setupWindow, tr, run, s)
	if err != nil {
		return 0, err
	}
	if win.firstNs == 0 {
		return 0, fmt.Errorf("no result reached a sink within %v", setupWindow)
	}
	return float64(win.firstNs-t0) / 1e9, nil
}

// session is one workload's untraced pass, split into steps so several
// sessions can interleave. Each step measures a slice of everything —
// set-ups, optimize passes, one run window — so a slow spell of the
// machine lands on a fraction of every metric's samples, not on all the
// samples of one.
type session struct {
	w       *workload
	seed    uint64
	seconds float64
	res     *result
	setups  []float64
	opt     *optimizer
	dep     *deployment
	ref     *reference
	wins    []*window
}

var off = newTracer(false)

func (s *session) share(of float64) time.Duration {
	return time.Duration(of * s.seconds / windowsPerRun * float64(time.Second))
}

// prepare walks the path once — one set-up, one optimize pass — to get
// the deployment and its reference; it reports false when the workload
// cannot go on.
func (s *session) prepare() bool {
	r := s.res
	defer r.timed()()
	if !s.setUps(0) {
		return false
	}
	docs, err := s.w.docs()
	if err != nil {
		r.fail(1, fmt.Sprintf("documents: %v", err))
		return false
	}
	s.opt = newOptimizer(docs, s.seed)
	s.opt.passes(off, "", 0)
	p := s.opt.last[s.w.deploy]
	if p == nil {
		return false
	}
	if s.dep, err = newDeployment(s.w, p, s.seed); err != nil {
		r.fail(1, err.Error())
		return false
	}
	if s.ref, err = s.dep.reference(); err != nil {
		r.fail(1, fmt.Sprintf("reference run: %v", err))
		return false
	}
	return true
}

// setUps repeats the set-up until the budget is spent, at least once and
// at most maxSetupsPerStep times.
func (s *session) setUps(budget time.Duration) bool {
	for start, n := time.Now(), 0; n == 0 || (n < maxSetupsPerStep && time.Since(start) < budget); n++ {
		t, err := setUp(s.w, s.seed, off, "")
		if err != nil {
			s.res.fail(1, fmt.Sprintf("set-up: %v", err))
			return false
		}
		s.setups = append(s.setups, t)
	}
	return true
}

// step measures one slice: set-ups, optimize passes, one verified window.
func (s *session) step() {
	defer s.res.timed()()
	s.setUps(s.share(setupShare))
	s.opt.passes(off, "", s.share(s.w.optShare))
	win, err := s.dep.run(variant{}, s.w.windowLen(s.seconds), off, "", 0)
	if err != nil {
		s.res.fail(1, fmt.Sprintf("run: %v", err))
		return
	}
	s.wins = append(s.wins, win)
	s.res.Attempted += win.metrics.Totals.Generated
	failed, problems := s.dep.verify(win, s.ref)
	s.res.fail(failed, problems...)
}

func (s *session) finish() {
	r := s.res
	stop := r.timed()
	if len(s.setups) > 0 {
		r.put("setup_s", median(s.setups), s.setups)
	}
	if o := s.opt; o != nil {
		o.verify()
		r.Attempted += uint64(o.attempted)
		r.fail(uint64(len(o.problems)), o.problems...)
		r.put("optimize_ms", median(o.perTopoMs), o.perTopoMs)
		if s.w.golden {
			r.golden = goldenRows(o.last)
			bad := checkGolden(r.golden)
			r.fail(uint64(len(bad)), bad...)
		}
	}
	if len(s.wins) > 0 {
		var tput, lat []float64
		for _, w := range s.wins {
			tput = append(tput, w.metrics.Throughput)
			lat = append(lat, w.latMs...)
		}
		sort.Float64s(lat)
		if len(lat) == 0 {
			r.fail(1, "no latency sample: no stamped tuple reached a sink after warm-up")
		}
		r.put("throughput_tps", median(tput), tput)
		r.put("latency_p50_ms", percentile(lat, 50), lat)
		if s.w.check == checkRates {
			_, _, problems := s.dep.rateCheck(s.wins)
			r.fail(uint64(len(problems)), problems...)
		}
		r.Stations = stationRows(s.dep, s.wins[len(s.wins)-1])
	}
	stop()
	r.close()
}

// endToEndPass runs the untraced pass: every workload prepares, then
// the windows go round-robin across workloads so slow drift of the
// machine spreads over all of them instead of landing on one.
func endToEndPass(ws []*workload, seed uint64, seconds float64) []*result {
	var sessions []*session
	var results []*result
	for _, w := range ws {
		s := &session{w: w, seed: seed, seconds: seconds, res: newResult(w, seed, false)}
		results = append(results, s.res)
		if s.prepare() {
			sessions = append(sessions, s)
		} else {
			s.finish()
		}
	}
	for i := 0; i < windowsPerRun; i++ {
		for _, s := range sessions {
			s.step()
		}
	}
	for _, s := range sessions {
		s.finish()
	}
	return results
}

func stationRows(d *deployment, win *window) []stationRow {
	rows := make([]stationRow, len(win.metrics.Stations))
	for i, st := range win.metrics.Stations {
		rows[i] = stationRow{Name: st.Name, Role: st.Role.String(), ConsumeRate: st.ConsumeRate, EmitRate: st.EmitRate}
		if tm := win.timers[d.final.Op(d.plan.Stations[i].Op).Name]; tm != nil && d.plan.Stations[i].Role == plan.RoleWorker {
			rows[i].OpBusyShare = tm.busyShare(win, len(d.plan.WorkersOf[d.plan.Stations[i].Op]))
		}
	}
	return rows
}

// busyShare extrapolates the sampled Process time to all calls and
// divides by the window's wall time per replica.
func (t *opTimer) busyShare(win *window, replicas int) float64 {
	if win.wall <= 0 {
		return 0
	}
	return float64(t.sampledNs.Load()) * timeEvery / float64(win.wall.Nanoseconds()) / float64(replicas)
}

func pct(with, without float64) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (without - with) / without
}

// tracedPass produces the per-layer metrics of one workload: the same
// path with a span around every call into a layer, the mailbox
// micro-runs, and one window per instrumentation variant.
func tracedPass(w *workload, seed uint64, seconds float64, tr *tracer) *result {
	r := newResult(w, seed, true)
	run := w.name
	stop := r.timed()
	defer func() {
		stop()
		r.close()
	}()

	if _, err := setUp(w, seed, tr, run); err != nil {
		r.fail(1, fmt.Sprintf("set-up: %v", err))
		return r
	}
	docs, err := w.docs()
	if err != nil {
		r.fail(1, fmt.Sprintf("documents: %v", err))
		return r
	}
	// Self times before the optimize phase belong to set-up; the layer
	// metrics are the phase's own.
	base := tr.selfTimes(run)
	o := newOptimizer(docs, seed)
	o.passes(tr, run, time.Duration(0.1*seconds*float64(time.Second)))
	o.verify()
	r.Attempted += uint64(o.attempted)
	r.fail(uint64(len(o.problems)), o.problems...)
	self := tr.selfTimes(run)
	perTopo := func(name string) float64 { return ms(self[name]-base[name]) / float64(o.attempted) }
	layers := 0.0
	for _, l := range []struct{ metric, span string }{
		{"xmlio.read_ms", spanRead}, {"lint.run_ms", spanLint}, {"opt.run_ms", spanOpt}, {"plan.build_ms", spanPlan},
	} {
		r.put(l.metric, perTopo(l.span), nil)
		layers += perTopo(l.span)
	}
	r.put("trace.optimize_coverage_pct", 100*layers/(sum(o.perTopoMs)/float64(len(o.perTopoMs))), nil)

	p := o.last[w.deploy]
	if p == nil {
		return r
	}
	var ratios []float64
	for _, q := range o.last {
		if q != nil {
			ratios = append(ratios, q.res.CacheStats.Ratio())
		}
	}
	r.put("opt.solver_cache_ratio", sum(ratios)/float64(len(ratios)), ratios)
	mpsc := mpscInboxes(p.plan)
	r.put("plan.stations", float64(len(p.plan.Stations)), nil)
	r.put("plan.mpsc_inboxes", float64(mpsc), nil)
	r.put("plan.ring_inboxes", float64(len(p.plan.Stations)-1-mpsc), nil)

	microLen := time.Duration(0.02 * seconds * float64(time.Second))
	for _, m := range []struct {
		name      string
		mode      mailbox.Mode
		producers int
	}{
		{"ring", mailbox.SPSC, 1}, {"mpsc1", mailbox.Batched, 1}, {"mpsc3", mailbox.Batched, 3}, {"pertuple", mailbox.PerTuple, 1},
	} {
		res, err := mailboxMicro(m.mode, m.producers, microLen)
		if err != nil {
			r.fail(1, fmt.Sprintf("mailbox micro-run %s: %v", m.name, err))
			continue
		}
		r.put("mailbox."+m.name+"_ns_per_tuple", res.nsPerTuple, nil)
		r.put("mailbox."+m.name+"_allocs_per_tuple", res.allocsPerTuple, nil)
	}

	d, err := newDeployment(w, p, seed)
	if err != nil {
		r.fail(1, err.Error())
		return r
	}
	ref, err := d.reference()
	if err != nil {
		r.fail(1, fmt.Sprintf("reference run: %v", err))
		return r
	}
	r.put("operators.ns_per_tuple", ref.nsPerTuple, nil)
	r.put("operators.allocs_per_tuple", ref.allocsPerTuple, nil)

	// tracedRounds rounds of {plain, timed, obs, estimator} windows back
	// to back, so each overhead is the median of paired comparisons
	// between neighbours in time; then the distributed windows.
	winLen := time.Duration(0.8 * seconds / (4*tracedRounds + 3) * float64(time.Second))
	broken := false
	runWindow := func(v variant) *window {
		win, err := d.run(v, winLen, tr, run, 0)
		if err != nil {
			r.fail(1, fmt.Sprintf("run %+v: %v", v, err))
			broken = true
			return &window{}
		}
		r.Attempted += win.metrics.Totals.Generated
		failed, problems := d.verify(win, ref)
		r.fail(failed, problems...)
		return win
	}
	var plain, timed *window
	var lat, cpu, allocs, gcPause, tps, traceOver, obsOver, estOver []float64
	for i := 0; i < tracedRounds && !broken; i++ {
		plain = runWindow(variant{})
		timed = runWindow(variant{timed: true})
		withObs := runWindow(variant{obs: true})
		withEst := runWindow(variant{estimator: true})
		if broken {
			return r
		}
		gen := float64(plain.metrics.Totals.Generated)
		lat = append(lat, plain.latMs...)
		cpu = append(cpu, float64(plain.cpuNs)/gen)
		allocs = append(allocs, float64(plain.mallocs)/gen)
		gcPause = append(gcPause, ms(plain.gcPause))
		tps = append(tps, plain.metrics.Throughput)
		traceOver = append(traceOver, pct(timed.metrics.Throughput, plain.metrics.Throughput))
		obsOver = append(obsOver, pct(withObs.metrics.Throughput, plain.metrics.Throughput))
		estOver = append(estOver, pct(withEst.metrics.Throughput, withObs.metrics.Throughput))
	}
	// The distributed variants run with the transport knobs at their zero
	// values (and with only the policy set to Batched): what `run -nodes
	// 2` gives. They reuse the plain window where the workload already is
	// that variant.
	local, dist := plain, plain
	if w.nodes > 1 {
		local = runWindow(variant{nodes: 1})
	} else {
		dist = runWindow(variant{nodes: 2})
	}
	distBatched := runWindow(variant{nodes: 2, batched: true})
	if broken {
		return r
	}

	sort.Float64s(lat)
	r.put("runtime.latency_p99_ms", percentile(lat, 99), lat)
	r.put("runtime.latency_samples", float64(len(lat)), nil)
	r.put("runtime.cpu_ns_per_tuple", median(cpu), cpu)
	r.put("runtime.allocs_per_tuple", median(allocs), allocs)
	r.put("runtime.gc_pause_ms", median(gcPause), gcPause)
	r.put("runtime.efficiency", median(tps)/(1e9/ref.nsPerTuple), nil)
	r.put("keypart.replica_skew", d.replicaSkew(plain.metrics), nil)
	// Declared service times only steer the optimizer on unpadded
	// workloads; the model predicts nothing about their rates.
	if !w.cfg.NoServicePadding {
		modelErr, worstOp, _ := d.rateCheck([]*window{plain})
		r.put("runtime.model_err_pct", 100*modelErr, nil)
		r.put("runtime.model_err_worst_op_pct", 100*worstOp, nil)
	}
	r.Stations = stationRows(d, timed)
	busiest := 0.0
	for _, row := range r.Stations {
		busiest = max(busiest, row.OpBusyShare)
	}
	r.put("runtime.max_op_busy_share", busiest, nil)
	r.put("trace_overhead_pct", median(traceOver), traceOver)
	r.put("obs.overhead_pct", median(obsOver), obsOver)
	r.put("obs.estimator_overhead_pct", median(estOver), estOver)
	r.put("distributed.tps_default", dist.metrics.Throughput, nil)
	r.put("distributed.tps_batched", distBatched.metrics.Throughput, nil)
	r.put("distributed.vs_local_ratio", dist.metrics.Throughput/local.metrics.Throughput, nil)

	r.SelfTimeMs = make(map[string]float64)
	for name, t := range tr.selfTimes(run) {
		r.SelfTimeMs[name] = ms(t)
	}
	return r
}
