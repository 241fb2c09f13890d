package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/profiler"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
)

// Probe-free estimation sweep: the simulated analogue of the runtime's
// occupancy-sampling estimator, validated against qsim ground truth. Each
// run generates a random topology, simulates it with periodic occupancy
// sampling, feeds every sample into an obs.Estimator exactly as the live
// sampler goroutine would, and compares the reconstructed non-blocking
// service rates with the rates the simulator was configured with — plus
// the decision-level check: starting from deliberately misdeclared
// service times, re-optimization on the estimated profiles must crown the
// same bottleneck as re-optimization on the exact ones.

// EstimatorOptions is the configuration of the probe-free estimation
// sweep.
type EstimatorOptions struct {
	// Seeds is the number of corpus topologies (x3 workloads; default 34,
	// the differential test's corpus).
	Seeds int
	// Horizon is the simulated seconds per run (8).
	Horizon float64
	// SampleEvery is the occupancy sampling tick in seconds (1e-3, the
	// runtime's estimator default).
	SampleEvery float64
	// ConfFloor is the confidence below which an estimate is excluded from
	// the error pool (0.60 — at confidence n/(n+8) that means at least 12
	// completions of evidence behind every pooled estimate).
	ConfFloor float64
}

// EstimatorRow aggregates one workload (or the pooled corpus) of the
// sweep.
type EstimatorRow struct {
	Workload string
	// Runs is the number of (seed, workload) simulations; Ops counts their
	// non-source operators, split into Confident (estimate above the
	// confidence floor, held to the error bounds) and LowConf (excluded —
	// "no evidence" degrades to the declared profile, it never invents a
	// rate).
	Runs, Ops, Confident, LowConf int
	// MedianErr/P95Err/MaxErr summarize the per-operator service-rate
	// relative error of the confident estimates.
	MedianErr, P95Err, MaxErr float64
	// Agreement is the fraction of runs where Reoptimize fed the estimated
	// profiles picks the same bottleneck as Reoptimize fed the exact ones,
	// from a misdeclared starting model.
	Agreement float64
}

// EstimatorResult is the full sweep.
type EstimatorResult struct {
	Options EstimatorOptions
	// Rows hold one summary per workload plus the pooled "all" row last.
	Rows []EstimatorRow
}

// estimatorWorkloads is the envelope sweep, matching the differential
// test corpus.
func estimatorWorkloads() []Workload {
	return []Workload{Steady(), Bursty(4, 0.25, 2), HotKeySkew(0.6)}
}

// estimatorTopology builds one corpus topology (service times 1-8 ms, the
// occupancy tick's neighbourhood, where discretization is hardest).
func estimatorTopology(seed uint64) (*core.Topology, error) {
	g, err := randtopo.Generate(randtopo.Config{
		Seed:           seed,
		MinOps:         4,
		MaxOps:         8,
		ServiceTimeMin: 1e-3,
		ServiceTimeMax: 8e-3,
	})
	if err != nil {
		return nil, err
	}
	return g.Topology, nil
}

// estimatorSimulate runs qsim over the deployed topology's plan with
// occupancy sampling and feeds the stream into a fresh estimator.
func estimatorSimulate(deployed *core.Topology, w Workload, seed uint64, o EstimatorOptions) (*obs.Measurement, error) {
	p, err := plan.Build(deployed, plan.Options{})
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	infos := make([]obs.StationInfo, len(p.Stations))
	for i := range p.Stations {
		infos[i] = obs.InfoOf(&p.Stations[i])
	}
	est := obs.NewEstimator(obs.EstimatorConfig{})
	prev := 0.0
	var buf []obs.StationSample
	var observeErr error
	cfg := qsim.Config{
		Seed:         seed,
		Horizon:      o.Horizon,
		SampleEvery:  o.SampleEvery,
		RateEnvelope: w.Envelope,
		OnSample: func(now float64, sts []qsim.Sample) {
			dt := now - prev
			prev = now
			if dt <= 0 {
				return
			}
			buf = buf[:0]
			for _, s := range sts {
				buf = append(buf, obs.StationSample{
					Info:     infos[s.Station],
					Queued:   uint64(s.Queued),
					Capacity: uint64(s.Capacity),
					Consumed: s.Consumed,
					Emitted:  s.Emitted,
					Arrived:  s.Arrived,
					Dropped:  s.Dropped,
					Blocked:  s.Blocked,
				})
			}
			if err := est.Observe(dt, buf); err != nil && observeErr == nil {
				observeErr = err
			}
		},
	}
	if _, err := qsim.Simulate(p, cfg); err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	if observeErr != nil {
		return nil, fmt.Errorf("observe: %w", observeErr)
	}
	return est.Measure()
}

// estimatorMisdeclare clones the topology with each declared service time
// scaled by a seeded factor in [0.6, 1.8] — the drifted model the
// estimator exists to correct.
func estimatorMisdeclare(topo *core.Topology, seed uint64) *core.Topology {
	mis := topo.Clone()
	rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 97))
	for i := 0; i < mis.Len(); i++ {
		mis.Op(core.OpID(i)).ServiceTime *= 0.6 + 1.2*rng.Float64()
	}
	return mis
}

// estimatorBottleneck returns the non-source operator with the highest
// baseline utilization — the operator fission would attack first.
func estimatorBottleneck(res *opt.Result, topo *core.Topology) int {
	best, bestRho := -1, -1.0
	for i, rho := range res.Baseline.Rho {
		if topo.Op(core.OpID(i)).Kind == core.KindSource {
			continue
		}
		if rho > bestRho {
			best, bestRho = i, rho
		}
	}
	return best
}

// estimator runs the probe-free estimation sweep over seeds corpus
// topologies (0 = 34).
func estimator(ctx context.Context, seeds int) (*EstimatorResult, error) {
	if seeds <= 0 {
		seeds = 34
	}
	o := EstimatorOptions{Seeds: seeds, Horizon: 8, SampleEvery: 1e-3, ConfFloor: 0.60}
	buckets := map[string]*estimatorBucket{}
	order := []string{}
	for seed := uint64(1); seed <= uint64(o.Seeds); seed++ {
		for _, w := range estimatorWorkloads() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			b := buckets[w.Name]
			if b == nil {
				b = &estimatorBucket{}
				buckets[w.Name] = b
				order = append(order, w.Name)
			}
			base, err := estimatorTopology(seed)
			if err != nil {
				return nil, fmt.Errorf("estimator: seed %d: %w", seed, err)
			}
			deployed := w.Apply(base)
			m, err := estimatorSimulate(deployed, w, seed, o)
			if err != nil {
				return nil, fmt.Errorf("estimator: seed %d/%s: %w", seed, w.Name, err)
			}
			b.runs++
			for i := 0; i < deployed.Len(); i++ {
				op := deployed.Op(core.OpID(i))
				if op.Kind == core.KindSource {
					// A source's busy rate tracks the envelope-modulated
					// offered load, not 1/ServiceTime.
					continue
				}
				b.ops++
				if m.Confidence[i] < o.ConfFloor {
					b.low++
					continue
				}
				trueRate := 1 / op.ServiceTime
				b.errs = append(b.errs, math.Abs(m.Estimates[i].Rate-trueRate)/trueRate)
			}
			mis := estimatorMisdeclare(deployed, seed)
			repEst, err := obs.DriftFromProfiles(mis, nil, m.Rates, m.Profiles, m.Confidence)
			if err != nil {
				return nil, fmt.Errorf("estimator: seed %d/%s: drift: %w", seed, w.Name, err)
			}
			deltaEst, err := opt.Reoptimize(opt.NewSnapshot(mis), repEst, opt.Options{})
			if err != nil {
				return nil, fmt.Errorf("estimator: seed %d/%s: reoptimize: %w", seed, w.Name, err)
			}
			trueProfiles := make([]profiler.Profile, deployed.Len())
			for i := range trueProfiles {
				trueProfiles[i].ServiceTime = deployed.Op(core.OpID(i)).ServiceTime
			}
			repTrue, err := obs.DriftFromProfiles(mis, nil, m.Rates, trueProfiles, nil)
			if err != nil {
				return nil, fmt.Errorf("estimator: seed %d/%s: true drift: %w", seed, w.Name, err)
			}
			deltaTrue, err := opt.Reoptimize(opt.NewSnapshot(mis), repTrue, opt.Options{})
			if err != nil {
				return nil, fmt.Errorf("estimator: seed %d/%s: true reoptimize: %w", seed, w.Name, err)
			}
			estTop := estimatorBottleneck(deltaEst.Result, mis)
			trueTop := estimatorBottleneck(deltaTrue.Result, mis)
			trueRho := deltaTrue.Result.Baseline.Rho
			if estTop == trueTop ||
				(estTop >= 0 && trueTop >= 0 && trueRho[estTop] >= trueRho[trueTop]*0.90) {
				b.agree++
			}
		}
	}
	res := &EstimatorResult{Options: o}
	pooled := &estimatorBucket{}
	for _, name := range order {
		b := buckets[name]
		res.Rows = append(res.Rows, summarizeEstimator(name, b))
		pooled.errs = append(pooled.errs, b.errs...)
		pooled.runs += b.runs
		pooled.agree += b.agree
		pooled.ops += b.ops
		pooled.low += b.low
	}
	res.Rows = append(res.Rows, summarizeEstimator("all", pooled))
	return res, nil
}

// estimatorBucket accumulates one workload's sweep outcomes.
type estimatorBucket struct {
	errs        []float64
	runs, agree int
	ops, low    int
}

func summarizeEstimator(name string, b *estimatorBucket) EstimatorRow {
	row := EstimatorRow{
		Workload:  name,
		Runs:      b.runs,
		Ops:       b.ops,
		Confident: len(b.errs),
		LowConf:   b.low,
	}
	if b.runs > 0 {
		row.Agreement = float64(b.agree) / float64(b.runs)
	}
	if len(b.errs) > 0 {
		errs := append([]float64(nil), b.errs...)
		sort.Float64s(errs)
		row.MedianErr = errs[len(errs)/2]
		row.P95Err = errs[(len(errs)*95)/100]
		row.MaxErr = errs[len(errs)-1]
	}
	return row
}

// checkEstimator holds the pooled sweep to the documented bounds: rate
// error median <= 10% and p95 <= 25% over confident operators, bottleneck
// agreement >= 90% of runs, and at least one confident operator per run on
// average (the floor must not silently exclude the corpus).
func checkEstimator(r Result) error {
	res, ok := r.(*EstimatorResult)
	if !ok {
		return fmt.Errorf("estimator check: unexpected result type %T", r)
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("estimator check: no rows")
	}
	pooled := res.Rows[len(res.Rows)-1]
	if pooled.Workload != "all" {
		return fmt.Errorf("estimator check: pooled row missing")
	}
	if pooled.Confident < pooled.Runs {
		return fmt.Errorf("estimator check: only %d confident estimates over %d runs", pooled.Confident, pooled.Runs)
	}
	if pooled.MedianErr > 0.10 {
		return fmt.Errorf("estimator check: median rate error %.1f%% > 10%%", pooled.MedianErr*100)
	}
	if pooled.P95Err > 0.25 {
		return fmt.Errorf("estimator check: p95 rate error %.1f%% > 25%%", pooled.P95Err*100)
	}
	if pooled.Agreement < 0.90 {
		return fmt.Errorf("estimator check: bottleneck agreement %.1f%% < 90%%", pooled.Agreement*100)
	}
	return nil
}

// Header implements Tabular.
func (r *EstimatorResult) Header() []string {
	return []string{"workload", "runs", "ops", "confident", "low_conf", "median_err", "p95_err", "max_err", "bottleneck_agreement"}
}

// TableRows implements Tabular.
func (r *EstimatorResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload,
			fmt.Sprintf("%d", row.Runs),
			fmt.Sprintf("%d", row.Ops),
			fmt.Sprintf("%d", row.Confident),
			fmt.Sprintf("%d", row.LowConf),
			fmt.Sprintf("%.4f", row.MedianErr),
			fmt.Sprintf("%.4f", row.P95Err),
			fmt.Sprintf("%.4f", row.MaxErr),
			fmt.Sprintf("%.4f", row.Agreement),
		})
	}
	return rows
}

// String renders the sweep.
func (r *EstimatorResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Probe-free estimation vs qsim ground truth (%d seeds x 3 workloads, %.0fs horizon, %.0fms tick)\n",
		r.Options.Seeds, r.Options.Horizon, r.Options.SampleEvery*1e3)
	b.WriteString("workload   runs   ops  confident  low   median     p95     max   agreement\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %5d %5d %10d %4d %7.2f%% %6.2f%% %6.2f%% %10.1f%%\n",
			row.Workload, row.Runs, row.Ops, row.Confident, row.LowConf,
			row.MedianErr*100, row.P95Err*100, row.MaxErr*100, row.Agreement*100)
	}
	b.WriteString("confident = estimate above the confidence floor (>= 12 completions of evidence);\n")
	b.WriteString("low-confidence operators keep their declared profiles (the estimator never invents rates).\n")
	return b.String()
}
