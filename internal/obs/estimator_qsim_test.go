package obs_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/experiments"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/profiler"
	"spinstreams/internal/qsim"
)

// Differential validation of the online service-rate estimator against
// qsim ground truth (the probe-free analogue of TestLiveDriftAgainstModel).
//
// Each corpus run builds a random topology, simulates its plan with qsim's
// periodic occupancy sampling enabled, and feeds every sample into an
// obs.Estimator exactly the way the runtime's sampler goroutine would —
// mailbox depth, cumulative counters, blocked-downstream regime — with no
// access to qsim's internal service clocks (the live estimator times no
// tuple either). The reconstructed per-operator service rate is then
// compared with the rate the simulator was actually configured with
// (1/ServiceTime): the busy-interval conditioning must recover the
// non-blocking rate even for operators that are idle or backpressured
// most of the window (Beard & Chamberlain's mean-queue/regime argument).
//
// Documented error bounds, pooled over the whole corpus (>= 100 seed x
// workload runs, steady/bursty/hotkey envelopes), confident non-source
// operators only:
//
//   - per-operator service-rate relative error: median <= 10%, p95 <= 25%.
//     The tail is evidence scarcity: a lightly loaded operator's busy
//     evidence comes from rare residual-life episodes (one waiting tuple,
//     one completion, a heavily skewed random duration), so its estimate
//     converges like 1/sqrt(completions). The confidence floor is
//     calibrated to that: with confidence n/(n+8) on n = min(evidence
//     intervals, completions), a floor of 0.60 admits only estimates
//     backed by >= 12 completions (~30% standard error for a single
//     estimate, consistent with a 25% p95 over the pool).
//
// On top of the rate bound, re-optimization must be insensitive to the
// substitution: opt.Reoptimize fed the estimated profiles (with their
// confidences) must identify the same bottleneck operator as when fed the
// exact profiles, on >= 90% of runs, starting from a deliberately
// *misdeclared* topology (declared service times perturbed by a seeded
// factor in [0.6, 1.8]) so agreement cannot come from the declaration
// leaking through the blend. The comparison ranges over non-source
// operators — fission cannot replicate a source, and a source's estimated
// rate deliberately tracks the envelope-modulated offered load (a source
// idling through a burst trough is indistinguishable from a slow one
// without probes). Two operators within 10% utilization of each other
// count as a tie: at that separation the est-fed and true-fed runs pick
// interchangeable bottlenecks, and so would two runs on exact profiles.
const (
	estDiffMedianTol  = 0.10 // pooled per-operator rate error, median
	estDiffP95Tol     = 0.25 // pooled per-operator rate error, p95
	estDiffOrderAgree = 0.90 // fraction of runs with matching bottleneck
	estDiffRhoTie     = 0.10 // bottleneck tie tolerance on true rho
	estDiffConfFloor  = 0.60 // >= 12 completions of evidence (see calibration above)
	estDiffSample     = 1e-3 // qsim sampling tick (seconds), as the runtime default
	estDiffHorizon    = 8.0  // simulated seconds per run
	estDiffSeeds      = 34   // x3 workloads = 102 runs
)

// estDiffWorkloads is the envelope sweep: steady load, 4x bursts at 25%
// duty, and hot-key skew (exercises the partitioned-stateful frequency
// rewrite; with single replicas it must be rate-neutral).
func estDiffWorkloads() []experiments.Workload {
	return []experiments.Workload{
		experiments.Steady(),
		experiments.Bursty(4, 0.25, 2),
		experiments.HotKeySkew(0.6),
	}
}

// estDiffRun is one seed x workload outcome.
type estDiffRun struct {
	errs      []float64 // rate errors of confident non-source operators
	lowConf   int       // operators excluded by the confidence floor
	orderOK   bool      // est-fed and true-fed Reoptimize agree on the bottleneck
	confident int
	totalOps  int
}

// simulateEstimator runs qsim over the deployed topology's plan and feeds
// the sampling stream into a fresh estimator, returning its measurement.
func simulateEstimator(t *testing.T, deployed *core.Topology, w experiments.Workload, seed uint64) *obs.Measurement {
	t.Helper()
	p, err := plan.Build(deployed, plan.Options{})
	if err != nil {
		t.Fatalf("seed %d/%s: plan: %v", seed, w.Name, err)
	}
	// The same station descriptors the runtime hands the registry: the
	// estimator groups and pools by Info, not by qsim internals.
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
		Horizon:      estDiffHorizon,
		SampleEvery:  estDiffSample,
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
		t.Fatalf("seed %d/%s: simulate: %v", seed, w.Name, err)
	}
	if observeErr != nil {
		t.Fatalf("seed %d/%s: observe: %v", seed, w.Name, observeErr)
	}
	m, err := est.Measure()
	if err != nil {
		t.Fatalf("seed %d/%s: measure: %v", seed, w.Name, err)
	}
	return m
}

// misdeclare clones the topology with each operator's declared service
// time scaled by a seeded factor in [0.6, 1.8] — the "model drifted from
// reality" starting point the estimator exists to correct.
func misdeclare(topo *core.Topology, seed uint64) *core.Topology {
	mis := topo.Clone()
	rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 97))
	for i := 0; i < mis.Len(); i++ {
		mis.Op(core.OpID(i)).ServiceTime *= 0.6 + 1.2*rng.Float64()
	}
	return mis
}

// bottleneckOf returns the non-source operator with the highest baseline
// utilization in a re-optimization result (replicas all one on the
// reprofiled input) — the operator fission would attack first.
func bottleneckOf(res *opt.Result, topo *core.Topology) int {
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

func runEstimatorDifferential(t *testing.T, seed uint64, w experiments.Workload) estDiffRun {
	t.Helper()
	deployed := w.Apply(genTopology(t, seed))
	m := simulateEstimator(t, deployed, w, seed)

	run := estDiffRun{totalOps: deployed.Len()}
	for i := 0; i < deployed.Len(); i++ {
		op := deployed.Op(core.OpID(i))
		if op.Kind == core.KindSource {
			// A source's busy rate tracks the envelope-modulated offered
			// load, not 1/ServiceTime; sources are profiled, not bounded.
			continue
		}
		if m.Confidence[i] < estDiffConfFloor {
			run.lowConf++
			continue
		}
		run.confident++
		trueRate := 1 / op.ServiceTime
		run.errs = append(run.errs, math.Abs(m.Estimates[i].Rate-trueRate)/trueRate)
	}

	// Bottleneck agreement under misdeclaration: feed Reoptimize the
	// estimated profiles (confidence-blended against the *wrong* declared
	// times) and the exact profiles, and compare which operator each run
	// crowns the bottleneck.
	mis := misdeclare(deployed, seed)
	repEst, err := obs.DriftFromProfiles(mis, nil, m.Rates, m.Profiles, m.Confidence)
	if err != nil {
		t.Fatalf("seed %d/%s: drift (estimated): %v", seed, w.Name, err)
	}
	deltaEst, err := opt.Reoptimize(opt.NewSnapshot(mis), repEst, opt.Options{})
	if err != nil {
		t.Fatalf("seed %d/%s: reoptimize (estimated): %v", seed, w.Name, err)
	}
	trueProfiles := make([]profiler.Profile, deployed.Len())
	for i := range trueProfiles {
		trueProfiles[i].ServiceTime = deployed.Op(core.OpID(i)).ServiceTime
	}
	repTrue, err := obs.DriftFromProfiles(mis, nil, m.Rates, trueProfiles, nil)
	if err != nil {
		t.Fatalf("seed %d/%s: drift (true): %v", seed, w.Name, err)
	}
	deltaTrue, err := opt.Reoptimize(opt.NewSnapshot(mis), repTrue, opt.Options{})
	if err != nil {
		t.Fatalf("seed %d/%s: reoptimize (true): %v", seed, w.Name, err)
	}
	estTop, trueTop := bottleneckOf(deltaEst.Result, mis), bottleneckOf(deltaTrue.Result, mis)
	trueRho := deltaTrue.Result.Baseline.Rho
	run.orderOK = estTop == trueTop ||
		(estTop >= 0 && trueTop >= 0 && trueRho[estTop] >= trueRho[trueTop]*(1-estDiffRhoTie))
	return run
}

// TestEstimatorDifferentialQsim sweeps the corpus and holds the pooled
// errors and the bottleneck-agreement rate to the documented bounds.
func TestEstimatorDifferentialQsim(t *testing.T) {
	if testing.Short() {
		t.Skip("estimator differential corpus skipped in -short mode")
	}
	seeds := uint64(estDiffSeeds)
	if os.Getenv("SS_ESTIMATOR_SMOKE") == "1" {
		seeds = 4 // race-enabled CI slice: coverage, not statistics
	}
	var pooled []float64
	runs, agree := 0, 0
	confident, lowConf := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, w := range estDiffWorkloads() {
			w := w
			run := runEstimatorDifferential(t, seed, w)
			pooled = append(pooled, run.errs...)
			runs++
			if run.orderOK {
				agree++
			}
			confident += run.confident
			lowConf += run.lowConf
		}
	}
	if seeds == estDiffSeeds && runs < 100 {
		t.Fatalf("corpus too small: %d runs, want >= 100", runs)
	}
	if len(pooled) < runs {
		// The bounds are only meaningful if the floor is not silently
		// excluding the corpus: demand at least one confident operator
		// per run on average.
		t.Fatalf("only %d confident operator estimates over %d runs (%d below confidence floor %.2f)",
			len(pooled), runs, lowConf, estDiffConfFloor)
	}
	sort.Float64s(pooled)
	median := pooled[len(pooled)/2]
	p95 := pooled[(len(pooled)*95)/100]
	t.Logf("corpus: %d runs, %d confident ops (%d below floor); rate error median %.2f%% p95 %.2f%% max %.2f%%; bottleneck agreement %d/%d",
		runs, confident, lowConf, median*100, p95*100, pooled[len(pooled)-1]*100, agree, runs)
	if median > estDiffMedianTol {
		t.Errorf("median service-rate error %.2f%% > %.0f%%", median*100, estDiffMedianTol*100)
	}
	if p95 > estDiffP95Tol {
		t.Errorf("p95 service-rate error %.2f%% > %.0f%%", p95*100, estDiffP95Tol*100)
	}
	if frac := float64(agree) / float64(runs); frac < estDiffOrderAgree {
		t.Errorf("bottleneck agreement %.1f%% (%d/%d) < %.0f%%", frac*100, agree, runs, estDiffOrderAgree*100)
	}
}

// TestEstimatorDifferentialNoProbes pins the probe-free claim on the
// differential path itself: the estimator's profiles must carry service
// times reconstructed purely from occupancy samples — the qsim feed
// carries no per-tuple timing at all, so an estimator that needed any
// would surface here as zero service times everywhere.
func TestEstimatorDifferentialNoProbes(t *testing.T) {
	w := experiments.Steady()
	deployed := w.Apply(genTopology(t, 1))
	m := simulateEstimator(t, deployed, w, 1)
	withRate := 0
	for i := range m.Profiles {
		if m.Profiles[i].ServiceTime > 0 {
			withRate++
			if m.Confidence[i] <= 0 {
				t.Errorf("op %d: service time %.4fms with zero confidence", i, m.Profiles[i].ServiceTime*1e3)
			}
		}
	}
	if withRate == 0 {
		t.Fatal("no operator got an occupancy-derived service time")
	}
	if fmt.Sprint(m.Seconds) == "0" || m.Seconds < estDiffHorizon/2 {
		t.Errorf("window covered %.2fs of the %.0fs horizon", m.Seconds, estDiffHorizon)
	}
}
