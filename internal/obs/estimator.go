package obs

import (
	"errors"
	"fmt"
	"sync"

	"spinstreams/internal/profiler"
)

// Online service-rate estimation, after Beard & Chamberlain ("Run Time
// Approximation of Non-blocking Service Rates for Streaming Systems"):
// instead of timing individual tuple services or running an offline
// profiling pass, the estimator periodically samples every
// station's mailbox occupancy — a cheap atomic read the dataplane already
// accounts — and classifies each inter-sample interval into a regime:
//
//	busy     the station entered the interval with queued work and was not
//	         throttled by downstream backpressure; tuples consumed during
//	         busy intervals ran at the station's true non-blocking rate
//	idle     the queue was dry when the interval began; the station may
//	         have been starved, so its consumption rate says nothing
//	         about its service capacity
//	blocked  a downstream mailbox was full when the interval began;
//	         consumption was paced by the bottleneck, not by this station
//
// Classification conditions on the interval's *start* state only. That is
// deliberate: selecting intervals on their end state is anti-causal and
// length-biases the pool — a completion typically drains the queue, so
// requiring the queue non-empty at both endpoints systematically discards
// exactly the intervals that carry completions and keeps mid-service
// slivers, underestimating the rate badly on moderately loaded stations.
// A start-conditioned (previsible) selection cannot bias the completion
// rate: a station that begins an interval with queued work serves
// continuously through it, up to a possible backpressure onset — which is
// corrected by halving the interval's busy-time credit when the end
// sample is blocked (midpoint estimate of the stall onset).
//
// Two further refinements harden the pool against live-runtime regimes:
//
//   - Rate evidence requires a busy RUN of at least two intervals. With
//     near-deterministic service and phase-locked arrivals (a replica fed
//     round-robin below saturation), the queue is non-empty only in short
//     slivers immediately before a completion; sampling inside such a
//     sliver all but guarantees a completion in the next tick, inflating
//     the rate. Requiring the prior interval to have been busy too —
//     still a condition on the past — admits only sustained congestion,
//     where the completion rate over the credited time is the service
//     rate for any service distribution.
//
//   - Evidence persists across measurement windows with exponential decay
//     (CarryDecay per BeginWindow), pooled over all of an operator's
//     stations including retired ones. The service capacity is a property
//     of the operator, not of a particular epoch's stations: after a
//     rescale halves each replica's load, a single window may hold almost
//     no fresh busy evidence, and without carry the autotune loop would
//     re-trust the (wrong) declared profile and oscillate.
//
// The non-blocking service rate is then reconstructed as the tuples
// consumed during busy intervals divided by the busy time, pooled over a
// logical operator's worker stations; selectivities fall out of the
// windowed consumed/emitted counter deltas, which need no regime filter.
// Each estimate carries a confidence in [0,1) that grows with the number
// of busy intervals observed — an operator that never accumulates queue
// (or is always saturated) yields confidence 0 and service time 0, which
// profiler.Apply treats as "keep the declared profile", so the estimator
// degrades to the static model instead of to garbage.

// StationSample is one periodic observation of one station: identity,
// instantaneous mailbox gauges, and cumulative tuple counters.
type StationSample struct {
	// Info is the station's identity; it must be stable per index across
	// Observe calls (station indices are append-only, like the registry's).
	Info StationInfo
	// Queued and Capacity are the station inbox's instantaneous depth and
	// BAS bound in tuples.
	Queued, Capacity uint64
	// Consumed, Emitted, Arrived and Dropped are the station's cumulative
	// (lifetime) tuple counters at sample time.
	Consumed, Emitted, Arrived, Dropped uint64
	// Blocked reports that at sample time the station's output was
	// throttled: some downstream inbox it sends into was full.
	Blocked bool
	// Retired reports that a live reconfiguration drained and stopped the
	// station; the estimator freezes its accumulators.
	Retired bool
}

// EstimatorConfig tunes the regime classifier and the confidence model.
type EstimatorConfig struct {
	// BusyDepth is the minimum queue depth at the start of an interval for
	// the interval to count as busy (default 1).
	BusyDepth uint64
	// SaturationFrac is the fraction of capacity above which a sample
	// counts as saturated (default: the drift report's saturation band).
	SaturationFrac float64
	// ConfidencePrior is the pseudo-count K in the confidence model
	// evidence/(evidence+K) (default 8): how many evidence intervals an
	// estimate needs before it outweighs the declared profile.
	ConfidencePrior float64
	// CarryDecay is the fraction of accumulated rate evidence BeginWindow
	// carries into the next window (default 0.5; negative for 0 — strict
	// per-window evidence; values above 1 clamp to 1 — never forget).
	CarryDecay float64
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.BusyDepth == 0 {
		c.BusyDepth = 1
	}
	if c.SaturationFrac <= 0 {
		c.SaturationFrac = saturationRho
	}
	if c.ConfidencePrior <= 0 {
		c.ConfidencePrior = 8
	}
	switch {
	case c.CarryDecay < 0:
		c.CarryDecay = 0
	case c.CarryDecay == 0:
		c.CarryDecay = 0.5
	case c.CarryDecay > 1:
		c.CarryDecay = 1
	}
	return c
}

// estStation accumulates one station's regime statistics over the current
// measurement window.
type estStation struct {
	info    StationInfo
	seen    bool
	retired bool
	// prev is the latest sample; base holds the cumulative counters at the
	// start of the window (or at first sight, for stations added mid-window
	// by a live reconfiguration).
	prev, base StationSample

	// busyRun counts consecutive busy-classified intervals ending at prev;
	// only the second and later intervals of a run contribute evidence.
	busyRun int

	// Rate evidence: busy time, completions during it and evidence-interval
	// count. Carried (decayed) across windows, frozen on retirement.
	evSeconds  float64
	evConsumed float64
	evSamples  float64

	// Per-window regime diagnostics.
	samples          int
	busySamples      int
	blockedSamples   int
	saturatedSamples int
}

// Estimator reconstructs non-blocking service rates and selectivities from
// periodic occupancy samples. All methods are safe for concurrent use; the
// runtime's sampler goroutine feeds Observe while the registry's window
// marks call BeginWindow and Drift calls Measure.
type Estimator struct {
	cfg EstimatorConfig

	mu            sync.Mutex
	sts           []*estStation
	primed        bool
	windowSeconds float64
}

// NewEstimator returns an estimator with the given configuration (zero
// value for defaults).
func NewEstimator(cfg EstimatorConfig) *Estimator {
	return &Estimator{cfg: cfg.withDefaults()}
}

// Observe ingests one sampling tick: samples[i] describes station i,
// dtSeconds is the time since the previous tick. Station indices are
// append-only — the slice may grow between calls (live reconfiguration
// adding stations) but never shrink; new stations start accumulating from
// their first sample.
func (e *Estimator) Observe(dtSeconds float64, samples []StationSample) error {
	if dtSeconds <= 0 {
		return fmt.Errorf("obs: non-positive sampling interval %v", dtSeconds)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(samples) < len(e.sts) {
		return fmt.Errorf("obs: estimator observed %d stations, previously %d", len(samples), len(e.sts))
	}
	for len(e.sts) < len(samples) {
		e.sts = append(e.sts, &estStation{})
	}
	if e.primed {
		e.windowSeconds += dtSeconds
	}
	for i := range samples {
		s := samples[i]
		st := e.sts[i]
		if !st.seen {
			st.seen = true
			st.info = s.Info
			st.prev, st.base = s, s
			st.retired = s.Retired
			continue
		}
		if s.Retired {
			// Freeze: the station drained and stopped; its counters stay in
			// lifetime totals but contribute no further regime statistics.
			st.retired = true
			st.prev = s
			continue
		}
		busy := !st.prev.Blocked
		if !s.Info.Source {
			busy = busy && st.prev.Queued >= e.cfg.BusyDepth
		}
		st.samples++
		if st.prev.Blocked || s.Blocked {
			st.blockedSamples++
		}
		if busy {
			st.busySamples++
			st.busyRun++
			// Only the second and later intervals of a busy run carry rate
			// evidence: a one-interval run is a congestion sliver whose
			// sampling is correlated with an imminent completion.
			if st.busyRun >= 2 {
				st.evSamples++
				if s.Blocked {
					// Backpressure set in mid-interval: the station served only
					// part of it. The onset instant is unobservable; credit the
					// midpoint. Completions still count in full — they can only
					// have happened while serving.
					st.evSeconds += dtSeconds / 2
				} else {
					st.evSeconds += dtSeconds
				}
				// Counters are monotone (registry cells survive restarts and
				// epoch swaps); guard the delta anyway — a wrapped uint64 here
				// would poison the whole window's rate.
				if s.Consumed > st.prev.Consumed {
					st.evConsumed += float64(s.Consumed - st.prev.Consumed)
				}
			}
		} else {
			st.busyRun = 0
		}
		if s.Capacity > 0 && float64(s.Queued) >= e.cfg.SaturationFrac*float64(s.Capacity) {
			st.saturatedSamples++
		}
		st.prev = s
	}
	e.primed = true
	return nil
}

// BeginWindow starts a new measurement window: counter baselines move to
// each station's latest sample, the regime diagnostics reset, and the rate
// evidence decays by CarryDecay. Registry.MarkWindowBegin calls it at the
// start of each measurement window.
func (e *Estimator) BeginWindow() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.windowSeconds = 0
	for _, st := range e.sts {
		if !st.seen {
			continue
		}
		st.base = st.prev
		// Rate evidence ages out instead of vanishing: the service capacity
		// it measures is a property of the operator, not of the window.
		st.evSeconds *= e.cfg.CarryDecay
		st.evConsumed *= e.cfg.CarryDecay
		st.evSamples *= e.cfg.CarryDecay
		st.samples = 0
		st.busySamples = 0
		st.blockedSamples = 0
		st.saturatedSamples = 0
	}
}

// RateEstimate is one logical operator's reconstructed figures.
type RateEstimate struct {
	// Op is the logical operator; Name is its first worker station's name.
	Op   int
	Name string
	// Rate is the estimated per-replica non-blocking service rate in
	// tuples/s (0 when no busy intervals were observed); ServiceTime is its
	// reciprocal in seconds.
	Rate, ServiceTime float64
	// Gain is the windowed emitted/consumed ratio (measured selectivity).
	Gain float64
	// Confidence in [0,1) grows with the number of evidence intervals:
	// n/(n+K). 0 means "no evidence — keep the declared profile".
	Confidence float64
	// BusySeconds is the accumulated (carry-decayed) rate-evidence time
	// pooled across all of the operator's stations, including retired ones;
	// Samples/BusySamples/BlockedSamples/SaturatedSamples count the current
	// window's classified intervals on live stations (saturation overlaps
	// the other regimes).
	BusySeconds                                            float64
	Samples, BusySamples, BlockedSamples, SaturatedSamples int
	// Workers is the number of live worker stations pooled.
	Workers int
}

// Measurement is one window's estimator output: the same per-operator
// measured rates the registry's window marks produce, plus reconstructed
// profiles with per-operator confidences, ready for DriftFromProfiles.
type Measurement struct {
	// Seconds is the accumulated sampling time in the window.
	Seconds float64
	// Rates are per-operator windowed counter rates, derived purely from
	// the sampled cumulative counters.
	Rates *MeasuredRates
	// Profiles are the reconstructed per-operator profiles; ServiceTime is
	// 0 for operators with no busy evidence (profiler.Apply keeps the
	// declared value).
	Profiles []profiler.Profile
	// Confidence is the per-operator confidence, aligned with Profiles.
	Confidence []float64
	// Estimates is the full per-operator detail.
	Estimates []RateEstimate
}

// Measure reconstructs the window's measurement. It never invents rates:
// operators without busy evidence get ServiceTime 0 and confidence 0.
func (e *Estimator) Measure() (*Measurement, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.windowSeconds <= 0 {
		return nil, errors.New("obs: estimator has no completed sampling intervals in this window")
	}
	begin := &Snapshot{Stations: make([]StationSnapshot, len(e.sts))}
	end := &Snapshot{Stations: make([]StationSnapshot, len(e.sts))}
	for i, st := range e.sts {
		begin.Stations[i] = syntheticSnapshot(st.info, st.base, st.retired)
		end.Stations[i] = syntheticSnapshot(st.info, st.prev, st.retired)
	}
	rates, err := RatesBetween(begin, end, e.windowSeconds)
	if err != nil {
		return nil, err
	}
	groups, err := groupOps(end.Stations)
	if err != nil {
		return nil, err
	}
	m := &Measurement{
		Seconds:    e.windowSeconds,
		Rates:      rates,
		Profiles:   make([]profiler.Profile, len(groups)),
		Confidence: make([]float64, len(groups)),
		Estimates:  make([]RateEstimate, len(groups)),
	}
	// Rate evidence pools over every station the operator has ever run,
	// retired ones included: the non-blocking service rate is replica- and
	// epoch-invariant, and after a rescale the freshly underloaded replicas
	// may take several windows to accumulate busy runs of their own.
	evSec := make([]float64, len(groups))
	evCons := make([]float64, len(groups))
	evN := make([]float64, len(groups))
	for _, st := range e.sts {
		if !st.seen || st.info.Op < 0 || st.info.Op >= len(groups) {
			continue
		}
		if st.info.Role != "source" && st.info.Role != "worker" {
			continue
		}
		evSec[st.info.Op] += st.evSeconds
		evCons[st.info.Op] += st.evConsumed
		evN[st.info.Op] += st.evSamples
	}
	for op, g := range groups {
		est := &m.Estimates[op]
		est.Op = op
		est.Workers = len(g.workers)
		est.BusySeconds = evSec[op]
		var consumed, emitted uint64
		for _, i := range g.workers {
			st := e.sts[i]
			est.Samples += st.samples
			est.BusySamples += st.busySamples
			est.BlockedSamples += st.blockedSamples
			est.SaturatedSamples += st.saturatedSamples
			consumed += st.prev.Consumed - st.base.Consumed
		}
		for _, i := range g.outSide {
			st := e.sts[i]
			emitted += st.prev.Emitted - st.base.Emitted
		}
		if len(g.workers) > 0 {
			est.Name = end.Stations[g.workers[0]].Name
		}
		if evSec[op] > 0 && evCons[op] > 0 {
			est.Rate = evCons[op] / evSec[op]
			est.ServiceTime = 1 / est.Rate
			// The rate is a completion count over an observed exposure; its
			// relative error shrinks with both, so confidence is gated on
			// whichever is scarcer (many near-empty intervals prove as
			// little as one long one).
			n := evN[op]
			if evCons[op] < n {
				n = evCons[op]
			}
			est.Confidence = n / (n + e.cfg.ConfidencePrior)
		}
		if consumed > 0 {
			est.Gain = float64(emitted) / float64(consumed)
		}
		p := &m.Profiles[op]
		p.ServiceTime = est.ServiceTime
		p.Consumed, p.Emitted = consumed, emitted
		p.Gain = est.Gain
		p.InputSelectivity = 1
		p.OutputSelectivity = est.Gain
		m.Confidence[op] = est.Confidence
	}
	return m, nil
}

// syntheticSnapshot lifts a station sample into the snapshot shape the
// rate machinery consumes.
func syntheticSnapshot(info StationInfo, s StationSample, retired bool) StationSnapshot {
	return StationSnapshot{
		StationInfo: info,
		Consumed:    s.Consumed,
		Emitted:     s.Emitted,
		Arrived:     s.Arrived,
		Dropped:     s.Dropped,
		Retired:     retired,
		Queued:      s.Queued,
		Capacity:    s.Capacity,
	}
}
