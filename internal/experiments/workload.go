// Workload shapes extend the paper's steady-arrival evaluation with the
// production-shaped traffic the corpus runner stresses each topology
// with: bursty on/off arrivals, diurnal load curves, and hot-key skew on
// partitioned-stateful operators. A workload is applied in two places:
// its Envelope modulates the qsim source rate over simulated time, and
// its key transform rewrites the deployed topology's key-frequency
// distributions (the declared topology — what the static optimizer sees —
// stays untouched, which is exactly the blind spot the static-vs-autotune
// comparison measures).
package experiments

import (
	"fmt"
	"math"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
)

// Workload describes one traffic shape.
type Workload struct {
	// Name is the stable identifier used in corpus rows and flags.
	Name string
	// Envelope modulates the source generation rate over simulated time;
	// nil means steady (identically 1). Mean close to 1 keeps offered
	// load comparable across workloads.
	Envelope func(t float64) float64
	// HotKeyShare, when > 0, rewrites every partitioned-stateful
	// operator's key distribution so one key carries that input fraction
	// (the rest share the remainder evenly).
	HotKeyShare float64
}

// Steady is the paper's workload: constant-rate arrivals.
func Steady() Workload { return Workload{Name: "steady"} }

// Bursty alternates burst-factor and trough generation with the given
// duty cycle, normalized to mean 1: period seconds per cycle, the first
// duty fraction at `burst` times the base rate, the rest at a trough
// level chosen so the time-averaged envelope is 1.
func Bursty(burst, duty, period float64) Workload {
	if burst <= 1 {
		burst = 4
	}
	if duty <= 0 || duty >= 1 {
		duty = 0.25
	}
	if period <= 0 {
		period = 2
	}
	trough := (1 - burst*duty) / (1 - duty)
	if trough < 0.01 {
		trough = 0.01
	}
	return Workload{
		Name: "bursty",
		Envelope: func(t float64) float64 {
			if math.Mod(t, period) < duty*period {
				return burst
			}
			return trough
		},
	}
}

// Diurnal is a sinusoidal load curve with the given amplitude in (0, 1)
// and period in simulated seconds; mean 1 by construction.
func Diurnal(amp, period float64) Workload {
	if amp <= 0 || amp >= 1 {
		amp = 0.6
	}
	if period <= 0 {
		period = 8
	}
	return Workload{
		Name: "diurnal",
		Envelope: func(t float64) float64 {
			return 1 + amp*math.Sin(2*math.Pi*t/period)
		},
	}
}

// HotKeySkew keeps arrivals steady but concentrates the given share of
// every partitioned-stateful operator's traffic onto a single key —
// the skew that caps keypart's achievable pmax.
func HotKeySkew(share float64) Workload {
	if share <= 0 || share >= 1 {
		share = 0.6
	}
	return Workload{Name: "hotkey", HotKeyShare: share}
}

// workloadByName resolves the canonical corpus workloads.
func workloadByName(name string) (Workload, error) {
	switch name {
	case "steady":
		return Steady(), nil
	case "bursty":
		return Bursty(4, 0.25, 2), nil
	case "diurnal":
		return Diurnal(0.6, 8), nil
	case "hotkey":
		return HotKeySkew(0.6), nil
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have steady, bursty, diurnal, hotkey)", name)
}

// Apply returns the deployed topology under this workload: a clone with
// the key-skew transform applied (or the input itself when the workload
// does not touch keys).
func (w Workload) Apply(t *core.Topology) *core.Topology {
	if w.HotKeyShare <= 0 {
		return t
	}
	out := t.Clone()
	for i := 0; i < out.Len(); i++ {
		op := out.Op(core.OpID(i))
		if op.Kind != core.KindPartitionedStateful || op.Keys == nil || len(op.Keys.Freq) < 2 {
			continue
		}
		n := len(op.Keys.Freq)
		freq := make([]float64, n)
		rest := (1 - w.HotKeyShare) / float64(n-1)
		for k := range freq {
			freq[k] = rest
		}
		freq[0] = w.HotKeyShare
		op.Keys = &core.KeyDistribution{Freq: freq}
	}
	return out
}

// MeanEnvelope is the time-averaged envelope over [from, to], sampled at
// fine steps (the envelopes are piecewise-smooth, so midpoint sampling
// converges quickly).
func (w Workload) MeanEnvelope(from, to float64) float64 {
	if w.Envelope == nil || to <= from {
		return 1
	}
	const steps = 4096
	dt := (to - from) / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += w.Envelope(from + (float64(i)+0.5)*dt)
	}
	return sum / steps
}

// predictThroughput extends the steady-state model to modulated arrivals
// with a fluid approximation of the bottleneck queue. The envelope scales
// the source's intrinsic generation rate (1/ServiceTime), not the
// topology throughput: a backpressure-throttled source does not speed up
// during bursts, and troughs only bite once the offered rate drops below
// the downstream capacity. Between those regimes the bottleneck's entry
// mailbox smooths transitions — it keeps the bottleneck fed for a while
// after the offered rate collapses — so the prediction integrates a
// single-queue fluid model over the measurement window instead of
// point-wise clipping.
func predictThroughput(t *core.Topology, replicas []int, w Workload, cfg qsim.Config) (float64, error) {
	deployed := w.Apply(t)
	if replicas == nil {
		replicas = make([]int, deployed.Len())
		for i := range replicas {
			replicas[i] = 1
		}
	}
	base, err := core.SteadyStateWithReplicas(deployed, replicas, nil)
	if err != nil {
		return 0, err
	}
	if w.Envelope == nil {
		return base.Throughput(), nil
	}
	// Downstream capacity: the throughput with the source arbitrarily
	// fast, i.e. what the rest of the topology can absorb. Under
	// backpressure the sped-up source is throttled to exactly that, so
	// its corrected departure rate is the capacity in source items/s.
	fast := deployed.Clone()
	src := fast.Sources()[0]
	srcRate := 1 / fast.Op(src).ServiceTime
	fast.Op(src).ServiceTime *= 1e-6
	capAnalysis, err := core.SteadyStateWithReplicas(fast, replicas, nil)
	if err != nil {
		return 0, err
	}
	capacity := capAnalysis.Throughput()
	// The bottleneck (highest utilization downstream of the source)
	// buffers work in its entry mailbox; convert its capacity into
	// source-item units via its arrivals-per-source-departure ratio.
	bn, bnRho := -1, 0.0
	for i := range capAnalysis.Rho {
		if core.OpID(i) == src {
			continue
		}
		if capAnalysis.Rho[i] > bnRho {
			bn, bnRho = i, capAnalysis.Rho[i]
		}
	}
	buffer := float64(cfg.BufferSize)
	if buffer <= 0 {
		buffer = 64
	}
	queueCap := 0.0
	if bn >= 0 && capacity > 0 && capAnalysis.Lambda[bn] > 0 {
		queueCap = buffer * capacity / capAnalysis.Lambda[bn]
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 40
	}
	warmup := cfg.Warmup
	if warmup <= 0 || warmup >= horizon {
		warmup = horizon / 4
	}
	// Euler integration from t=0 so the queue state at the start of the
	// measurement window reflects the warmup, like the simulation's.
	const steps = 8192
	dt := horizon / steps
	backlog, delivered := 0.0, 0.0
	for i := 0; i < steps; i++ {
		tm := (float64(i) + 0.5) * dt
		offered := w.Envelope(tm) * srcRate
		out := capacity
		if backlog <= 0 && offered < capacity {
			out = offered
		}
		backlog += (offered - out) * dt
		if backlog > queueCap {
			backlog = queueCap // backpressure: the excess is never generated
		}
		if backlog < 0 {
			backlog = 0
		}
		if tm >= warmup {
			delivered += out * dt
		}
	}
	return delivered / (horizon - warmup), nil
}
