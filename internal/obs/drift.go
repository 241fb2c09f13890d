package obs

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/profiler"
	"spinstreams/internal/stats"
)

// Drift reporting closes the paper's workflow loop: the static optimizer
// consumes profiled service times and selectivities (Section 4.1), the
// steady-state analysis predicts per-operator rates (Algorithm 1), and the
// registry measures what the live runtime actually did. DriftReport puts
// the three side by side — predicted vs measured departure rates and
// utilizations per logical operator — and re-runs the analysis on profiles
// rebuilt from the measurements, so a model that drifted from reality is
// caught by its own numbers.

// MeasuredRates are per-logical-operator rates measured over a window,
// aggregated from station counters exactly like the runtime's Metrics
// view (collector emissions for replicated operators, entry-station
// arrivals).
type MeasuredRates struct {
	// Seconds is the window length.
	Seconds float64
	// Departure, Arrival, Dropped and Consumed are items/s per logical
	// operator (indexed by OpID).
	Departure, Arrival, Dropped, Consumed []float64
	// Throughput is the source operator's departure rate.
	Throughput float64
}

// opGroup indexes one logical operator's stations within a snapshot.
type opGroup struct {
	// entry receives the operator's input (emitter when replicated).
	entry int
	// outSide emits the operator's output (the collector when replicated,
	// else the workers).
	outSide []int
	// workers execute the operator (the source station for the source op).
	workers []int
}

// groupOps rebuilds the per-operator station structure from snapshot
// roles. nOps is the number of logical operators.
func groupOps(sts []StationSnapshot) ([]opGroup, error) {
	nOps := 0
	for i := range sts {
		if sts[i].Op+1 > nOps {
			nOps = sts[i].Op + 1
		}
	}
	groups := make([]opGroup, nOps)
	for i := range groups {
		groups[i].entry = -1
	}
	collectors := make([]int, nOps)
	for i := range collectors {
		collectors[i] = -1
	}
	for i := range sts {
		ss := &sts[i]
		if ss.Op < 0 {
			return nil, fmt.Errorf("obs: station %d (%s) has negative op", i, ss.Name)
		}
		if ss.Retired {
			// Stations a live reconfiguration drained and stopped: their
			// lifetime counters stay in Totals, but rates and profiles
			// must reflect the structure currently flowing.
			continue
		}
		g := &groups[ss.Op]
		switch ss.Role {
		case "source", "worker":
			g.workers = append(g.workers, i)
			if g.entry < 0 {
				g.entry = i
			}
		case "emitter":
			g.entry = i
		case "collector":
			collectors[ss.Op] = i
		default:
			return nil, fmt.Errorf("obs: station %d (%s) has unknown role %q", i, ss.Name, ss.Role)
		}
	}
	for op := range groups {
		if c := collectors[op]; c >= 0 {
			groups[op].outSide = []int{c}
		} else {
			groups[op].outSide = groups[op].workers
		}
	}
	return groups, nil
}

// RatesBetween computes per-operator measured rates from two snapshots of
// the same bound registry taken seconds apart (begin may be nil for
// rates since bind).
func RatesBetween(begin, end *Snapshot, seconds float64) (*MeasuredRates, error) {
	if end == nil {
		return nil, errors.New("obs: nil end snapshot")
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("obs: non-positive window %v", seconds)
	}
	if begin != nil && len(begin.Stations) != len(end.Stations) {
		return nil, fmt.Errorf("obs: snapshots cover %d and %d stations",
			len(begin.Stations), len(end.Stations))
	}
	groups, err := groupOps(end.Stations)
	if err != nil {
		return nil, err
	}
	diff := func(get func(*StationSnapshot) uint64, i int) float64 {
		v := get(&end.Stations[i])
		if begin != nil {
			v -= get(&begin.Stations[i])
		}
		return float64(v) / seconds
	}
	m := &MeasuredRates{
		Seconds:   seconds,
		Departure: make([]float64, len(groups)),
		Arrival:   make([]float64, len(groups)),
		Dropped:   make([]float64, len(groups)),
		Consumed:  make([]float64, len(groups)),
	}
	srcOp := -1
	for op, g := range groups {
		for _, i := range g.outSide {
			m.Departure[op] += diff(func(s *StationSnapshot) uint64 { return s.Emitted }, i)
		}
		for _, i := range g.workers {
			m.Consumed[op] += diff(func(s *StationSnapshot) uint64 { return s.Consumed }, i)
			if end.Stations[i].Source {
				srcOp = op
			}
		}
		if g.entry >= 0 {
			m.Arrival[op] = diff(func(s *StationSnapshot) uint64 { return s.Arrived }, g.entry)
			m.Dropped[op] = diff(func(s *StationSnapshot) uint64 { return s.Dropped }, g.entry)
		}
	}
	if srcOp >= 0 {
		m.Throughput = m.Departure[srcOp]
	}
	return m, nil
}

// WindowRates derives the measured rates from the registry's
// measurement-window marks (the engine places them around its
// steady-state window).
func (r *Registry) WindowRates() (*MeasuredRates, error) {
	begin, end, seconds, ok := r.Window()
	if !ok {
		return nil, errors.New("obs: no measurement window marked (run not finished?)")
	}
	return RatesBetween(begin, end, seconds)
}

// DriftRow is one logical operator's predicted-vs-measured comparison.
type DriftRow struct {
	Op   int
	Name string
	// Predicted and Measured are departure rates in items/s.
	Predicted, Measured float64
	// RelErr is |measured-predicted|/predicted.
	RelErr float64
	// PredictedRho is the model's utilization; MeasuredRho is the measured
	// consume rate times the measured service time (0 without a measured
	// profile).
	PredictedRho, MeasuredRho float64
	// Saturated marks operators the model puts at (or next to) full
	// utilization; their measured rates ride the backpressure boundary and
	// carry more variance than interior operators.
	Saturated bool
}

// DriftReport compares a steady-state prediction against measured rates
// and against a re-analysis on measured profiles.
type DriftReport struct {
	Rows []DriftRow
	// PredictedThroughput vs MeasuredThroughput compare the source rates.
	PredictedThroughput, MeasuredThroughput, ThroughputErr float64
	// MeanErr and MaxErr summarize departure-rate error over non-saturated
	// operators (the acceptance band of the validation suite).
	MeanErr, MaxErr float64
	// Reanalyzed is the steady state recomputed on profiles rebuilt from
	// the measurements; RepredictedThroughput/RepredictionErr compare its
	// throughput back to the measurement, closing the loop.
	Reanalyzed            *core.Analysis
	RepredictedThroughput float64
	RepredictionErr       float64
	// MeasuredProfiles are the per-operator profiles the online estimator
	// reconstructed (nil when the run had none). They are what
	// opt.Reoptimize substitutes into the topology before re-running the
	// optimizer.
	MeasuredProfiles []profiler.Profile
	// ProfileConfidence weights MeasuredProfiles per operator in [0,1]: 1
	// means trust the measurement outright, 0 means keep the declared
	// profile, so opt.Reoptimize can blend low-evidence estimates toward
	// the declared model instead of acting on noise. nil trusts every
	// profile outright.
	ProfileConfidence []float64
	// Replicas are the replication degrees the prediction (and the live
	// run) used; nil means all ones.
	Replicas []int
	// Seconds is the measurement window.
	Seconds float64
}

// saturationRho is the utilization above which an operator counts as
// saturated for drift banding.
const saturationRho = 0.95

// Drift runs the full report for a measured window: predicted rates from
// the topology (under the given replication degrees; nil means all ones),
// measured rates from the registry's window marks, and — when the run has
// an estimator — its reconstructed profiles and confidences with a
// re-analysis on them. Without an estimator the report carries no
// profiles, and opt.Reoptimize refuses it.
func Drift(t *core.Topology, replicas []int, r *Registry) (*DriftReport, error) {
	m, err := r.WindowRates()
	if err != nil {
		return nil, err
	}
	var profiles []profiler.Profile
	var confidence []float64
	if est := r.Estimator(); est != nil {
		em, err := est.Measure()
		if err != nil {
			return nil, err
		}
		profiles, confidence = em.Profiles, em.Confidence
	}
	return DriftFromProfiles(t, replicas, m, profiles, confidence)
}

// analyze dispatches to the replica-aware steady state when replication
// degrees are supplied.
func analyze(t *core.Topology, replicas []int) (*core.Analysis, error) {
	if replicas == nil {
		return core.SteadyState(t)
	}
	return core.SteadyStateWithReplicas(t, replicas, nil)
}

// DriftFromProfiles builds the report from explicit measured rates and
// measured profiles with their per-operator confidences (nil trusts every
// profile outright) — the one report builder, fed by Drift on live runs
// and by simulated estimator sweeps. profiles may be nil to skip the
// reprofiled re-analysis.
func DriftFromProfiles(t *core.Topology, replicas []int, m *MeasuredRates, profiles []profiler.Profile, confidence []float64) (*DriftReport, error) {
	if m == nil {
		return nil, errors.New("obs: nil measured rates")
	}
	a, err := analyze(t, replicas)
	if err != nil {
		return nil, err
	}
	if len(m.Departure) != t.Len() {
		return nil, fmt.Errorf("obs: measured %d operators, topology has %d", len(m.Departure), t.Len())
	}
	if confidence != nil && len(confidence) != len(profiles) {
		return nil, fmt.Errorf("obs: %d confidences for %d profiles", len(confidence), len(profiles))
	}
	rep := &DriftReport{
		PredictedThroughput: a.Throughput(),
		MeasuredThroughput:  m.Throughput,
		ThroughputErr:       stats.RelErr(m.Throughput, a.Throughput()),
		MeasuredProfiles:    profiles,
		ProfileConfidence:   confidence,
		Seconds:             m.Seconds,
	}
	if replicas != nil {
		rep.Replicas = append([]int(nil), replicas...)
	}
	limiting := make(map[core.OpID]bool, len(a.Limiting))
	for _, id := range a.Limiting {
		limiting[id] = true
	}
	var errSum float64
	var errN int
	for i := 0; i < t.Len(); i++ {
		row := DriftRow{
			Op:           i,
			Name:         t.Op(core.OpID(i)).Name,
			Predicted:    a.Delta[i],
			Measured:     m.Departure[i],
			RelErr:       stats.RelErr(m.Departure[i], a.Delta[i]),
			PredictedRho: a.Rho[i],
			Saturated:    a.Rho[i] > saturationRho || limiting[core.OpID(i)],
		}
		if profiles != nil && i < len(profiles) && i < len(m.Consumed) {
			// Consumed is summed over the operator's workers, so divide
			// the aggregate rate across the replication degree.
			row.MeasuredRho = m.Consumed[i] * profiles[i].ServiceTime / float64(a.Replicas[i])
		}
		if !row.Saturated {
			errSum += row.RelErr
			errN++
			if row.RelErr > rep.MaxErr {
				rep.MaxErr = row.RelErr
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if errN > 0 {
		rep.MeanErr = errSum / float64(errN)
	}
	if profiles != nil {
		if re, err := reanalyze(t, replicas, profiles); err == nil {
			rep.Reanalyzed = re
			rep.RepredictedThroughput = re.Throughput()
			rep.RepredictionErr = stats.RelErr(re.Throughput(), m.Throughput)
		}
	}
	return rep, nil
}

// reanalyze applies measured profiles to a clone of the topology and
// re-runs the steady-state analysis.
func reanalyze(t *core.Topology, replicas []int, profiles []profiler.Profile) (*core.Analysis, error) {
	clone := t.Clone()
	if err := profiler.Apply(clone, profiles); err != nil {
		return nil, err
	}
	return analyze(clone, replicas)
}

// String renders the report as the table the CLI prints.
func (r *DriftReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Model-vs-measured drift (%.2fs window)\n", r.Seconds)
	b.WriteString("op  name                 predicted(t/s)  measured(t/s)  rel.err   rho(pred)  rho(meas)\n")
	for _, row := range r.Rows {
		mark := " "
		if row.Saturated {
			mark = "*"
		}
		relErr := row.RelErr * 100
		if math.IsInf(relErr, 0) {
			relErr = -1
		}
		fmt.Fprintf(&b, "%2d%s %-20s %14.1f  %13.1f  %6.2f%%  %9.3f  %9.3f\n",
			row.Op, mark, row.Name, row.Predicted, row.Measured, relErr,
			row.PredictedRho, row.MeasuredRho)
	}
	fmt.Fprintf(&b, "throughput: predicted %.1f t/s, measured %.1f t/s (err %.2f%%)\n",
		r.PredictedThroughput, r.MeasuredThroughput, r.ThroughputErr*100)
	if errN := len(r.Rows); errN > 0 {
		fmt.Fprintf(&b, "departure error over non-saturated operators (*): mean %.2f%%, max %.2f%%\n",
			r.MeanErr*100, r.MaxErr*100)
	}
	if r.Reanalyzed != nil {
		fmt.Fprintf(&b, "re-analysis on measured profiles: %.1f t/s (err vs measured %.2f%%)\n",
			r.RepredictedThroughput, r.RepredictionErr*100)
	}
	return b.String()
}
