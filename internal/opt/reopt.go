package opt

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
	"spinstreams/internal/obs"
	"spinstreams/internal/profiler"
)

// ReplicaChange is one operator whose replication degree should change.
type ReplicaChange struct {
	Operator string `json:"operator"`
	From     int    `json:"from"`
	To       int    `json:"to"`
}

// FusionUndo flags a fused meta-operator that the measured profiles turn
// into a bottleneck: meta-operators cannot be replicated (Section 4.2),
// so un-fusing its members is the only restructuring that can recover
// the lost throughput.
type FusionUndo struct {
	Operator string   `json:"operator"`
	Members  []string `json:"members"`
	// Rho is the meta-operator's utilization under the measured profiles
	// and the re-optimized replication degrees.
	Rho float64 `json:"rho"`
}

// DeltaPlan is the output of Reoptimize: the minimal set of
// reconfigurations that moves the running topology from the degrees it
// was deployed with to the degrees the measured profiles demand.
type DeltaPlan struct {
	// Changes lists operators whose replication degree should change,
	// in topology order.
	Changes []ReplicaChange `json:"changes"`
	// Undo lists fusions that should be reverted.
	Undo []FusionUndo `json:"undo,omitempty"`
	// PredictedBefore is the predicted throughput of the *current*
	// configuration under the measured profiles — what the running
	// system is expected to sustain as reality stands.
	PredictedBefore float64 `json:"predicted_before"`
	// PredictedAfter is the predicted throughput after applying the
	// replica changes. It does not include the effect of Undo, which
	// runtime.Controller.ApplyDelta also applies live.
	PredictedAfter float64 `json:"predicted_after"`
	// Result is the full re-optimization run on the re-profiled
	// topology, including its rewrite trace.
	Result *Result `json:"-"`
}

// Empty reports a no-op plan.
func (p *DeltaPlan) Empty() bool { return len(p.Changes) == 0 && len(p.Undo) == 0 }

// sortedChanges returns the replica changes ordered by operator name, so
// renderings and traces are byte-stable regardless of discovery order.
func (p *DeltaPlan) sortedChanges() []ReplicaChange {
	cs := append([]ReplicaChange(nil), p.Changes...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Operator < cs[j].Operator })
	return cs
}

// sortedUndo returns the fusion undos ordered by operator name.
func (p *DeltaPlan) sortedUndo() []FusionUndo {
	us := append([]FusionUndo(nil), p.Undo...)
	sort.Slice(us, func(i, j int) bool { return us[i].Operator < us[j].Operator })
	return us
}

// String renders the plan as the table the CLI prints. Changes and undos
// are sorted by operator, so reconfiguration logs are byte-stable.
func (p *DeltaPlan) String() string {
	var b strings.Builder
	if p.Empty() {
		b.WriteString("re-optimization: configuration already optimal for the measured profiles\n")
	}
	for _, c := range p.sortedChanges() {
		fmt.Fprintf(&b, "replicas %-20s %d -> %d\n", c.Operator, c.From, c.To)
	}
	for _, u := range p.sortedUndo() {
		fmt.Fprintf(&b, "unfuse   %-20s (members: %s; rho %.3f under measured profiles)\n",
			u.Operator, strings.Join(u.Members, ", "), u.Rho)
	}
	fmt.Fprintf(&b, "predicted throughput: %.1f t/s now, %.1f t/s after re-optimization\n",
		p.PredictedBefore, p.PredictedAfter)
	return b.String()
}

// blendProfiles weights measured profiles against the topology's declared
// ones per operator: confidence 1 trusts the measurement outright, 0 keeps
// the declared profile (expressed as a zero service time, which
// profiler.Apply treats as "leave the vertex untouched"). Confidences are
// clamped to [0,1]; measurements without a service time fall back to the
// declared profile regardless of confidence.
func blendProfiles(t *core.Topology, measured []profiler.Profile, confidence []float64) []profiler.Profile {
	out := append([]profiler.Profile(nil), measured...)
	for i := range out {
		if i >= t.Len() {
			break
		}
		conf := 0.0
		if i < len(confidence) {
			conf = confidence[i]
		}
		if conf < 0 {
			conf = 0
		} else if conf > 1 {
			conf = 1
		}
		p := &out[i]
		if p.ServiceTime <= 0 || conf == 0 {
			p.ServiceTime = 0
			p.InputSelectivity = 0
			p.OutputSelectivity = 0
			continue
		}
		decl := t.Op(core.OpID(i))
		p.ServiceTime = conf*p.ServiceTime + (1-conf)*decl.ServiceTime
		if p.OutputSelectivity > 0 {
			declOut := decl.OutputSelectivity
			if declOut <= 0 {
				declOut = 1
			}
			p.OutputSelectivity = conf*p.OutputSelectivity + (1-conf)*declOut
		}
	}
	return out
}

// Reoptimize closes the drift loop: it substitutes the drift report's
// measured service times and selectivities into the snapshot's topology,
// re-runs the optimizer pipeline on the re-profiled topology, and diffs
// the outcome against the configuration the report was measured under
// (drift.Replicas; all ones when nil). The snapshot is not modified.
//
// The drift report must carry measured profiles (obs.Drift populates
// them whenever a registry snapshot is available).
func Reoptimize(s *Snapshot, drift *obs.DriftReport, opts Options) (*DeltaPlan, error) {
	if drift == nil {
		return nil, errors.New("opt: reoptimize: nil drift report")
	}
	if len(drift.MeasuredProfiles) == 0 {
		return nil, errors.New("opt: reoptimize: drift report carries no measured profiles")
	}
	// Refuse reports measured against a different topology (redeployed
	// since profiling): computing a delta plan against the wrong graph
	// would emit reconfigurations for operators that no longer exist.
	stations := make([]string, len(drift.Rows))
	for i, row := range drift.Rows {
		stations[i] = row.Name
	}
	if ds := lint.CheckDrift(s.Topology(), stations, drift.Replicas, len(drift.MeasuredProfiles)); len(ds) > 0 {
		return nil, fmt.Errorf("opt: reoptimize: %w", &lint.Error{Diagnostics: ds})
	}
	profiles := drift.MeasuredProfiles
	if drift.ProfileConfidence != nil {
		// Estimator-fed reports carry per-operator confidences: blend each
		// estimate toward the declared model in proportion, so a couple of
		// noisy busy intervals nudge the profile instead of rewriting it.
		profiles = blendProfiles(s.Topology(), profiles, drift.ProfileConfidence)
	}
	reprofiled := s.Clone()
	if err := profiler.Apply(reprofiled, profiles); err != nil {
		return nil, fmt.Errorf("opt: reoptimize: %w", err)
	}

	// Predicted throughput of the deployed configuration under measured
	// reality.
	current := drift.Replicas
	var before *core.Analysis
	var err error
	if current == nil {
		before, err = core.SteadyState(reprofiled)
	} else {
		before, err = core.SteadyStateWithReplicas(reprofiled, current, opts.Fission.Partitioner)
	}
	if err != nil {
		return nil, fmt.Errorf("opt: reoptimize: current configuration: %w", err)
	}

	res, err := Run(reprofiled, opts)
	if err != nil {
		return nil, fmt.Errorf("opt: reoptimize: %w", err)
	}

	plan := &DeltaPlan{
		PredictedBefore: before.Throughput(),
		PredictedAfter:  res.Throughput(),
		Result:          res,
	}

	// Replica deltas, diffed on the input topology (the deployed one).
	input := res.Input.Topology()
	target := make([]int, input.Len())
	for i := range target {
		target[i] = 1
	}
	if res.Fission != nil {
		copy(target, res.Fission.Analysis.Replicas)
	}
	for i := 0; i < input.Len(); i++ {
		from := 1
		if i < len(current) {
			from = current[i]
		}
		if target[i] != from {
			plan.Changes = append(plan.Changes, ReplicaChange{
				Operator: input.Op(core.OpID(i)).Name,
				From:     from,
				To:       target[i],
			})
		}
	}

	// Fusions to undo: meta-operators still saturated after re-optimizing
	// the replica degrees. Replication cannot help them, so the plan
	// lists them in Undo for ApplyDelta to split back live.
	post := res.Baseline
	if res.Fission != nil {
		post = res.Fission.Analysis
	}
	for i := 0; i < input.Len(); i++ {
		op := input.Op(core.OpID(i))
		if len(op.Fused) == 0 {
			continue
		}
		if post.Rho[i] >= 1-1e-9 {
			plan.Undo = append(plan.Undo, FusionUndo{
				Operator: op.Name,
				Members:  append([]string(nil), op.Fused...),
				Rho:      post.Rho[i],
			})
		}
	}
	return plan, nil
}
