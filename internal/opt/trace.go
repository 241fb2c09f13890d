package opt

import (
	"encoding/json"
	"fmt"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
)

// TraceSchema identifies the rewrite-trace JSON layout; bump on breaking
// changes. The schema is documented in DESIGN.md ("Optimizer
// architecture").
const TraceSchema = "spinstreams/rewrite-trace/v1"

// Trace is the structured provenance of one pipeline run: every
// restructuring decision, in the order it was taken, with enough context
// to reconstruct why. Traces are deterministic — no timestamps, no
// machine identifiers — so they can be committed as golden files.
type Trace struct {
	// Schema is TraceSchema.
	Schema string `json:"schema"`
	// Fingerprint is the input topology's fingerprint, in hex.
	Fingerprint string `json:"fingerprint"`
	// Operators and Edges size the input topology.
	Operators int `json:"operators"`
	Edges     int `json:"edges"`
	// Cyclic marks topologies analyzed with the fixed-point solver.
	Cyclic bool `json:"cyclic,omitempty"`
	// Lint carries the mandatory pre-pass diagnostics that did not abort
	// the run (warnings and infos; errors abort before a trace exists).
	Lint []lint.Diagnostic `json:"lint,omitempty"`
	// Passes holds one entry per executed pass, in execution order.
	Passes []*PassTrace `json:"passes"`
	// ThroughputBefore is the plain Algorithm 1 prediction on the input;
	// ThroughputAfter is the prediction for the final restructured
	// topology under the chosen replication degrees.
	ThroughputBefore float64 `json:"throughput_before"`
	ThroughputAfter  float64 `json:"throughput_after"`
	// FinalFingerprint is the final topology's fingerprint, in hex; the
	// lint trace-replay check (SS2001) verifies a replay of the recorded
	// rewrites reproduces it.
	FinalFingerprint string `json:"final_fingerprint"`
}

// PassTrace records one pass's execution.
type PassTrace struct {
	// Pass is the pass name ("analyze", "fission", "fusion", ...).
	Pass string `json:"pass"`
	// Skipped carries the reason when the pass did not run (e.g. the
	// restructuring passes on a cyclic topology).
	Skipped string `json:"skipped,omitempty"`
	// Steps are the decisions, in order.
	Steps []TraceStep `json:"steps,omitempty"`
	// ThroughputBefore/After bracket the pass's effect on the predicted
	// topology throughput.
	ThroughputBefore float64 `json:"throughput_before,omitempty"`
	ThroughputAfter  float64 `json:"throughput_after,omitempty"`
}

// Step actions.
const (
	// StepSourceCorrection is a Theorem 3.2 source-rate correction:
	// operator Operator saturated at utilization Rho, so the source
	// departure rate was divided by Rho (CorrectionFactor = 1/Rho) down
	// to SourceRate.
	StepSourceCorrection = "source-correction"
	// StepFission parallelized Operator to Replicas replicas (PMax set
	// for partitioned-stateful operators).
	StepFission = "fission"
	// StepFissionReject records a saturated operator fission could not
	// unblock; Reason says why.
	StepFissionReject = "fission-reject"
	// StepReplicaBudget records the hold-off budget trimming Operator
	// from FromReplicas to Replicas.
	StepReplicaBudget = "replica-budget"
	// StepFuse applied a fusion: Members collapsed into Operator with
	// the given ServiceTime and Utilization.
	StepFuse = "fuse"
	// StepFuseReject records a rejected fusion candidate.
	StepFuseReject = "fuse-reject"
	// StepLiveApply records the in-flight application of one DeltaPlan
	// entry by the runtime's reconfigurer: a replica rescale (Operator,
	// FromReplicas -> Replicas) or a fusion undo (Operator split back
	// into Members). Live steps change the physical plan, not the
	// logical topology, so provenance replay checks them without
	// mutating the replayed topology.
	StepLiveApply = "live_apply"
)

// TraceStep is one decision. Which fields are meaningful depends on
// Action; unused fields are omitted from the JSON.
type TraceStep struct {
	Action   string   `json:"action"`
	Operator string   `json:"operator,omitempty"`
	Members  []string `json:"members,omitempty"`
	// Round numbers autofuse rounds (1-based; 0 elsewhere).
	Round int `json:"round,omitempty"`
	// Rho is the utilization that triggered the decision.
	Rho float64 `json:"rho,omitempty"`
	// CorrectionFactor is Theorem 3.2's 1/rho multiplier.
	CorrectionFactor float64 `json:"correction_factor,omitempty"`
	// SourceRate is the corrected source departure rate.
	SourceRate float64 `json:"source_rate,omitempty"`
	// Replicas is the chosen (or budget-trimmed) degree; FromReplicas
	// the degree before trimming.
	Replicas     int `json:"replicas,omitempty"`
	FromReplicas int `json:"from_replicas,omitempty"`
	// PMax is the most loaded replica's input share.
	PMax float64 `json:"pmax,omitempty"`
	// ServiceTime is a fused meta-operator's predicted service time.
	ServiceTime float64 `json:"service_time,omitempty"`
	// Utilization is a fusion candidate's predicted utilization.
	Utilization float64 `json:"utilization,omitempty"`
	// ThroughputBefore/After bracket an applied fusion.
	ThroughputBefore float64 `json:"throughput_before,omitempty"`
	ThroughputAfter  float64 `json:"throughput_after,omitempty"`
	// Reason explains rejections and skips.
	Reason string `json:"reason,omitempty"`
}

func newTrace(s *Snapshot) *Trace {
	return &Trace{
		Schema:      TraceSchema,
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
		Operators:   s.Len(),
		Edges:       s.Topology().NumEdges(),
	}
}

// pass opens a new pass record and returns it for step appends.
func (tr *Trace) pass(name string) *PassTrace {
	p := &PassTrace{Pass: name}
	tr.Passes = append(tr.Passes, p)
	return p
}

func (p *PassTrace) step(s TraceStep) { p.Steps = append(p.Steps, s) }

// corrections appends one StepSourceCorrection per Theorem 3.2 correction
// in a.
func (p *PassTrace) corrections(t *core.Topology, a *core.Analysis) {
	for _, c := range a.Corrections {
		p.step(TraceStep{
			Action:           StepSourceCorrection,
			Operator:         t.Op(c.Op).Name,
			Rho:              c.Rho,
			CorrectionFactor: 1 / c.Rho,
			SourceRate:       c.SourceRate,
		})
	}
}

// liveApplyPass renders a delta plan as one live_apply pass: replica
// changes first, fusion undos second, each group sorted by operator.
func liveApplyPass(d *DeltaPlan) *PassTrace {
	p := &PassTrace{
		Pass:             "live_apply",
		ThroughputBefore: d.PredictedBefore,
		ThroughputAfter:  d.PredictedAfter,
	}
	for _, c := range d.sortedChanges() {
		p.step(TraceStep{
			Action:       StepLiveApply,
			Operator:     c.Operator,
			FromReplicas: c.From,
			Replicas:     c.To,
		})
	}
	for _, u := range d.sortedUndo() {
		p.step(TraceStep{
			Action:   StepLiveApply,
			Operator: u.Operator,
			Members:  append([]string(nil), u.Members...),
			Rho:      u.Rho,
		})
	}
	return p
}

// AppendLiveApply appends a live_apply pass documenting that the runtime
// applied the delta plan in flight, so the re-optimization run's trace
// also covers what actually happened to the running plan.
func (tr *Trace) AppendLiveApply(d *DeltaPlan) *PassTrace {
	p := liveApplyPass(d)
	tr.Passes = append(tr.Passes, p)
	return p
}

// LiveTrace builds the rewrite trace of a live reconfiguration, anchored
// at the deployed topology: its fingerprint is the deployed topology's
// (not the re-profiled one the optimizer ran on), and its only pass is
// the live_apply record of the delta plan. Live steps do not rewrite the
// logical topology, so the final fingerprint equals the input one and
// `spinstreams vet -trace` can replay the trace against the deployed
// topology's XML.
func LiveTrace(t *core.Topology, d *DeltaPlan) *Trace {
	tr := newTrace(NewSnapshot(t))
	tr.ThroughputBefore = d.PredictedBefore
	tr.ThroughputAfter = d.PredictedAfter
	tr.Passes = append(tr.Passes, liveApplyPass(d))
	tr.FinalFingerprint = tr.Fingerprint
	return tr
}

// JSON renders the trace as indented JSON.
func (tr *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(tr, "", "  ")
}
