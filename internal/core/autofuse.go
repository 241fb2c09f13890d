package core

import "fmt"

// AutoFuseOptions tunes the automatic fusion process.
type AutoFuseOptions struct {
	// MaxUtilization rejects candidates whose meta-operator would exceed
	// this utilization in the fused topology; defaults to 0.9, leaving
	// headroom so fusion never flirts with saturation.
	MaxUtilization float64
	// MaxRounds bounds the number of fusion rounds (0 = no bound).
	MaxRounds int
	// NamePrefix names the generated meta-operators ("fusedN" by default).
	NamePrefix string
	// Trace, when non-nil, receives a callback for every candidate the
	// process accepts or rejects. Purely observational: tracing never
	// changes the outcome. The pass pipeline in internal/opt uses it to
	// build rewrite traces.
	Trace *FusionTrace
}

// FusionTrace observes the autofuse accept/reject loop. Any field may be
// nil. Member operators are reported by name because IDs shift between
// rounds.
type FusionTrace struct {
	// OnApply fires when a candidate is fused into the topology.
	OnApply func(round int, step AutoFuseStep, report *FusionReport)
	// OnReject fires when a candidate is skipped; utilization is the
	// meta-operator's predicted utilization (0 when the rejection happened
	// before it could be evaluated).
	OnReject func(round int, memberNames []string, utilization float64, reason string)
}

func (tr *FusionTrace) apply(round int, step AutoFuseStep, report *FusionReport) {
	if tr != nil && tr.OnApply != nil {
		tr.OnApply(round, step, report)
	}
}

func (tr *FusionTrace) reject(round int, memberNames []string, utilization float64, reason string) {
	if tr != nil && tr.OnReject != nil {
		tr.OnReject(round, memberNames, utilization, reason)
	}
}

// AutoFuseStep records one applied fusion.
type AutoFuseStep struct {
	// MemberNames are the fused operators (names, since IDs shift between
	// rounds).
	MemberNames []string
	// FusedName is the meta-operator's name.
	FusedName string
	// ServiceTime is the meta-operator's predicted service time.
	ServiceTime float64
	// Utilization is its predicted utilization after the fusion.
	Utilization float64
}

// AutoFuseResult is the outcome of the automatic fusion process.
type AutoFuseResult struct {
	// Topology is the final fused topology.
	Topology *Topology
	// Steps lists the fusions applied, in order.
	Steps []AutoFuseStep
	// ThroughputBefore and ThroughputAfter are the predicted throughputs
	// of the initial and final topologies; automatic fusion never lowers
	// the predicted throughput.
	ThroughputBefore, ThroughputAfter float64
	// OperatorsBefore and OperatorsAfter count the vertices.
	OperatorsBefore, OperatorsAfter int
	// Analysis is the final topology's steady-state analysis.
	Analysis *Analysis
	// Solves counts the steady-state analyses the process ran: the
	// input's when none was handed in, then one per candidate evaluated,
	// accepted or not.
	Solves int
}

// AutoFuse automates the operator-fusion process the paper leaves to the
// user (and lists as future work in Section 7): it repeatedly evaluates the
// ranked fusion candidates (dominated single-front-end subgraphs) and
// applies the most underutilized one whose meta-operator stays below the
// utilization threshold and whose predicted topology throughput is
// preserved, until no candidate qualifies. The result is a coarser,
// semantically equivalent topology with fewer scheduling units and no new
// bottleneck.
//
// a is t's steady-state analysis (nil: AutoFuse solves t). Each round
// hands the current analysis to every candidate's fusion, and the
// accepted candidate's analysis becomes the next round's, so the process
// solves each topology it builds once: 1 + C solves for C candidates
// evaluated.
func AutoFuse(t *Topology, a *Analysis, opts AutoFuseOptions) (*AutoFuseResult, error) {
	if opts.MaxUtilization <= 0 || opts.MaxUtilization > 1 {
		opts.MaxUtilization = 0.9
	}
	if opts.NamePrefix == "" {
		opts.NamePrefix = "fused"
	}
	res := &AutoFuseResult{OperatorsBefore: t.Len()}
	if a == nil {
		var err error
		if a, err = SteadyState(t); err != nil {
			return nil, err
		}
		res.Solves++
	}
	res.ThroughputBefore = a.Throughput()
	cur := t
	for round := 0; opts.MaxRounds <= 0 || round < opts.MaxRounds; round++ {
		cands, err := fusionCandidates(cur, a, func(members []OpID, rho float64) {
			opts.Trace.reject(round, memberNames(cur, members), rho,
				"fusing would introduce a bottleneck (alert)")
		})
		if err != nil {
			return nil, err
		}
		applied := false
		for _, c := range cands {
			names := memberNames(cur, c.Members)
			if c.FusedUtilization > opts.MaxUtilization {
				opts.Trace.reject(round, names, c.FusedUtilization, "predicted utilization above threshold")
				continue
			}
			name := fmt.Sprintf("%s%d", opts.NamePrefix, round+1)
			fused, report, err := contract(cur, c.Members, name)
			if err == nil {
				res.Solves++
				err = report.predict(a, fused)
			}
			if err != nil {
				opts.Trace.reject(round, names, c.FusedUtilization, fmt.Sprintf("fusion failed: %v", err))
				continue
			}
			if report.IntroducesBottleneck {
				opts.Trace.reject(round, names, report.After.Rho[report.FusedID], "meta-operator becomes a bottleneck")
				continue
			}
			if report.ThroughputAfter < res.ThroughputBefore*(1-rhoTolerance) {
				opts.Trace.reject(round, names, report.After.Rho[report.FusedID], "predicted throughput degrades")
				continue
			}
			step := AutoFuseStep{
				MemberNames: names,
				FusedName:   name,
				ServiceTime: report.ServiceTime,
				Utilization: report.After.Rho[report.FusedID],
			}
			opts.Trace.apply(round, step, report)
			res.Steps = append(res.Steps, step)
			cur, a = fused, report.After
			applied = true
			break
		}
		if !applied {
			break
		}
	}
	if cur == t {
		cur = t.Clone()
	}
	res.Topology, res.Analysis = cur, a
	res.ThroughputAfter = a.Throughput()
	res.OperatorsAfter = cur.Len()
	return res, nil
}

func memberNames(t *Topology, members []OpID) []string {
	names := make([]string, 0, len(members))
	for _, m := range members {
		names = append(names, t.Op(m).Name)
	}
	return names
}
