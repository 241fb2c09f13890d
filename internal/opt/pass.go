package opt

import (
	"fmt"
	"sort"

	"spinstreams/internal/core"
)

// Context carries the run-scoped state every pass shares: the configured
// options, the trace under construction and the result being assembled.
type Context struct {
	Opts   Options
	Trace  *Trace
	Result *Result
	// cyclic is set by the analyze pass when the topology needs the
	// fixed-point solver; the restructuring passes skip and say so.
	cyclic bool
	// solves counts the steady-state solves of the run.
	solves int
}

// analysis returns s's steady-state analysis, solving it only when no
// earlier step handed one forward.
func (ctx *Context) analysis(s *Snapshot) (*core.Analysis, error) {
	if s.analysis == nil {
		a, err := core.SteadyState(s.topo)
		if err != nil {
			return nil, err
		}
		ctx.solves++
		s.analysis = a
	}
	return s.analysis, nil
}

// Pass is one stage of the optimizer. Run receives the current snapshot
// and returns the snapshot subsequent passes should see: the same one
// when the pass only analyzes or annotates (analyze, fission — degrees
// live in the result, not the graph), a new one when the pass rewrites
// the topology (fusion). Passes must not mutate the snapshot they
// receive.
type Pass interface {
	Name() string
	Run(ctx *Context, s *Snapshot) (*Snapshot, error)
}

// skipCyclic records a skipped pass on cyclic input.
func skipCyclic(ctx *Context, name string) {
	p := ctx.Trace.pass(name)
	p.Skipped = "cyclic topology: restructuring passes require a DAG"
}

// AnalyzePass runs Algorithm 1 (or the cyclic fixed-point solver) on the
// input snapshot and records the Theorem 3.2 source corrections.
type AnalyzePass struct{}

// Name implements Pass.
func (AnalyzePass) Name() string { return "analyze" }

// Run implements Pass.
func (AnalyzePass) Run(ctx *Context, s *Snapshot) (*Snapshot, error) {
	t := s.Topology()
	p := ctx.Trace.pass("analyze")

	var a *core.Analysis
	var err error
	if t.Validate() == nil {
		a, err = ctx.analysis(s)
	} else if ctx.Opts.AllowCycles && t.ValidateCyclic() == nil {
		ctx.cyclic = true
		ctx.Result.Cyclic = true
		ctx.Trace.Cyclic = true
		a, err = core.SteadyStateCyclic(t)
	} else {
		err = t.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("opt: analyze: %w", err)
	}
	p.corrections(t, a)
	src := t.Source()
	p.ThroughputBefore = t.Op(src).Rate() * t.Op(src).Gain() // uncorrected emission
	p.ThroughputAfter = a.Throughput()
	ctx.Result.Baseline = a
	ctx.Trace.ThroughputBefore = a.Throughput()
	return s, nil
}

// FissionPass runs Algorithm 2 (bottleneck elimination). It chooses
// replication degrees but never rewrites the graph, which is why it can
// run before fusion without changing what fusion sees — the pinned pass
// ordering the pipeline documents.
type FissionPass struct{}

// Name implements Pass.
func (FissionPass) Name() string { return "fission" }

// Run implements Pass.
func (FissionPass) Run(ctx *Context, s *Snapshot) (*Snapshot, error) {
	if ctx.cyclic {
		skipCyclic(ctx, "fission")
		return s, nil
	}
	t := s.Topology()
	p := ctx.Trace.pass("fission")
	p.ThroughputBefore = ctx.Result.Baseline.Throughput()

	opts := ctx.Opts.Fission
	opts.Trace = &core.FissionTrace{
		OnFission: func(v core.OpID, rho float64, replicas int, pmax float64) {
			p.step(TraceStep{
				Action:   StepFission,
				Operator: t.Op(v).Name,
				Rho:      rho,
				Replicas: replicas,
				PMax:     pmax,
			})
		},
		OnReject: func(v core.OpID, rho float64, reason string) {
			p.step(TraceStep{
				Action:   StepFissionReject,
				Operator: t.Op(v).Name,
				Rho:      rho,
				Reason:   reason,
			})
		},
		OnBudget: func(v core.OpID, from, to int) {
			p.step(TraceStep{
				Action:       StepReplicaBudget,
				Operator:     t.Op(v).Name,
				FromReplicas: from,
				Replicas:     to,
			})
		},
	}
	res, err := core.EliminateBottlenecks(t, opts)
	if err != nil {
		return nil, fmt.Errorf("opt: fission: %w", err)
	}
	p.corrections(t, res.Analysis)
	p.ThroughputAfter = res.Analysis.Throughput()
	ctx.Result.Fission = res
	return s, nil
}

// FusionPass runs the automatic operator-fusion loop (Algorithm 3 inside
// the accept/reject driver), starting from the snapshot's analysis. It
// returns a new snapshot, carrying the fused topology's analysis, when
// fusions were applied.
type FusionPass struct{}

// Name implements Pass.
func (FusionPass) Name() string { return "fusion" }

// Run implements Pass.
func (FusionPass) Run(ctx *Context, s *Snapshot) (*Snapshot, error) {
	if ctx.cyclic {
		skipCyclic(ctx, "fusion")
		return s, nil
	}
	p := ctx.Trace.pass("fusion")
	p.ThroughputBefore = ctx.Result.Baseline.Throughput()

	opts := ctx.Opts.Fusion
	opts.Trace = &core.FusionTrace{
		OnApply: func(round int, step core.AutoFuseStep, report *core.FusionReport) {
			p.step(TraceStep{
				Action:           StepFuse,
				Operator:         step.FusedName,
				Members:          step.MemberNames,
				Round:            round + 1,
				ServiceTime:      step.ServiceTime,
				Utilization:      step.Utilization,
				ThroughputBefore: report.ThroughputBefore,
				ThroughputAfter:  report.ThroughputAfter,
			})
		},
		OnReject: func(round int, memberNames []string, utilization float64, reason string) {
			p.step(TraceStep{
				Action:      StepFuseReject,
				Members:     memberNames,
				Round:       round + 1,
				Utilization: utilization,
				Reason:      reason,
			})
		},
	}
	res, err := core.AutoFuse(s.Topology(), s.analysis, opts)
	if err != nil {
		return nil, fmt.Errorf("opt: fusion: %w", err)
	}
	ctx.solves += res.Solves
	p.ThroughputAfter = res.ThroughputAfter
	ctx.Result.Fusion = res
	if len(res.Steps) == 0 {
		return s, nil
	}
	// AutoFuse built res.Topology fresh (clone + rewrites); own it.
	return newOwnedSnapshot(res.Topology, res.Analysis), nil
}

// FusePass is a user-chosen fusion in the fusion slot: Algorithm 3 on
// Members, applied with no accept/reject step, so a fusion that
// introduces a bottleneck still happens and Result.Fuse says so. The
// meta-operator takes core.Fuse's default name.
type FusePass struct{ Members []string }

// Name implements Pass.
func (FusePass) Name() string { return "fuse" }

// Run implements Pass.
func (f FusePass) Run(ctx *Context, s *Snapshot) (*Snapshot, error) {
	if ctx.cyclic {
		skipCyclic(ctx, "fuse")
		return s, nil
	}
	t := s.Topology()
	members := make([]core.OpID, len(f.Members))
	for i, name := range f.Members {
		id, ok := t.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("opt: fuse: unknown operator %q", name)
		}
		members[i] = id
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	a, err := ctx.analysis(s)
	if err != nil {
		return nil, fmt.Errorf("opt: fuse: %w", err)
	}
	fused, report, err := core.Fuse(t, a, members, "")
	if err != nil {
		return nil, fmt.Errorf("opt: fuse: %w", err)
	}
	ctx.solves++
	op := fused.Op(report.FusedID)
	p := ctx.Trace.pass("fuse")
	p.ThroughputBefore, p.ThroughputAfter = report.ThroughputBefore, report.ThroughputAfter
	p.step(TraceStep{
		Action:           StepFuse,
		Operator:         op.Name,
		Members:          op.Fused,
		ServiceTime:      report.ServiceTime,
		Utilization:      report.After.Rho[report.FusedID],
		ThroughputBefore: report.ThroughputBefore,
		ThroughputAfter:  report.ThroughputAfter,
	})
	ctx.Result.Fuse = report
	return newOwnedSnapshot(fused, report.After), nil
}

// LatencyPass layers the queueing-latency estimate on the final analysis
// (final topology under the chosen replication degrees).
type LatencyPass struct{}

// Name implements Pass.
func (LatencyPass) Name() string { return "latency" }

// Run implements Pass.
func (LatencyPass) Run(ctx *Context, s *Snapshot) (*Snapshot, error) {
	p := ctx.Trace.pass("latency")
	if err := ctx.ensureFinal(s); err != nil {
		return nil, err
	}
	est, err := core.EstimateLatency(s.Topology(), ctx.Result.Analysis, ctx.Opts.LatencyModel, ctx.Opts.BufferCapacity)
	if err != nil {
		return nil, fmt.Errorf("opt: latency: %w", err)
	}
	p.ThroughputAfter = ctx.Result.Analysis.Throughput()
	ctx.Result.Latency = est
	return s, nil
}
