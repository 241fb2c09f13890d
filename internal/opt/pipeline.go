package opt

import (
	"fmt"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
)

// Options configures one pipeline run.
type Options struct {
	// Fission tunes the bottleneck-elimination pass. Its Trace field is
	// owned by the pipeline and overwritten.
	Fission core.FissionOptions
	// Fusion tunes the automatic fusion pass. Its Trace field is owned
	// by the pipeline and overwritten.
	Fusion core.AutoFuseOptions
	// LatencyModel and BufferCapacity parameterize the latency pass: the
	// queueing model (0 = M/M/1) and the saturated-operator buffer bound
	// (0 = default). Which passes run is the Pipeline's pass list alone.
	LatencyModel   core.LatencyModel
	BufferCapacity int
	// AllowCycles analyzes cyclic topologies with the fixed-point solver
	// instead of failing; the restructuring passes skip them.
	AllowCycles bool
	// MailboxCapacity, BurstFactor and BurstSeconds tune the bounded-queue
	// verification post-pass (SS3001/SS3002) over the optimized plan. A
	// zero capacity assumes the runtime default; the burst check is
	// skipped unless both burst knobs are set.
	MailboxCapacity int
	BurstFactor     float64
	BurstSeconds    float64
}

// Result is everything one pipeline run produced.
type Result struct {
	// Input and Final are the snapshots before and after restructuring;
	// they are the same snapshot when no fusion was applied.
	Input, Final *Snapshot
	// Baseline is Algorithm 1 (or the cyclic solver) on the input.
	Baseline *core.Analysis
	// Fission is the bottleneck-elimination outcome; nil when the pass
	// was disabled or skipped. Its replica degrees index the *input*
	// topology — use Replicas() for degrees aligned with Final.
	Fission *core.FissionResult
	// Fusion is the automatic-fusion outcome; nil when disabled/skipped.
	Fusion *core.AutoFuseResult
	// Analysis is the final topology under the chosen replication
	// degrees: the pipeline's headline prediction.
	Analysis *core.Analysis
	// Fuse is the fuse pass's Algorithm 3 report; nil unless it ran.
	Fuse *core.FusionReport
	// Latency is the latency pass's estimate; nil unless it ran.
	Latency *core.LatencyEstimate
	// Trace is the rewrite provenance.
	Trace *Trace
	// CacheStats reports the solver cache's traffic for this run.
	CacheStats CacheStats
	// Cyclic marks runs analyzed with the fixed-point solver.
	Cyclic bool

	replicas []int
}

// Replicas returns the replication degree per operator of the Final
// topology: fission degrees carried over by name for operators that
// survived fusion, one for fused meta-operators (the paper forbids
// replicating them). The returned slice is shared; do not modify.
func (r *Result) Replicas() []int { return r.replicas }

// Throughput is the final predicted topology throughput.
func (r *Result) Throughput() float64 { return r.Analysis.Throughput() }

// Pipeline is an ordered list of passes over a shared snapshot.
type Pipeline struct {
	Opts   Options
	Passes []Pass
}

// New builds the default pipeline for opts: analyze, fission, fusion.
// Construct a Pipeline literal to run another pass list.
func New(opts Options) *Pipeline {
	return &Pipeline{Opts: opts, Passes: []Pass{AnalyzePass{}, FissionPass{}, FusionPass{}}}
}

// Run executes the default pipeline on t.
func Run(t *core.Topology, opts Options) (*Result, error) {
	return New(opts).Run(t)
}

// Run executes the pipeline on a snapshot of t.
func (p *Pipeline) Run(t *core.Topology) (*Result, error) {
	if len(p.Passes) == 0 || p.Passes[0].Name() != "analyze" {
		return nil, fmt.Errorf("opt: pipeline must start with the analyze pass")
	}
	snap := NewSnapshot(t)
	ctx := &Context{
		Opts:   p.Opts,
		Cache:  NewSolverCache(),
		Result: &Result{Input: snap},
		Trace:  newTrace(snap),
	}
	ctx.Result.Trace = ctx.Trace

	// Mandatory vet pre-pass: errors abort the run before any pass
	// executes; warnings attach to the trace. The pre-pass dry-runs the
	// solver through the pipeline's cache, so it adds no extra solves —
	// the analyze pass hits the memoized result.
	pre := lint.Run(snap.Topology(), lint.Config{
		AllowCycles: p.Opts.AllowCycles,
		Solver:      ctx.Cache,
	})
	if err := pre.Err(); err != nil {
		return nil, fmt.Errorf("opt: vet: %w", err)
	}
	ctx.Trace.Lint = pre.Diagnostics

	cur := snap
	var err error
	for _, pass := range p.Passes {
		cur, err = pass.Run(ctx, cur)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.ensureFinal(cur); err != nil {
		return nil, err
	}
	// Mandatory verification post-pass: bounded-queue interpretation of
	// the *optimized* plan under its deployed replica degrees
	// (SS3001/SS3002). The pre-pass vets the topology the user wrote;
	// this vets the one the pipeline is about to ship — restructuring
	// changes the plan the back-pressure argument runs over. Errors
	// abort the run; warnings attach to the trace with the pre-pass
	// findings.
	post := lint.VerifyPlan(cur.Topology(), lint.Config{
		AllowCycles:     p.Opts.AllowCycles,
		Replicas:        ctx.Result.replicas,
		MailboxCapacity: p.Opts.MailboxCapacity,
		BurstFactor:     p.Opts.BurstFactor,
		BurstSeconds:    p.Opts.BurstSeconds,
	})
	if err := post.Err(); err != nil {
		return nil, fmt.Errorf("opt: verify optimized plan: %w", err)
	}
	ctx.Trace.Lint = append(ctx.Trace.Lint, post.Diagnostics...)
	ctx.Result.Final = cur
	ctx.Result.CacheStats = ctx.Cache.Stats()
	ctx.Trace.ThroughputAfter = ctx.Result.Analysis.Throughput()
	ctx.Trace.FinalFingerprint = fmt.Sprintf("%016x", cur.Fingerprint())
	return ctx.Result, nil
}

// ensureFinal computes, once, the final replica mapping and the final
// analysis for the current snapshot. Fission degrees index the input
// topology; survivors are matched to the final topology by name (fusion
// preserves survivor names), and meta-operators get degree one.
func (ctx *Context) ensureFinal(cur *Snapshot) error {
	res := ctx.Result
	if res.Analysis != nil {
		return nil
	}
	final := cur.Topology()
	replicas := make([]int, final.Len())
	for i := range replicas {
		replicas[i] = 1
	}
	replicated := false
	if res.Fission != nil {
		input := res.Input.Topology()
		for i := 0; i < final.Len(); i++ {
			if id, ok := input.Lookup(final.Op(core.OpID(i)).Name); ok {
				if n := res.Fission.Analysis.Replicas[id]; n > 1 {
					replicas[i] = n
					replicated = true
				}
			}
		}
	}
	res.replicas = replicas

	var a *core.Analysis
	var err error
	switch {
	case ctx.cyclic:
		a, err = core.SteadyStateCyclic(final)
	case replicated:
		a, err = ctx.Cache.SteadyStateWithReplicas(final, replicas, ctx.Opts.Fission.Partitioner)
	default:
		a, err = ctx.Cache.SteadyState(final)
	}
	if err != nil {
		return fmt.Errorf("opt: final analysis: %w", err)
	}
	res.Analysis = a
	// Record the edge-topology transport analysis on the deployed plan:
	// the runtime derives each inbox's transport from the same producer
	// sets, so the trace is the replayable proof behind every SPSC
	// binding.
	tt, err := transportTrace(final, replicas, ctx.Opts.Fission.Partitioner, ctx.cyclic || ctx.Opts.AllowCycles)
	if err != nil {
		return fmt.Errorf("opt: transport analysis: %w", err)
	}
	ctx.Trace.Transports = tt
	return nil
}
