// Package spinstreams is a static optimization tool and execution stack
// for data stream processing applications, reproducing "SpinStreams: a
// Static Optimization Tool for Data Stream Processing Applications"
// (Mencagli, Dazzi, Tonci — Middleware 2018).
//
// The package is a facade over the library's subsystems:
//
//   - topology modeling and the steady-state backpressure cost model
//     (Algorithm 1), operator fission with optimal replication degrees
//     (Algorithm 2), and operator fusion of single-front-end subgraphs
//     (Algorithm 3) — internal/core;
//   - the XML topology formalism — internal/xmlio;
//   - the catalog of 20 real-world operators (maps, filters, windowed
//     aggregations, spatial queries, band-joins) — internal/operators;
//   - physical plan expansion (emitters, replicas, collectors,
//     meta-operators) — internal/plan;
//   - a deterministic discrete-event simulator of the topology as a
//     queueing network with Blocking-After-Service semantics —
//     internal/qsim;
//   - a live goroutine runtime with bounded-channel mailboxes (the
//     SS2Akka analog) — internal/runtime;
//   - random testbed generation (Algorithm 5), profiling and Go code
//     generation — internal/randtopo, internal/profiler,
//     internal/codegen.
//
// Quick start:
//
//	t := spinstreams.NewTopology()
//	src := t.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
//	hot := t.MustAddOperator(spinstreams.Operator{Name: "hot", Kind: spinstreams.KindStateless, ServiceTime: 4e-3})
//	sink := t.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
//	t.MustConnect(src, hot, 1)
//	t.MustConnect(hot, sink, 1)
//	a, _ := spinstreams.Analyze(t)              // predicted throughput: 250/s (hot is a bottleneck)
//	res, _ := spinstreams.Optimize(t, spinstreams.FissionOptions{})
//	_ = a
//	_ = res                                     // hot gets ceil(4) = 4 replicas; throughput 1000/s
//
// See the runnable programs under examples/ for full scenarios.
package spinstreams

import (
	"context"
	"io"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/lint"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/qsim"
	"spinstreams/internal/runtime"
	"spinstreams/internal/xmlio"
)

// Re-exported topology model types.
type (
	// Topology is a rooted acyclic graph of operators; see core.Topology.
	Topology = core.Topology
	// Operator is one vertex of a topology.
	Operator = core.Operator
	// OpID identifies an operator within a topology.
	OpID = core.OpID
	// Kind classifies an operator's state.
	Kind = core.Kind
	// KeyDistribution is the key-frequency profile of a
	// partitioned-stateful operator.
	KeyDistribution = core.KeyDistribution
	// Analysis is the result of the steady-state cost model.
	Analysis = core.Analysis
	// FissionOptions tunes bottleneck elimination.
	FissionOptions = core.FissionOptions
	// FissionResult is the outcome of bottleneck elimination.
	FissionResult = core.FissionResult
	// FusionReport is the predicted outcome of an operator fusion.
	FusionReport = core.FusionReport
	// FusionCandidate is a ranked fusion suggestion.
	FusionCandidate = core.FusionCandidate
	// SimConfig tunes the discrete-event simulation.
	SimConfig = qsim.Config
	// SimResult is a simulation outcome.
	SimResult = qsim.Result
	// RunConfig tunes live execution on the goroutine runtime.
	RunConfig = runtime.Config
	// RunMetrics is a live execution outcome.
	RunMetrics = runtime.Metrics
	// RunTotals is the lifetime tuple accounting of a run; on unit-gain
	// topologies Generated == Delivered + Shed + Failed + Drained +
	// Abandoned exactly.
	RunTotals = runtime.Totals
	// FaultInjector deterministically injects faults into a run via
	// RunConfig.Faults; see internal/faultinject.
	FaultInjector = faultinject.Injector
	// FaultInjectorConfig selects the fault schedule.
	FaultInjectorConfig = faultinject.Config
	// Binding supplies operator implementations to the runtime.
	Binding = runtime.Binding
	// Tuple is the unit of data flowing through executed topologies.
	Tuple = operators.Tuple
	// Spec selects a catalog operator implementation.
	Spec = operators.Spec
	// Plan is a physical execution plan.
	Plan = plan.Plan
	// ObsRegistry is the per-station metrics registry; pass one via
	// RunConfig.Obs for live counters, tracer hooks, the HTTP metrics
	// endpoint and post-run snapshots. With RunConfig.Estimator set it
	// also holds the run's online estimator, the only source of measured
	// profiles. Binding one adds no per-tuple work; attached tracers do.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time view of a registry.
	ObsSnapshot = obs.Snapshot
	// Tracer receives station lifecycle callbacks (receive, serve, emit,
	// restart, degrade); register via ObsRegistry.AddTracer before the run.
	Tracer = obs.Tracer
	// DriftReport compares the cost model's predictions against a run's
	// measured rates.
	DriftReport = obs.DriftReport
)

// Operator kinds.
const (
	KindSource              = core.KindSource
	KindStateless           = core.KindStateless
	KindPartitionedStateful = core.KindPartitionedStateful
	KindStateful            = core.KindStateful
	KindSink                = core.KindSink
)

// NewTopology returns an empty topology.
func NewTopology() *Topology { return core.NewTopology() }

// Analyze runs the steady-state analysis (Algorithm 1): per-operator
// departure rates and the predicted topology throughput under
// backpressure.
func Analyze(t *Topology) (*Analysis, error) { return core.SteadyState(t) }

// Optimize eliminates bottlenecks via operator fission (Algorithm 2).
func Optimize(t *Topology, opts FissionOptions) (*FissionResult, error) {
	return core.EliminateBottlenecks(t, opts)
}

// Fuse replaces the subgraph with a meta-operator (Algorithm 3) and
// predicts the outcome; the returned topology is a new graph.
func Fuse(t *Topology, members []OpID, name string) (*Topology, *FusionReport, error) {
	return core.Fuse(t, members, name)
}

// Candidates proposes fusion subgraphs ranked by the meta-operator's
// predicted utilization, most underutilized first.
func Candidates(t *Topology) ([]FusionCandidate, error) {
	return core.FusionCandidates(t, nil)
}

// AutoFuse repeatedly applies the safest fusion candidate until none
// qualifies, coarsening the topology without hurting predicted throughput
// (the automation the paper lists as future work).
func AutoFuse(t *Topology, opts core.AutoFuseOptions) (*core.AutoFuseResult, error) {
	return core.AutoFuse(t, opts)
}

// AutoFuseOptions and AutoFuseResult configure and report AutoFuse.
type (
	AutoFuseOptions = core.AutoFuseOptions
	AutoFuseResult  = core.AutoFuseResult
)

// EstimateLatency predicts per-operator queueing delays and the expected
// end-to-end latency from a steady-state analysis (pass nil to compute
// one); an extension of the paper's throughput-only models, validated
// against the simulator's measured waiting times.
func EstimateLatency(t *Topology, a *Analysis, model core.LatencyModel, bufferCapacity int) (*core.LatencyEstimate, error) {
	return core.EstimateLatency(t, a, model, bufferCapacity)
}

// Latency model selectors and result type.
type (
	LatencyModel    = core.LatencyModel
	LatencyEstimate = core.LatencyEstimate
)

// Queueing approximations for EstimateLatency.
const (
	MM1 = core.MM1
	MD1 = core.MD1
)

// Optimizer pipeline types (internal/opt): the pass-pipeline driver that
// composes Algorithms 1-3 over an immutable topology snapshot with a
// memoizing steady-state solver and a structured rewrite trace.
type (
	// OptimizerOptions configures the pass pipeline (fission, fusion and
	// latency parameters, cyclic admission).
	OptimizerOptions = opt.Options
	// OptimizerResult is the pipeline outcome: final snapshot, per-pass
	// results, replica degrees mapped to the final topology, the rewrite
	// trace and the solver-cache statistics.
	OptimizerResult = opt.Result
	// RewriteTrace is the structured record of every optimizer decision,
	// exportable as JSON (schema opt.TraceSchema).
	RewriteTrace = opt.Trace
	// DeltaPlan is Reoptimize's output: replica changes and fusions to
	// undo under measured profiles.
	DeltaPlan = opt.DeltaPlan
)

// OptimizePipeline runs the full pass pipeline — analysis, bottleneck
// elimination, fusion — and returns the composite result with its
// rewrite trace. Equivalent to running Analyze, Optimize and AutoFuse in
// sequence, but with shared solver memoization and provenance.
func OptimizePipeline(t *Topology, opts OptimizerOptions) (*OptimizerResult, error) {
	return opt.Run(t, opts)
}

// Reoptimize closes the adaptation loop: it substitutes a drift report's
// measured profiles into the topology, re-runs the optimizer pipeline,
// and returns the delta plan (replica changes, fusions to undo) that
// moves the deployment to the new optimum.
func Reoptimize(t *Topology, drift *DriftReport, opts OptimizerOptions) (*DeltaPlan, error) {
	return opt.Reoptimize(opt.NewSnapshot(t), drift, opts)
}

// AnalyzeCyclic runs the steady-state analysis extended to topologies with
// feedback edges (the cyclic generality the paper lists as future work):
// the traffic equations are solved by fixed-point iteration and the source
// is scaled against the binding capacity.
func AnalyzeCyclic(t *Topology) (*Analysis, error) { return core.SteadyStateCyclic(t) }

// AnalyzeShedding evaluates the topology under load-shedding semantics
// (Section 2's alternative to backpressure): saturated operators discard
// their excess instead of throttling upstream, and the analysis reports
// the resulting loss.
func AnalyzeShedding(t *Topology) (*core.SheddingAnalysis, error) {
	return core.SteadyStateShedding(t)
}

// SheddingAnalysis is the load-shedding steady state.
type SheddingAnalysis = core.SheddingAnalysis

// Simulate measures the topology in the discrete-event simulator; replicas
// (from Optimize) may be nil.
func Simulate(t *Topology, replicas []int, cfg SimConfig) (*SimResult, error) {
	return qsim.SimulateTopology(t, replicas, cfg)
}

// Execute runs the topology live on the goroutine runtime.
func Execute(ctx context.Context, t *Topology, replicas []int, binding *Binding, cfg RunConfig) (*RunMetrics, error) {
	return runtime.RunTopology(ctx, t, replicas, binding, cfg)
}

// Live reconfiguration re-exports (internal/runtime's controller/epoch
// architecture): a deployment started with StartLive keeps running while
// DeltaPlans are applied in-flight — replica rescaling, keyed-state
// migration, fusion undo — under a bounded pause fence.
type (
	// LiveController owns a running deployment that can be reconfigured
	// in-flight; obtain one from StartLive.
	LiveController = runtime.Controller
	// LiveApplyReport describes one in-flight DeltaPlan application.
	LiveApplyReport = runtime.ApplyReport
	// AutotuneOptions tunes the controller's autonomic loop.
	AutotuneOptions = runtime.AutotuneOptions
	// AutotuneRound is one measure/re-optimize/apply iteration.
	AutotuneRound = runtime.AutotuneRound
	// AutotuneReport collects the loop's rounds.
	AutotuneReport = runtime.AutotuneReport
)

// StartLive deploys the topology on the goroutine runtime and returns a
// controller that keeps it running until Stop. Unlike Execute, the
// deployment can be reconfigured while tuples flow: ApplyDelta rescales
// operators, migrates keyed state, and undoes fusions in-flight, and
// Autotune closes the measure → re-optimize → apply loop automatically.
func StartLive(t *Topology, replicas []int, binding *Binding, cfg RunConfig) (*LiveController, error) {
	return runtime.StartTopology(t, replicas, binding, cfg)
}

// ApplyDelta applies a Reoptimize delta plan to a live deployment without
// restarting it: replica changes and fusion undos are fenced per change,
// with unaffected stations running throughout.
func ApplyDelta(c *LiveController, d *DeltaPlan) (*LiveApplyReport, error) {
	return c.ApplyDelta(d)
}

// DistributedConfig tunes ExecuteDistributed.
type DistributedConfig = runtime.DistributedConfig

// NewFaultInjector builds a deterministic fault injector for
// RunConfig.Faults. Injectors are single-use: build a fresh one per run.
func NewFaultInjector(cfg FaultInjectorConfig) *FaultInjector { return faultinject.New(cfg) }

// ExecuteDistributed partitions the topology's physical plan across nodes
// that exchange items over TCP (the Akka-Remoting analog the paper lists
// as future work); backpressure propagates across the network.
func ExecuteDistributed(ctx context.Context, t *Topology, replicas []int, binding *Binding, cfg DistributedConfig) (*RunMetrics, error) {
	p, err := plan.Build(t, plan.Options{Replicas: replicas})
	if err != nil {
		return nil, err
	}
	return runtime.RunDistributed(ctx, p, binding, cfg)
}

// NewObsRegistry builds an empty metrics registry for RunConfig.Obs. The
// runtime binds it to the physical plan at Run time; after (or during) a
// run, Snapshot(), WritePrometheus, Serve and ComputeDrift read it.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// ComputeDrift reports the relative error between predicted and measured
// departure rates over the registry's steady-state window and, when the
// run had RunConfig.Estimator set, re-runs the cost model on the
// estimator's measured profiles — the measure → predict → verify loop of
// the paper's workflow, closed on live data. Without the estimator the
// report carries no profiles, and Reoptimize refuses it.
// Replicas (from Optimize) may be nil for an unreplicated run.
func ComputeDrift(t *Topology, replicas []int, r *ObsRegistry) (*DriftReport, error) {
	return obs.Drift(t, replicas, r)
}

// BuildOperator constructs a catalog operator implementation.
func BuildOperator(spec Spec) (operators.Operator, error) { return operators.Build(spec) }

// OperatorCatalog lists the built-in operator implementations.
func OperatorCatalog() []string { return operators.Catalog() }

// ReadTopology parses the XML topology formalism.
func ReadTopology(r io.Reader) (*Topology, error) { return xmlio.Read(r) }

// ReadTopologyFile parses an XML topology file.
func ReadTopologyFile(path string) (*Topology, error) { return xmlio.ReadFile(path) }

// WriteTopology serializes a topology as XML.
func WriteTopology(w io.Writer, name string, t *Topology) error { return xmlio.Write(w, name, t) }

// Static verification ("spinstreams vet") re-exports.
type (
	// LintConfig tunes a verification run; see lint.Config.
	LintConfig = lint.Config
	// LintReport is the outcome: diagnostics with stable SS-codes,
	// renderable as text, JSON, or SARIF; see lint.Report.
	LintReport = lint.Report
	// LintDiagnostic is one finding; see lint.Diagnostic.
	LintDiagnostic = lint.Diagnostic
)

// Vet statically verifies a topology: graph shape, probability and key
// mass, cost-model convergence, optional fusion-candidate and
// rewrite-trace checks. The optimizer pipeline runs the same checks as a
// mandatory pre-pass.
func Vet(t *Topology, cfg LintConfig) *LintReport { return lint.Run(t, cfg) }

// PaperExample builds the six-operator fusion example of Section 5.4
// (Figure 11 / Tables 1-2) and the subgraph the paper fuses.
func PaperExample(table2 bool) (*Topology, []OpID) {
	variant := core.PaperExampleTable1
	if table2 {
		variant = core.PaperExampleTable2
	}
	return core.PaperExampleTopology(variant)
}
