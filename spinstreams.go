// Package spinstreams is a static optimization tool and execution stack
// for data stream processing applications, reproducing "SpinStreams: a
// Static Optimization Tool for Data Stream Processing Applications"
// (Mencagli, Dazzi, Tonci — Middleware 2018).
//
// The facade follows the tool's workflow:
//
//   - read a topology document, replica degrees included
//     (ReadTopology, ReadTopologyFile), or build one (NewTopology);
//   - Optimize it over the pass pipeline: steady-state analysis under
//     backpressure (Algorithm 1), operator fission with optimal
//     replication degrees (Algorithm 2), operator fusion of
//     single-front-end subgraphs (Algorithm 3), the latency estimate;
//   - deploy the result live on the goroutine runtime, whose station
//     inboxes are bounded batched queues (Run, Start, RunDistributed);
//   - check it in the discrete-event simulator (Simulate) and the static
//     verifier (Vet).
//
// RunCommand is the tool's run subcommand; a program that spinstreams
// generate writes is the optimized document plus one call to it.
//
// Quick start:
//
//	t := spinstreams.NewTopology()
//	src := t.MustAddOperator(spinstreams.Operator{Name: "src", Kind: spinstreams.KindSource, ServiceTime: 1e-3})
//	hot := t.MustAddOperator(spinstreams.Operator{Name: "hot", Kind: spinstreams.KindStateless, ServiceTime: 4e-3})
//	sink := t.MustAddOperator(spinstreams.Operator{Name: "sink", Kind: spinstreams.KindSink, ServiceTime: 1e-4})
//	t.MustConnect(src, hot, 1)
//	t.MustConnect(hot, sink, 1)
//	res, _ := spinstreams.Optimize(t, "fission", spinstreams.OptimizerOptions{})
//	_ = res.Baseline.Throughput() // 250/s: hot is a bottleneck
//	_ = res.Replicas()            // [1 4 1]: hot gets ceil(4) = 4 replicas
//	_ = res.Throughput()          // 1000/s
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

// Optimizer pipeline types (internal/opt): the pass pipeline that
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
	// DeltaPlan is a re-optimization's output under measured profiles:
	// replica changes and fusions to undo (see AutotuneRound).
	DeltaPlan = opt.DeltaPlan
)

// Optimize runs the pass pipeline the comma-separated passes name, as
// spinstreams optimize -passes does: analysis always, then fission,
// fusion or fuse=a+b+c, and latency in that order ("" is the analysis
// alone). The result's final topology and Replicas() are the deployment.
func Optimize(t *Topology, passes string, opts OptimizerOptions) (*OptimizerResult, error) {
	p, err := opt.ParsePasses(passes, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(t)
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

// Simulate measures the deployment in the discrete-event simulator;
// replicas may be nil for an unreplicated one.
func Simulate(t *Topology, replicas []int, cfg SimConfig) (*SimResult, error) {
	return qsim.SimulateTopology(t, replicas, cfg)
}

// Run executes the deployment live on the goroutine runtime; replicas may
// be nil, and a nil binding runs identity operators.
func Run(ctx context.Context, t *Topology, replicas []int, binding *Binding, cfg RunConfig) (*RunMetrics, error) {
	return runtime.RunTopology(ctx, t, replicas, binding, cfg)
}

// Live reconfiguration re-exports (internal/runtime's controller/epoch
// architecture): a deployment started with Start keeps running while
// delta plans are applied in-flight — replica rescaling, keyed-state
// migration, fusion undo — under a bounded pause fence.
type (
	// LiveController owns a running deployment that can be reconfigured
	// in-flight; obtain one from Start.
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

// Start deploys like Run and returns a controller that keeps the
// deployment running until Stop. Unlike Run, it can be reconfigured while
// tuples flow: the controller's ApplyDelta rescales operators, migrates
// keyed state and undoes fusions in-flight, and Autotune closes the
// measure → re-optimize → apply loop.
func Start(t *Topology, replicas []int, binding *Binding, cfg RunConfig) (*LiveController, error) {
	return runtime.StartTopology(t, replicas, binding, cfg)
}

// DistributedConfig tunes RunDistributed.
type DistributedConfig = runtime.DistributedConfig

// RunDistributed partitions the deployment's physical plan across nodes
// that exchange items over TCP (the Akka-Remoting analog the paper lists
// as future work); backpressure propagates across the network.
func RunDistributed(ctx context.Context, t *Topology, replicas []int, binding *Binding, cfg DistributedConfig) (*RunMetrics, error) {
	p, err := plan.Build(t, plan.Options{Replicas: replicas})
	if err != nil {
		return nil, err
	}
	return runtime.RunDistributed(ctx, p, binding, cfg)
}

// NewFaultInjector builds a deterministic fault injector for
// RunConfig.Faults. Injectors are single-use: build a fresh one per run.
func NewFaultInjector(cfg FaultInjectorConfig) *FaultInjector { return faultinject.New(cfg) }

// NewObsRegistry builds an empty metrics registry for RunConfig.Obs. The
// runtime binds it to the physical plan at Run time; after (or during) a
// run, Snapshot(), WritePrometheus, Serve and ComputeDrift read it.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// ComputeDrift reports the relative error between predicted and measured
// departure rates over the registry's steady-state window and, when the
// run had RunConfig.Estimator set, re-runs the cost model on the
// estimator's measured profiles — the measure → predict → verify loop of
// the paper's workflow, closed on live data. Replicas may be nil for an
// unreplicated run.
func ComputeDrift(t *Topology, replicas []int, r *ObsRegistry) (*DriftReport, error) {
	return obs.Drift(t, replicas, r)
}

// BuildOperator constructs a catalog operator implementation.
func BuildOperator(spec Spec) (operators.Operator, error) { return operators.Build(spec) }

// OperatorCatalog lists the built-in operator implementations.
func OperatorCatalog() []string { return operators.Catalog() }

// ReadTopology parses a topology document: the topology and one
// replication degree per operator (all ones when the document records
// none). Key-file references are rejected; ReadTopologyFile resolves them.
func ReadTopology(r io.Reader) (*Topology, []int, error) { return xmlio.ReadOptimized(r) }

// ReadTopologyFile is ReadTopology on the document at path; keysFile
// references resolve relative to its directory.
func ReadTopologyFile(path string) (*Topology, []int, error) { return xmlio.ReadFileOptimized(path) }

// WriteTopology serializes a deployment as XML: the topology (fused
// meta-operators included) and its replication degrees, which may be nil
// for all ones. ReadTopology reads back both.
func WriteTopology(w io.Writer, name string, t *Topology, replicas []int) error {
	return xmlio.WriteOptimized(w, name, t, replicas)
}

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
