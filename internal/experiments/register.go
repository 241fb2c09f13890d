// Scenario registrations: every evaluation driver — the paper figures and
// tables, the ablations, the live walkthroughs, the corpus and the chaos
// soak — enters the registry here, so cmd/ssbench (and any other caller)
// can enumerate, filter and run them uniformly.
package experiments

import (
	"context"

	"spinstreams/internal/core"
)

func init() {
	Register(Scenario{
		Name:    "fig7",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 7: backpressure-model throughput accuracy on the testbed",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Fig7(o.Setup)
		},
	})
	Register(Scenario{
		Name:    "fig8",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 8: per-operator departure-rate prediction error",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Fig8(o.Setup)
		},
	})
	Register(Scenario{
		Name:    "fig9",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 9: throughput after bottleneck elimination (Algorithm 2)",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Fig9(o.Setup)
		},
	})
	Register(Scenario{
		Name:    "fig10",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 10: fission under replica-budget bounds",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Fig10(o.Setup)
		},
	})
	Register(Scenario{
		Name:    "table1",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Tables 1/3: operator fusion on the paper example (variant 1)",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Table(o.Setup, core.PaperExampleTable1)
		},
	})
	Register(Scenario{
		Name:    "table2",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Tables 2/4: operator fusion on the paper example (variant 2)",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Table(o.Setup, core.PaperExampleTable2)
		},
	})
	Register(Scenario{
		Name:    "keypart",
		Tags:    []string{"sim", "ablation", "default"},
		Summary: "key-partitioning ablation: greedy vs consistent-hash pmax",
		Run: func(_ context.Context, o Options) (Result, error) {
			return KeyPartitioningAblation(100, 8, nil)
		},
	})
	Register(Scenario{
		Name:    "buffers",
		Tags:    []string{"sim", "ablation", "default"},
		Summary: "buffer-size ablation: throughput vs mailbox capacity",
		Run: func(_ context.Context, o Options) (Result, error) {
			return BufferSizeAblation(o.Setup, nil)
		},
	})
	Register(Scenario{
		Name:    "latency",
		Tags:    []string{"sim", "ablation", "default"},
		Summary: "queueing-latency accuracy across utilization levels",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Latency(o.Setup, nil)
		},
	})
	Register(Scenario{
		Name:    "shedding",
		Tags:    []string{"sim", "extension", "default"},
		Summary: "load shedding: throughput/drop tradeoff under overload",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Shedding(o.Setup)
		},
	})
	Register(Scenario{
		Name:    "elasticity",
		Tags:    []string{"sim", "extension", "default"},
		Summary: "static optimization vs reactive scaling on one topology",
		Run: func(_ context.Context, o Options) (Result, error) {
			return Elasticity(o.Setup, ElasticityOptions{})
		},
	})
	Register(Scenario{
		Name:    "corpus",
		Tags:    []string{"sim", "paper", "workload", "extension"},
		Summary: "Section 5 corpus: 50 topologies x workloads x {unopt, static, autotune}",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return Corpus(ctx, o.Setup, o.Corpus)
		},
		Check: CheckCorpus,
	})
	Register(Scenario{
		Name:    "estimator",
		Tags:    []string{"sim", "extension", "workload", "default"},
		Summary: "probe-free service-rate estimation vs qsim ground truth",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return Estimator(ctx, o.Estimator)
		},
		Check: CheckEstimator,
	})
	Register(Scenario{
		Name:    "fig7live",
		Tags:    []string{"live", "paper"},
		Summary: "Figure 7 measured on the live goroutine runtime",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return Fig7Live(ctx, o.Setup, o.Live)
		},
	})
	Register(Scenario{
		Name:    "drift",
		Tags:    []string{"live", "extension"},
		Summary: "predict, optimize, run, verify walkthrough on the paper example",
		Run: func(ctx context.Context, o Options) (Result, error) {
			variant := core.PaperExampleTable2
			if o.DriftTable == 1 {
				variant = core.PaperExampleTable1
			}
			return DriftDemo(ctx, variant, o.Live)
		},
	})
	Register(Scenario{
		Name:    "reopt",
		Tags:    []string{"live", "extension"},
		Summary: "drift then reoptimize: delta plan from measured profiles",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return ReoptimizeDemo(ctx, o.SlowFactor, o.Live)
		},
	})
	Register(Scenario{
		Name:    "autotune",
		Tags:    []string{"live", "extension"},
		Summary: "live autonomic loop: measure, re-optimize, apply the delta in-flight",
		Run: func(ctx context.Context, o Options) (Result, error) {
			live := o.Live
			if o.AutotuneInterval > 0 {
				live.Duration = o.AutotuneInterval
			}
			return AutotuneDemo(ctx, o.SlowFactor, o.AutotuneRounds, live)
		},
	})
	Register(Scenario{
		Name:    "chaos",
		Tags:    []string{"live", "extension"},
		Summary: "fault-injection soak: tuple conservation under panics and stalls",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return Chaos(ctx, o.Setup, o.Chaos)
		},
		Check: CheckChaos,
	})
}
