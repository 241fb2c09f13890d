// Scenario registrations: every evaluation driver — the paper figures and
// tables, the ablations, the live walkthroughs, the corpus and the chaos
// soak — enters the registry here, and the registry is the only way to
// run one: cmd/ssbench (and any other caller) enumerates, filters and runs
// them uniformly.
package experiments

import (
	"context"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
)

// profile is every size a scenario runs at. The full profile is the
// drivers' zero-value defaults (50-topology testbed at a 40 s horizon,
// 50-topology corpus, 34 estimator seeds, 8 live topologies at 3 s), which
// the committed results/ are regenerated from; Quick is the CI-sized one.
type profile struct {
	setup          setup
	corpus         CorpusOptions
	estimatorSeeds int
	live           liveOptions
}

func (o Options) profile() profile {
	p := profile{setup: setup{Seed: o.Seed}}
	if o.Quick {
		p.setup.Topologies, p.setup.Sim = 10, qsim.Config{Horizon: 15}
		p.corpus = CorpusOptions{Topologies: 5, Horizon: 6, Rounds: 3}
		p.estimatorSeeds = 8
		p.live = liveOptions{Topologies: 3, Duration: time.Second}
	}
	return p
}

func init() {
	Register(Scenario{
		Name:    "fig7",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 7: backpressure-model throughput accuracy on the testbed",
		Run: func(_ context.Context, o Options) (Result, error) {
			return fig7(o.profile().setup)
		},
	})
	Register(Scenario{
		Name:    "fig8",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 8: per-operator departure-rate prediction error",
		Run: func(_ context.Context, o Options) (Result, error) {
			return fig8(o.profile().setup)
		},
	})
	Register(Scenario{
		Name:    "fig9",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 9: throughput after bottleneck elimination (Algorithm 2)",
		Run: func(_ context.Context, o Options) (Result, error) {
			return fig9(o.profile().setup)
		},
	})
	Register(Scenario{
		Name:    "fig10",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Figure 10: fission under replica-budget bounds",
		Run: func(_ context.Context, o Options) (Result, error) {
			return fig10(o.profile().setup)
		},
	})
	Register(Scenario{
		Name:    "table1",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Tables 1/3: operator fusion on the paper example (variant 1)",
		Run: func(_ context.Context, o Options) (Result, error) {
			return table(o.profile().setup, core.PaperExampleTable1)
		},
	})
	Register(Scenario{
		Name:    "table2",
		Tags:    []string{"sim", "paper", "default"},
		Summary: "Tables 2/4: operator fusion on the paper example (variant 2)",
		Run: func(_ context.Context, o Options) (Result, error) {
			return table(o.profile().setup, core.PaperExampleTable2)
		},
	})
	Register(Scenario{
		Name:    "keypart",
		Tags:    []string{"sim", "ablation", "default"},
		Summary: "key-partitioning ablation: greedy vs consistent-hash pmax",
		Run: func(_ context.Context, _ Options) (Result, error) {
			return keyPartitioningAblation(100, 8)
		},
	})
	Register(Scenario{
		Name:    "buffers",
		Tags:    []string{"sim", "ablation", "default"},
		Summary: "buffer-size ablation: throughput vs mailbox capacity",
		Run: func(_ context.Context, o Options) (Result, error) {
			return bufferSizeAblation(o.profile().setup, nil)
		},
	})
	Register(Scenario{
		Name:    "latency",
		Tags:    []string{"sim", "ablation", "default"},
		Summary: "queueing-latency accuracy across utilization levels",
		Run: func(_ context.Context, o Options) (Result, error) {
			return latency(o.profile().setup, nil)
		},
	})
	Register(Scenario{
		Name:    "shedding",
		Tags:    []string{"sim", "extension", "default"},
		Summary: "load shedding: throughput/drop tradeoff under overload",
		Run: func(_ context.Context, o Options) (Result, error) {
			return shedding(o.profile().setup)
		},
	})
	Register(Scenario{
		Name:    "elasticity",
		Tags:    []string{"sim", "extension", "default"},
		Summary: "static optimization vs reactive scaling on one topology",
		Run: func(_ context.Context, o Options) (Result, error) {
			return elasticity(o.profile().setup, elasticityOptions{})
		},
	})
	Register(Scenario{
		Name:    "corpus",
		Tags:    []string{"sim", "paper", "workload", "extension"},
		Summary: "Section 5 corpus: 50 topologies x workloads x {unopt, static, autotune}",
		Run: func(ctx context.Context, o Options) (Result, error) {
			p := o.profile()
			return corpus(ctx, p.setup, p.corpus)
		},
		Check: checkCorpus,
	})
	Register(Scenario{
		Name:    "estimator",
		Tags:    []string{"sim", "extension", "workload", "default"},
		Summary: "probe-free service-rate estimation vs qsim ground truth",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return estimator(ctx, o.profile().estimatorSeeds)
		},
		Check: checkEstimator,
	})
	Register(Scenario{
		Name:    "fig7live",
		Tags:    []string{"live", "paper"},
		Summary: "Figure 7 measured on the live goroutine runtime",
		Run: func(ctx context.Context, o Options) (Result, error) {
			p := o.profile()
			return fig7Live(ctx, p.setup, p.live)
		},
	})
	Register(Scenario{
		Name:    "drift",
		Tags:    []string{"live", "extension"},
		Summary: "predict, optimize, run, verify walkthrough on the paper example",
		Run: func(ctx context.Context, _ Options) (Result, error) {
			return driftDemo(ctx)
		},
	})
	Register(Scenario{
		Name:    "reopt",
		Tags:    []string{"live", "extension"},
		Summary: "drift then reoptimize: delta plan from measured profiles",
		Run: func(ctx context.Context, _ Options) (Result, error) {
			return reoptimizeDemo(ctx, 3*time.Second)
		},
	})
	Register(Scenario{
		Name:    "autotune",
		Tags:    []string{"live", "extension"},
		Summary: "live autonomic loop: measure, re-optimize, apply the delta in-flight",
		Run: func(ctx context.Context, _ Options) (Result, error) {
			return autotuneDemo(ctx)
		},
	})
	Register(Scenario{
		Name:    "chaos",
		Tags:    []string{"live", "extension"},
		Summary: "fault-injection soak: tuple conservation under panics and stalls",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return chaos(ctx, o.Seed)
		},
		Check: checkChaos,
	})
}
