package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
	"spinstreams/internal/runtime"
)

// ReoptimizeDemoResult is the drift→reoptimize walkthrough: a topology
// whose declared profile understates one operator's real cost runs live,
// the drift report rebuilds the measured profiles, and the optimizer
// pipeline re-runs on them to emit the delta plan that repairs the
// deployment.
type ReoptimizeDemoResult struct {
	// Model is the topology the optimizer planned with (declared
	// profiles); Deployed is what actually ran, with the hot operator
	// slowed by SlowFactor.
	Model, Deployed *core.Topology
	SlowFactor      float64
	// HotOp names the operator whose measured cost drifted.
	HotOp string
	// Metrics is the live run's engine view.
	Metrics *runtime.Metrics
	// Report is the drift report carrying the measured profiles.
	Report *obs.DriftReport
	// Delta is the re-optimization outcome: which operators change
	// replica degree under the measured profiles.
	Delta *opt.DeltaPlan
}

// ReoptimizeDemo continues the drift demo one step further: instead of
// only *reporting* that the model drifted from the measurements, it
// feeds the measured profiles back through the optimizer pipeline
// (opt.Reoptimize) and emits the delta plan. The deployment is seeded
// with an understated profile — a stateless operator declared at
// serviceTime but deployed slowFactor times slower — so the plan has a
// real correction to make: the operator's measured utilization exceeds
// one and fission assigns it the replica degree the declared profile
// never justified.
func ReoptimizeDemo(ctx context.Context, slowFactor float64, opts LiveOptions) (*ReoptimizeDemoResult, error) {
	if slowFactor <= 1 {
		slowFactor = 3
	}
	if opts.Duration <= 0 {
		opts.Duration = 3 * time.Second
	}
	if opts.MailboxSize <= 0 {
		opts.MailboxSize = 8
	}

	// The model: a pipeline whose stateless middle stage looks cheap
	// enough to leave unreplicated.
	model := core.NewTopology()
	src := model.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 1e-3})
	mid := model.MustAddOperator(core.Operator{Name: "map", Kind: core.KindStateless, ServiceTime: 0.5e-3})
	sink := model.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.1e-3})
	model.MustConnect(src, mid, 1)
	model.MustConnect(mid, sink, 1)

	// Plan with fission only: the deployment keeps the model's shape, so
	// the drift report can compare station-for-station.
	res, err := opt.Run(model, opt.Options{DisableFusion: true})
	if err != nil {
		return nil, fmt.Errorf("reoptimize demo: plan: %w", err)
	}
	replicas := res.Replicas()

	// The deployment: same shape, but the map's real cost is slowFactor
	// times the declared one (the runtime paces stations by declared
	// service time, so this is what actually executes).
	deployed := model.Clone()
	deployed.Op(mid).ServiceTime *= slowFactor

	reg := obs.New()
	m, err := runtime.RunTopology(ctx, deployed, replicas, nil, runtime.Config{
		Seed:        1,
		Duration:    opts.Duration,
		Warmup:      opts.Duration / 3,
		MailboxSize: opts.MailboxSize,
		Batch:       opts.Batch,
		Linger:      opts.Linger,
		MaxRestarts: opts.MaxRestarts,
		Obs:         reg,
		Estimator:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("reoptimize demo: live run: %w", err)
	}
	// Drift is computed against the *model*: predicted rates from the
	// declared profiles, measured rates and profiles from the registry.
	rep, err := obs.Drift(model, replicas, reg)
	if err != nil {
		return nil, fmt.Errorf("reoptimize demo: drift report: %w", err)
	}
	delta, err := opt.Reoptimize(opt.NewSnapshot(model), rep, opt.Options{})
	if err != nil {
		return nil, fmt.Errorf("reoptimize demo: reoptimize: %w", err)
	}
	return &ReoptimizeDemoResult{
		Model:      model,
		Deployed:   deployed,
		SlowFactor: slowFactor,
		HotOp:      "map",
		Metrics:    m,
		Report:     rep,
		Delta:      delta,
	}, nil
}

// Header implements Tabular: one row per operator, declared vs measured
// cost and the replica movement the delta plan prescribes.
func (r *ReoptimizeDemoResult) Header() []string {
	return []string{"op", "name", "declared_ms", "measured_ms", "replicas_before", "replicas_after"}
}

// TableRows implements Tabular.
func (r *ReoptimizeDemoResult) TableRows() [][]string {
	after := make(map[string]int)
	before := make(map[string]int)
	for _, c := range r.Delta.Changes {
		before[c.Operator], after[c.Operator] = c.From, c.To
	}
	rows := make([][]string, 0, r.Model.Len())
	for i := 0; i < r.Model.Len(); i++ {
		op := r.Model.Op(core.OpID(i))
		measured := 0.0
		if i < len(r.Report.MeasuredProfiles) {
			measured = r.Report.MeasuredProfiles[i].ServiceTime
		}
		b, a := 1, 1
		if r.Report.Replicas != nil {
			b = r.Report.Replicas[i]
			a = b
		}
		if n, ok := after[op.Name]; ok {
			b, a = before[op.Name], n
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			op.Name,
			fmt.Sprintf("%.3f", op.ServiceTime*1e3),
			fmt.Sprintf("%.3f", measured*1e3),
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", a),
		})
	}
	return rows
}

// String renders the walkthrough.
func (r *ReoptimizeDemoResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reoptimize walkthrough — %s deployed %.1fx slower than declared\n",
		r.HotOp, r.SlowFactor)
	fmt.Fprintf(&b, "live run: measured throughput %.1f t/s over %.1fs (predicted %.1f t/s)\n",
		r.Metrics.Throughput, r.Report.Seconds, r.Report.PredictedThroughput)
	b.WriteString(r.Report.String())
	b.WriteString("delta plan from measured profiles:\n")
	b.WriteString(r.Delta.String())
	return b.String()
}
