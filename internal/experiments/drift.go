package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/runtime"
)

// DriftDemoResult is the measure→predict→verify walkthrough on the
// paper's six-operator example (Figure 11 / Tables 1-2): the static
// prediction, the optimizer's verdict, the live run's metrics, and the
// drift report comparing the two.
type DriftDemoResult struct {
	Variant core.PaperExampleVariant
	// Predicted is Algorithm 1 on the profiled topology.
	Predicted *core.Analysis
	// Fission is Algorithm 2's outcome. On the paper example every
	// operator is stateful, so the Table 2 bottleneck cannot be removed
	// by replication — the honest verdict the drift report then has to
	// confirm from measurements.
	Fission *core.FissionResult
	// Metrics is the live run's engine view.
	Metrics *runtime.Metrics
	// Report is the registry-derived drift report: measured departure
	// rates and utilizations against the prediction, plus a re-analysis
	// on the measured profiles.
	Report *obs.DriftReport
}

// DriftDemo closes the loop the paper's workflow promises: predict with
// Algorithm 1, optimize with Algorithm 2, execute on the live runtime
// with a metrics registry and the online estimator bound, and verify the
// prediction against the registry's measured rates and profiles. Variant selects the Table 1 (no bottleneck:
// drift validates a clean prediction) or Table 2 (fusion-grade
// bottleneck: drift confirms the saturated operator from measurements)
// service times.
func DriftDemo(ctx context.Context, variant core.PaperExampleVariant, opts LiveOptions) (*DriftDemoResult, error) {
	if opts.Duration <= 0 {
		opts.Duration = 3 * time.Second
	}
	if opts.MailboxSize <= 0 {
		opts.MailboxSize = 8
	}
	topo, _ := core.PaperExampleTopology(variant)
	a, err := core.SteadyState(topo)
	if err != nil {
		return nil, fmt.Errorf("drift demo: steady state: %w", err)
	}
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		return nil, fmt.Errorf("drift demo: fission: %w", err)
	}
	reg := obs.New()
	m, err := runtime.RunTopology(ctx, topo, fis.Analysis.Replicas, nil, runtime.Config{
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
		return nil, fmt.Errorf("drift demo: live run: %w", err)
	}
	rep, err := obs.Drift(topo, fis.Analysis.Replicas, reg)
	if err != nil {
		return nil, fmt.Errorf("drift demo: drift report: %w", err)
	}
	return &DriftDemoResult{
		Variant:   variant,
		Predicted: a,
		Fission:   fis,
		Metrics:   m,
		Report:    rep,
	}, nil
}

// Header implements Tabular: one row per operator of the drift report.
func (r *DriftDemoResult) Header() []string {
	return []string{"op", "name", "replicas", "predicted_rate", "measured_rate", "rel_err", "predicted_rho", "measured_rho", "saturated"}
}

// TableRows implements Tabular.
func (r *DriftDemoResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Report.Rows))
	for _, row := range r.Report.Rows {
		n := 1
		if row.Op < len(r.Fission.Analysis.Replicas) {
			n = r.Fission.Analysis.Replicas[row.Op]
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Op),
			row.Name,
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", row.Predicted),
			fmt.Sprintf("%.2f", row.Measured),
			fmt.Sprintf("%.4f", row.RelErr),
			fmt.Sprintf("%.3f", row.PredictedRho),
			fmt.Sprintf("%.3f", row.MeasuredRho),
			fmt.Sprintf("%t", row.Saturated),
		})
	}
	return rows
}

// String renders the walkthrough.
func (r *DriftDemoResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Drift walkthrough — paper example (Table %d)\n", int(r.Variant))
	fmt.Fprintf(&b, "predicted throughput %.1f t/s", r.Predicted.Throughput())
	if len(r.Predicted.Limiting) > 0 {
		fmt.Fprintf(&b, ", limiting operators %v", r.Predicted.Limiting)
	}
	b.WriteString("\n")
	extra := 0
	for _, n := range r.Fission.Analysis.Replicas {
		if n > 1 {
			extra += n - 1
		}
	}
	if extra > 0 {
		fmt.Fprintf(&b, "fission: +%d replicas, predicted %.1f t/s\n",
			extra, r.Fission.Analysis.Throughput())
	} else {
		b.WriteString("fission: no replicable bottleneck (stateful operators), topology unchanged\n")
	}
	fmt.Fprintf(&b, "live run: measured throughput %.1f t/s over %.1fs\n",
		r.Metrics.Throughput, r.Report.Seconds)
	b.WriteString(r.Report.String())
	return b.String()
}
