package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/runtime"
)

// slowStage is a unit-gain stateless operator whose real cost exceeds its
// declared profile: the drift injection that gives the autonomic loop a
// genuine correction to make.
type slowStage struct{ cost time.Duration }

func (s *slowStage) Name() string              { return "slow-stage" }
func (s *slowStage) Meta() operators.Meta      { return operators.Meta{Kind: core.KindStateless} }
func (s *slowStage) Clone() operators.Operator { return &slowStage{cost: s.cost} }

func (s *slowStage) Process(in operators.Tuple, emit operators.Emit) {
	time.Sleep(s.cost)
	emit(in)
}

// AutotuneDemoResult is the live autonomic-loop walkthrough: a deployment
// whose hot operator runs slower than declared is measured, re-optimized,
// and rescaled in-flight, round by round, with no restart between the
// drifted and the repaired configuration.
type AutotuneDemoResult struct {
	// Model is the topology the controller deployed (declared profiles);
	// the hot operator's bound implementation really costs SlowFactor
	// times its declared service time.
	Model      *core.Topology
	SlowFactor float64
	HotOp      string
	// Rounds are the loop's iterations: drift measured, delta proposed,
	// delta applied (or not).
	Rounds []runtime.AutotuneRound
	// Replicas is the per-operator replication after the loop.
	Replicas []int
	// Stalls is the pause-fence duration of every applied change.
	Stalls []time.Duration
	// Metrics covers the final post-apply measurement window.
	Metrics *runtime.Metrics
}

// autotuneDemo closes the loop the reopt demo leaves open: instead of only
// *printing* the delta plan that would repair the drifted deployment, the
// controller applies it while tuples flow. A stateless stage declared at
// 1 ms really costs slowFactor ms, so the first measured window shows the
// drift, Reoptimize prescribes replicas, ApplyDelta installs them behind a
// pause fence, and the following windows measure the recovered throughput
// — all in one process lifetime: 3 rounds of 800 ms windows.
func autotuneDemo(ctx context.Context) (*AutotuneDemoResult, error) {
	const (
		rounds   = 3
		interval = 800 * time.Millisecond
	)
	model := core.NewTopology()
	src := model.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 2e-3})
	hot := model.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 1e-3})
	sink := model.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.2e-3})
	model.MustConnect(src, hot, 1)
	model.MustConnect(hot, sink, 1)

	binding := &runtime.Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowStage{cost: time.Duration(slowFactor * float64(time.Millisecond))},
	}}
	c, err := runtime.StartTopology(model, nil, binding, runtime.Config{
		Seed:      1,
		Warmup:    interval / 2,
		Obs:       obs.New(),
		Estimator: true,
	})
	if err != nil {
		return nil, fmt.Errorf("autotune demo: start: %w", err)
	}
	rep, aerr := c.Autotune(ctx, runtime.AutotuneOptions{Interval: interval, Rounds: rounds})
	replicas := c.Replicas()
	stalls := c.Stalls()
	m, err := c.Stop()
	if aerr != nil {
		return nil, fmt.Errorf("autotune demo: loop: %w", aerr)
	}
	if err != nil {
		return nil, fmt.Errorf("autotune demo: stop: %w", err)
	}
	return &AutotuneDemoResult{
		Model:      model,
		SlowFactor: slowFactor,
		HotOp:      "hot",
		Rounds:     rep.Rounds,
		Replicas:   replicas,
		Stalls:     stalls,
		Metrics:    m,
	}, nil
}

// Header implements Tabular: one row per autonomic round.
func (r *AutotuneDemoResult) Header() []string {
	return []string{"round", "measured_tps", "model_tps", "throughput_err", "applied", "rescaled", "stall_ms", "migrated_keys"}
}

// TableRows implements Tabular.
func (r *AutotuneDemoResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rounds))
	for _, round := range r.Rounds {
		applied, rescaled, stall, keys := 0, 0, 0.0, 0
		if round.Apply != nil {
			applied = 1
			rescaled = round.Apply.Rescaled
			stall = float64(round.Apply.Stall) / float64(time.Millisecond)
			keys = round.Apply.MigratedKeys
		}
		rows = append(rows, []string{
			d(round.Round),
			f(round.Drift.MeasuredThroughput),
			f(round.Drift.PredictedThroughput),
			f(round.Drift.ThroughputErr),
			d(applied),
			d(rescaled),
			f(stall),
			d(keys),
		})
	}
	return rows
}

// String renders the walkthrough.
func (r *AutotuneDemoResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Autotune walkthrough — %s deployed %.1fx slower than declared, repaired in-flight\n",
		r.HotOp, r.SlowFactor)
	for _, round := range r.Rounds {
		fmt.Fprintf(&b, "round %d: measured %.1f t/s (model %.1f, err %+.1f%%)\n",
			round.Round, round.Drift.MeasuredThroughput, round.Drift.PredictedThroughput,
			100*round.Drift.ThroughputErr)
		switch {
		case round.Apply != nil:
			fmt.Fprintf(&b, "  applied live: epoch %d, stall %s, %d keys migrated\n",
				round.Apply.Epoch, round.Apply.Stall, round.Apply.MigratedKeys)
			b.WriteString(indent(round.Delta.String()))
		case round.Delta != nil && !round.Delta.Empty():
			b.WriteString("  delta proposed but not applied\n")
		default:
			b.WriteString("  deployment already optimal under the measured profiles\n")
		}
	}
	hot, _ := r.Model.Lookup(r.HotOp)
	fmt.Fprintf(&b, "final: %s at %d replica(s), post-apply throughput %.1f t/s\n",
		r.HotOp, r.Replicas[hot], r.Metrics.Throughput)
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
