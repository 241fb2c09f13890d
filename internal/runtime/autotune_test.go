package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
)

// slowOp is a unit-gain stateless operator whose real cost exceeds
// whatever the model declares: the drift injection for autotune tests.
type slowOp struct{ d time.Duration }

func (s *slowOp) Name() string              { return "slow" }
func (s *slowOp) Meta() operators.Meta      { return operators.Meta{Kind: core.KindStateless} }
func (s *slowOp) Clone() operators.Operator { return &slowOp{d: s.d} }

func (s *slowOp) Process(in operators.Tuple, emit operators.Emit) {
	time.Sleep(s.d)
	emit(in)
}

// TestControllerAutotuneEndToEnd closes the paper's autonomic loop live:
// a deployment whose hot operator runs 3x slower than declared is
// measured by the online estimator, re-optimized, and rescaled in-flight —
// no restart — after which the measured throughput recovers and the
// applied delta's provenance trace replays cleanly under the linter. Every
// round's drift report carries the estimator's confidences: its profiles
// are strong enough to drive reoptimization, not just to report drift.
func TestControllerAutotuneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second autonomic loop")
	}
	model, hot := autotuneModel()
	// Declared: 1ms (rho 0.5 at the 500/s source). Deployed: 3ms.
	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowOp{d: 3 * time.Millisecond},
	}}
	reg := obs.New()
	cfg := Config{
		Seed:                31,
		Warmup:              300 * time.Millisecond,
		ReconfigStallBudget: 5 * time.Second,
		Obs:                 reg,
		Estimator:           true,
	}
	c, err := StartTopology(model, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Autotune(context.Background(), AutotuneOptions{
		Interval: 700 * time.Millisecond,
		Rounds:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied() < 1 {
		t.Fatalf("autotune applied no delta in %d rounds", len(rep.Rounds))
	}
	for i := range rep.Rounds {
		if dr := rep.Rounds[i].Drift; dr == nil || dr.ProfileConfidence == nil {
			t.Errorf("round %d: drift report missing estimator confidences", i)
		}
	}
	var applied *AutotuneRound
	for i := range rep.Rounds {
		if rep.Rounds[i].Apply != nil {
			applied = &rep.Rounds[i]
			break
		}
	}
	if applied.Delta.Empty() || applied.Apply.Rescaled < 1 {
		t.Errorf("applied round: delta %s, report %+v", applied.Delta, applied.Apply)
	}
	if applied.Drift == nil || applied.Drift.MeasuredProfiles == nil {
		t.Error("applied round carries no drift profiles")
	}
	if got := c.Replicas()[hot]; got < 2 {
		t.Errorf("hot replicas = %d, want >= 2 after autotune", got)
	}

	// The replica change is visible in the live observability snapshot.
	snap := reg.Snapshot()
	found := false
	for _, ss := range snap.Stations {
		if strings.HasPrefix(ss.Name, "hot/replica") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no hot/replica* station in the obs snapshot")
	}

	// The live_apply trace replays cleanly against the deployed topology.
	if applied.Trace == nil {
		t.Fatal("applied round has no live trace")
	}
	traceJSON, err := applied.Trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	lrep := lint.Run(model, lint.Config{Trace: traceJSON})
	if lrep.HasErrors() {
		t.Errorf("live trace replay has errors:\n%+v", lrep.Diagnostics)
	}

	// Stop measures the final (post-apply) window: throughput must have
	// recovered past the single-instance ceiling of 1/3ms.
	m := mustStop(t, c)
	if m.Throughput < 370 {
		t.Errorf("post-apply throughput = %.1f/s, want > 370/s (pre-apply ceiling ~333/s)", m.Throughput)
	}
	checkConserved(t, m)
}

// TestAutotuneEstimatorProbeFree closes the same autonomic loop with
// Config.Estimator and no bound Config.Obs: no counters are exported and
// nothing is timed per tuple, so the occupancy sampler on the run's own
// registry is the only measurement. The misdeclared hot operator must still
// be caught and rescaled in-flight, proving the estimator's profiles alone
// are strong enough to drive reoptimization, not just to report drift.
func TestAutotuneEstimatorProbeFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second autonomic loop")
	}
	model, hot := autotuneModel()
	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowOp{d: 3 * time.Millisecond},
	}}
	cfg := Config{
		Seed:                37,
		Warmup:              300 * time.Millisecond,
		ReconfigStallBudget: 5 * time.Second,
		Estimator:           true,
	}
	c, err := StartTopology(model, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Registry().Estimator() == nil {
		t.Fatal("Config.Estimator without Config.Obs installed no estimator on the run's registry")
	}
	rep, err := c.Autotune(context.Background(), AutotuneOptions{
		Interval: 700 * time.Millisecond,
		Rounds:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied() < 1 {
		t.Fatalf("estimator-driven autotune applied no delta in %d rounds", len(rep.Rounds))
	}
	for i := range rep.Rounds {
		if dr := rep.Rounds[i].Drift; dr == nil || dr.ProfileConfidence == nil {
			t.Errorf("round %d: drift report missing estimator confidences", i)
		}
	}
	if got := c.Replicas()[hot]; got < 2 {
		t.Errorf("hot replicas = %d, want >= 2 after estimator-driven autotune", got)
	}
	m := mustStop(t, c)
	if m.Throughput < 370 {
		t.Errorf("post-apply throughput = %.1f/s, want > 370/s (pre-apply ceiling ~333/s)", m.Throughput)
	}
	checkConserved(t, m)
}

// TestAutotuneRequiresEstimator pins the refusal: without Config.Estimator
// there are no measured profiles to re-optimize on, so the loop fails
// before it measures anything.
func TestAutotuneRequiresEstimator(t *testing.T) {
	model, _ := autotuneModel()
	c, err := StartTopology(model, nil, nil, Config{Seed: 1, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)
	if _, err := c.Autotune(context.Background(), AutotuneOptions{}); err == nil || !strings.Contains(err.Error(), "Config.Estimator") {
		t.Errorf("Autotune without the estimator: err = %v, want a Config.Estimator refusal", err)
	}
}

// autotuneModel is source -> hot -> sink with hot declared at 1 ms.
func autotuneModel() (*core.Topology, core.OpID) {
	model := core.NewTopology()
	src := model.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 2e-3})
	hot := model.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 1e-3})
	sink := model.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.2e-3})
	model.MustConnect(src, hot, 1)
	model.MustConnect(hot, sink, 1)
	return model, hot
}
