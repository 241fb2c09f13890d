package runtime

import (
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
)

// Estimator lifecycle across live reconfiguration: the occupancy sampler
// reads whatever epoch tables the engine currently publishes, so an
// ApplyDelta mid-window must neither leak samplers on retired stations
// (a drained replica kept in the busy pool would dilute the operator's
// pooled rate forever) nor double-count carried stations (a station
// re-observed under a new epoch with a fresh baseline would count its
// tuples twice). These tests drive the PR 6 chaos reconfiguration
// sequence with the estimator on and pin both invariants on the
// measurement that comes out.

// estPipeline is a source-saturated pipeline: the 0.5 ms source offers
// 2000 t/s into a 2 ms bottleneck, so sB and everything downstream of a
// rescale accumulates queue and stays estimable.
func estPipeline(t *testing.T) *core.Topology {
	t.Helper()
	return pipeline(t, 0.0005, 0.002, 0.001, 0.0005)
}

func estConfig(seed uint64) Config {
	return Config{
		Seed:                seed,
		MailboxSize:         32,
		MaxRestarts:         -1,
		Obs:                 obs.New(),
		Estimator:           true,
		ReconfigStallBudget: 10 * time.Second,
	}
}

// opEstimate returns the estimate for the operator with the given name.
func opEstimate(t *testing.T, topo *core.Topology, m *obs.Measurement, name string) obs.RateEstimate {
	t.Helper()
	for i := 0; i < topo.Len(); i++ {
		if topo.Op(core.OpID(i)).Name == name {
			return m.Estimates[i]
		}
	}
	t.Fatalf("no operator %q", name)
	return obs.RateEstimate{}
}

// TestEstimatorAcrossReconfig rescales sB 1->2->3->2 and sC 1->3 while
// the estimator samples, then checks the pooled estimates describe the
// final epoch: worker counts match the live replica degrees (retired
// replicas dropped from the pool), the bottleneck's pooled per-replica
// rate still reads the non-blocking service rate (replication changes
// load, not capacity), and the windowed rates stay non-negative and
// finite (a carried station double-counted across an epoch swap shows up
// as an impossible rate).
func TestEstimatorAcrossReconfig(t *testing.T) {
	topo := estPipeline(t)
	c, err := StartTopology(topo, nil, nil, estConfig(9001))
	if err != nil {
		t.Fatal(err)
	}
	est := c.Registry().Estimator()
	if est == nil {
		t.Fatal("Config.Estimator set but controller has no estimator")
	}
	steps := []opt.ReplicaChange{
		{Operator: "sB", From: 1, To: 2},
		{Operator: "sC", From: 1, To: 3},
		{Operator: "sB", From: 2, To: 3},
		{Operator: "sB", From: 3, To: 2},
	}
	for i, chg := range steps {
		time.Sleep(80 * time.Millisecond)
		if _, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{chg}}); err != nil {
			t.Fatalf("step %d (%s %d->%d): %v", i, chg.Operator, chg.From, chg.To, err)
		}
	}

	// Measure a window that starts after the last swap: only live
	// stations of the final epoch may contribute busy time to it.
	est.BeginWindow()
	time.Sleep(400 * time.Millisecond)
	m, err := est.Measure()
	if err != nil {
		t.Fatalf("measure: %v", err)
	}

	for name, workers := range map[string]int{"sA": 1, "sB": 2, "sC": 3, "sD": 1} {
		if got := opEstimate(t, topo, m, name).Workers; got != workers {
			t.Errorf("%s: %d pooled workers, want %d (retired replicas must leave the pool)", name, got, workers)
		}
	}
	for op, r := range m.Rates.Consumed {
		if r < 0 || r != r {
			t.Errorf("op %d: impossible windowed consumption rate %v", op, r)
		}
	}
	// sB serves at 500 t/s per replica no matter how many replicas carry
	// the load; the pooled non-blocking estimate must track that, not the
	// per-replica throughput (which halved twice during the run).
	sb := opEstimate(t, topo, m, "sB")
	if sb.Confidence < 0.5 {
		t.Fatalf("bottleneck sB not estimable after reconfig: %+v", sb)
	}
	if sb.Rate < 300 || sb.Rate > 700 {
		t.Errorf("sB pooled rate %.1f t/s, want ~500 (non-blocking, replica-invariant)", sb.Rate)
	}

	mtr := mustStop(t, c)
	checkConservation(t, mtr)
	checkRegistryConservation(t, mtr, c.e.reg)
	if got := c.Replicas()[1]; got != 2 {
		t.Errorf("sB replicas = %d, want 2 after the shrink", got)
	}
}

// TestEstimatorChaosReconfig repeats the reconfiguration sequence under
// fault injection (panics with unlimited restarts, slowdowns, send
// delays): restarts and fences must not wedge the sampler or corrupt its
// counters — the measurement after the storm still has to be finite,
// non-negative and conservation must hold exactly.
func TestEstimatorChaosReconfig(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:          9100,
		SlowdownProb:  0.002,
		SlowdownFor:   100 * time.Microsecond,
		PanicProb:     0.002,
		SendDelayProb: 0.002,
		SendDelayFor:  50 * time.Microsecond,
	})
	cfg := estConfig(9100)
	cfg.Faults = inj
	cfg.SendTimeout = 200 * time.Microsecond
	topo := estPipeline(t)
	c, err := StartTopology(topo, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := c.Registry().Estimator()
	est.BeginWindow()
	for i, chg := range []opt.ReplicaChange{
		{Operator: "sB", From: 1, To: 3},
		{Operator: "sC", From: 1, To: 2},
		{Operator: "sB", From: 3, To: 1},
	} {
		time.Sleep(80 * time.Millisecond)
		if _, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{chg}}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	time.Sleep(80 * time.Millisecond)
	m, err := est.Measure()
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	for op := range m.Estimates {
		e := &m.Estimates[op]
		if e.Rate < 0 || e.Rate != e.Rate {
			t.Errorf("op %d: impossible rate %v after chaos", op, e.Rate)
		}
		if e.BusySeconds < 0 || e.BusySeconds > m.Seconds*float64(e.Workers+3) {
			t.Errorf("op %d: busy time %.3fs outside the %0.3fs window", op, e.BusySeconds, m.Seconds)
		}
	}
	mtr := mustStop(t, c)
	checkConservation(t, mtr)
	checkRegistryConservation(t, mtr, c.e.reg)
	if fc := inj.Counts(); fc.Panics == 0 {
		t.Skip("fault schedule injected no panics (seed too mild for this build)")
	}
	if mtr.Restarts == 0 {
		t.Error("panics fired but no restarts recorded")
	}
}
