package opt

import (
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/profiler"
)

// driftPipeline builds a small topology where the deployed profile says
// "map keeps up" (rho 0.5) but the measured profile says it saturates
// (needs 3 replicas).
func driftPipeline() *core.Topology {
	t := core.NewTopology()
	src := t.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 1e-3})
	m := t.MustAddOperator(core.Operator{Name: "map", Kind: core.KindStateless, ServiceTime: 0.5e-3})
	sink := t.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.1e-3})
	t.MustConnect(src, m, 1)
	t.MustConnect(m, sink, 1)
	return t
}

func TestReoptimizeReplicaDelta(t *testing.T) {
	topo := driftPipeline()
	drift := &obs.DriftReport{
		// Measured: map is 5x slower than profiled (2.5ms -> rho 2.5).
		MeasuredProfiles: []profiler.Profile{
			{}, // source: no measurement, keep the profile
			{ServiceTime: 2.5e-3},
			{}, // sink: keep
		},
		Replicas: []int{1, 1, 1},
	}
	snap := NewSnapshot(topo)
	plan, err := Reoptimize(snap, drift, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("expected a non-empty delta plan")
	}
	if len(plan.Changes) != 1 {
		t.Fatalf("expected one replica change, got %+v", plan.Changes)
	}
	c := plan.Changes[0]
	if c.Operator != "map" || c.From != 1 || c.To != 3 {
		t.Errorf("unexpected change %+v, want map 1 -> 3", c)
	}
	if len(plan.Undo) != 0 {
		t.Errorf("unexpected undo suggestions: %+v", plan.Undo)
	}
	// Under measured reality the current config sustains 1/2.5ms = 400
	// t/s; with 3 replicas the source's 1000 t/s is restored.
	if plan.PredictedBefore >= plan.PredictedAfter {
		t.Errorf("plan does not improve throughput: %v -> %v", plan.PredictedBefore, plan.PredictedAfter)
	}
	if plan.PredictedAfter < 999 || plan.PredictedAfter > 1001 {
		t.Errorf("predicted after = %v, want ~1000", plan.PredictedAfter)
	}
	if plan.Result == nil || plan.Result.Trace == nil {
		t.Error("plan is missing the re-optimization result/trace")
	}
	if !strings.Contains(plan.String(), "map") {
		t.Errorf("plan rendering lacks the operator: %q", plan.String())
	}
	// The snapshot must be untouched by re-optimization.
	if topo.Op(1).ServiceTime != 0.5e-3 || snap.Topology().Op(1).ServiceTime != 0.5e-3 {
		t.Error("reoptimize mutated the input profile")
	}
}

func TestReoptimizeFusionUndo(t *testing.T) {
	// A deployed topology containing a fused meta-operator that the
	// measured profiles saturate. Meta-operators are stateful, so
	// fission cannot help; the plan must suggest unfusing it.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 1e-3})
	fused := topo.MustAddOperator(core.Operator{
		Name: "fused1", Kind: core.KindStateful, ServiceTime: 0.8e-3,
		Fused: []string{"clean", "enrich"},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.1e-3})
	topo.MustConnect(src, fused, 1)
	topo.MustConnect(fused, sink, 1)

	drift := &obs.DriftReport{
		MeasuredProfiles: []profiler.Profile{
			{},
			{ServiceTime: 2e-3}, // fused region measured at rho 2
			{},
		},
		Replicas: []int{1, 1, 1},
	}
	plan, err := Reoptimize(NewSnapshot(topo), drift, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Undo) != 1 {
		t.Fatalf("expected one undo suggestion, got %+v", plan.Undo)
	}
	u := plan.Undo[0]
	if u.Operator != "fused1" || len(u.Members) != 2 || u.Members[0] != "clean" {
		t.Errorf("unexpected undo %+v", u)
	}
	if u.Rho < 1-1e-9 {
		t.Errorf("undo rho %v, want saturated", u.Rho)
	}
	if len(plan.Changes) != 0 {
		t.Errorf("unexpected replica changes: %+v", plan.Changes)
	}
	if !strings.Contains(plan.String(), "unfuse") {
		t.Errorf("plan rendering lacks the unfuse line: %q", plan.String())
	}
}

func TestReoptimizeNoDrift(t *testing.T) {
	topo := driftPipeline()
	drift := &obs.DriftReport{
		// Measurements agree with the profile.
		MeasuredProfiles: []profiler.Profile{{}, {ServiceTime: 0.5e-3}, {}},
		Replicas:         []int{1, 1, 1},
	}
	plan, err := Reoptimize(NewSnapshot(topo), drift, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Errorf("expected an empty plan, got %+v", plan)
	}
	if !strings.Contains(plan.String(), "already optimal") {
		t.Errorf("empty-plan rendering: %q", plan.String())
	}
}

func TestReoptimizeErrors(t *testing.T) {
	topo := driftPipeline()
	snap := NewSnapshot(topo)
	if _, err := Reoptimize(snap, nil, Options{}); err == nil {
		t.Error("nil drift report accepted")
	}
	if _, err := Reoptimize(snap, &obs.DriftReport{}, Options{}); err == nil {
		t.Error("drift report without profiles accepted")
	}
}

// TestDriftReportCarriesProfiles checks the obs side of the loop: a
// report built from measured rates and profiles exposes the profiles and
// the replication degrees Reoptimize diffs against.
func TestDriftReportCarriesProfiles(t *testing.T) {
	topo := driftPipeline()
	profiles := []profiler.Profile{
		{ServiceTime: 1e-3, Emitted: 1000, InputSelectivity: 1},
		{ServiceTime: 2.5e-3, Consumed: 1000, Emitted: 1000, Gain: 1, InputSelectivity: 1, OutputSelectivity: 1},
		{ServiceTime: 1e-4, Consumed: 1000, InputSelectivity: 1},
	}
	m := &obs.MeasuredRates{
		Seconds:    1,
		Departure:  []float64{1000, 400, 0},
		Arrival:    []float64{0, 1000, 400},
		Dropped:    make([]float64, 3),
		Consumed:   []float64{1000, 400, 400},
		Throughput: 1000,
	}
	rep, err := obs.DriftFromProfiles(topo, []int{1, 1, 1}, m, profiles, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MeasuredProfiles) != 3 {
		t.Fatalf("report carries %d profiles, want 3", len(rep.MeasuredProfiles))
	}
	if got := rep.MeasuredProfiles[1].ServiceTime; got < 2.4e-3 || got > 2.6e-3 {
		t.Errorf("measured map service time %v, want ~2.5ms", got)
	}
	if len(rep.Replicas) != 3 || rep.Replicas[1] != 1 {
		t.Errorf("report replicas %v", rep.Replicas)
	}

	plan, err := Reoptimize(NewSnapshot(topo), rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Changes) != 1 || plan.Changes[0].Operator != "map" || plan.Changes[0].To != 3 {
		t.Errorf("end-to-end plan %+v, want map -> 3", plan.Changes)
	}
}
