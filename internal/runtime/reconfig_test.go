package runtime

import (
	"strings"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
)

// ctlCfg is a controller-friendly config: no padding (functional speed)
// and a generous stall budget so slow CI machines don't abort fences.
func ctlCfg(seed uint64) Config {
	return Config{
		Seed:                seed,
		NoServicePadding:    true,
		ReconfigStallBudget: 5 * time.Second,
	}
}

func mustStop(t *testing.T, c *Controller) *Metrics {
	t.Helper()
	m, err := c.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitUntil polls cond until it holds or timeout passes and reports
// whether it held, so tests wait on registry counters instead of sleeping
// for a guess at how long tuples take to flow.
func waitUntil(t *testing.T, cond func() bool, timeout time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// consumedBy sums the Consumed counters of op's current worker stations.
func consumedBy(c *Controller, op core.OpID) uint64 {
	tb := c.e.tab()
	var n uint64
	for _, w := range tb.p.WorkersOf[op] {
		n += tb.st[w].Consumed.Load()
	}
	return n
}

// flowed waits until op's current workers have consumed n more tuples.
func flowed(t *testing.T, c *Controller, op core.OpID, n uint64) {
	t.Helper()
	start := consumedBy(c, op)
	if !waitUntil(t, func() bool { return consumedBy(c, op) >= start+n }, 10*time.Second) {
		t.Fatalf("operator %d consumed %d of %d tuples in time", op, consumedBy(c, op)-start, n)
	}
}

func checkConserved(t *testing.T, m *Metrics) {
	t.Helper()
	got := m.Totals.Delivered + m.Totals.Shed + m.Totals.Failed + m.Totals.Drained + m.Totals.Abandoned
	if m.Totals.Generated != got {
		t.Errorf("conservation violated: generated %d, accounted %d (%+v)", m.Totals.Generated, got, m.Totals)
	}
}

func TestControllerExpandStateless(t *testing.T) {
	topo := pipeline(t, 0.002, 0.004, 0.001)
	c, err := StartTopology(topo, nil, nil, ctlCfg(21))
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := topo.Lookup("sB")
	flowed(t, c, mid, 200)
	rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: "sB", From: 1, To: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rescaled != 1 || rep.Epoch != 1 {
		t.Errorf("report = %+v, want Rescaled 1 at epoch 1", rep)
	}
	if rep.Stall <= 0 {
		t.Errorf("expected a positive fence stall, got %v", rep.Stall)
	}
	if got := c.Replicas()[mid]; got != 3 {
		t.Errorf("replicas = %d, want 3", got)
	}
	flowed(t, c, mid, 200)
	m := mustStop(t, c)

	byName := map[string]StationMetrics{}
	for _, sm := range m.Stations {
		byName[sm.Name] = sm
	}
	for _, want := range []string{"sB/emitter", "sB/replica0", "sB/replica2", "sB/collector"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("station %q missing from metrics", want)
		}
	}
	if !byName["sB"].Retired {
		t.Error("old worker sB not marked retired")
	}
	var replicated uint64
	for name, sm := range byName {
		if strings.HasPrefix(name, "sB/replica") {
			replicated += sm.Consumed
		}
	}
	if replicated == 0 {
		t.Error("no tuples flowed through the new replicas")
	}
	checkConserved(t, m)
}

func TestControllerKeyedRescaleMigratesState(t *testing.T) {
	const numKeys = 8
	topo := keyedAggTopology(numKeys)
	agg, _ := topo.Lookup("agg")
	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		agg: operators.MustBuild(operators.Spec{Impl: "wsum", WindowLen: 64, Slide: 32, NumKeys: numKeys}),
	}}
	cfg := ctlCfg(22)
	gen, err := operators.NewGenerator(operators.GeneratorConfig{Seed: 23, NumKeys: numKeys})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generator = gen
	c, err := StartTopology(topo, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flowed(t, c, agg, 500) // accumulate keyed window state

	rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: "agg", From: 1, To: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rescaled != 1 {
		t.Fatalf("expand report = %+v", rep)
	}
	if rep.MigratedKeys == 0 {
		t.Error("expand migrated no keys despite accumulated state")
	}
	flowed(t, c, agg, 200)

	rep, err = c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: "agg", From: 2, To: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", rep.Epoch)
	}
	flowed(t, c, agg, 200)
	mustStop(t, c)

	// Every surviving replica instance must only hold keys the final
	// assignment routes to it — state followed the keys.
	tb := c.e.tab()
	entry := tb.p.EntryOf[agg]
	kr := tb.p.Stations[entry].KeyReplica
	if len(kr) != numKeys {
		t.Fatalf("emitter KeyReplica has %d entries, want %d", len(kr), numKeys)
	}
	workers := tb.p.WorkersOf[agg]
	if len(workers) < 2 {
		t.Fatalf("workers = %v, want >= 2 replicas", workers)
	}
	held := 0
	for slot, wid := range workers {
		ctl := c.e.ctl(wid)
		if ctl == nil || ctl.inst == nil {
			continue
		}
		ks, ok := ctl.inst.(operators.KeyedState)
		if !ok {
			t.Fatalf("replica %d instance does not expose keyed state", slot)
		}
		for _, k := range ks.StateKeys() {
			held++
			if owner := kr[int(k)%numKeys]; owner != slot {
				t.Errorf("key %d held by replica slot %d, assignment says %d", k, slot, owner)
			}
		}
	}
	if held == 0 {
		t.Error("no keyed state survived the rescales")
	}
}

func TestControllerUnfuseLive(t *testing.T) {
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	fused, report, err := core.Fuse(topo, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	protos := map[core.OpID]operators.Operator{}
	for _, m := range sub {
		protos[m] = operators.MustBuild(operators.Spec{Impl: "identity"})
	}
	meta, err := NewMetaOperator(topo, report, protos, 24)
	if err != nil {
		t.Fatal(err)
	}
	binding := &Binding{Meta: map[core.OpID]*MetaOperator{report.FusedID: meta}}
	c, err := StartTopology(fused, nil, binding, ctlCfg(25))
	if err != nil {
		t.Fatal(err)
	}
	sinkID, _ := fused.Lookup("op6")
	flowed(t, c, sinkID, 100)
	rep, err := c.ApplyDelta(&opt.DeltaPlan{Undo: []opt.FusionUndo{{Operator: "F", Rho: 1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unfused != 1 || rep.Epoch != 1 {
		t.Errorf("report = %+v, want Unfused 1 at epoch 1", rep)
	}

	// The split must keep the stream flowing: the sink's arrivals advance
	// after the fence released.
	tb := c.e.tab()
	sinkStation := tb.p.EntryOf[sinkID]
	before := tb.st[sinkStation].Arrived.Load()
	if !waitUntil(t, func() bool { return tb.st[sinkStation].Arrived.Load() > before }, 10*time.Second) {
		t.Errorf("sink arrivals stalled after unfuse: %d -> %d", before, tb.st[sinkStation].Arrived.Load())
	}
	m := mustStop(t, c)
	names := map[string]bool{}
	for _, sm := range m.Stations {
		names[sm.Name] = sm.Retired
	}
	for _, v := range meta.Members {
		want := "F/" + meta.Sub.Op(v).Name
		if _, ok := names[want]; !ok {
			t.Errorf("member station %q missing", want)
		}
	}
	if retired, ok := names["F"]; !ok || !retired {
		t.Error("fused station F not retired")
	}
}

func TestApplyDeltaRefusals(t *testing.T) {
	topo := pipeline(t, 0.002, 0.004, 0.001)
	delta := func(op string, to int) *opt.DeltaPlan {
		return &opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: op, From: 1, To: to}}}
	}

	// PreserveOrder and live reconfiguration are mutually exclusive.
	cfg := ctlCfg(27)
	cfg.PreserveOrder = true
	c, err := StartTopology(topo, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyDelta(delta("sB", 2)); err == nil {
		t.Error("PreserveOrder controller accepted a delta")
	}
	mustStop(t, c)

	c, err = StartTopology(topo, nil, nil, ctlCfg(28))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*opt.DeltaPlan{
		"unknown operator": delta("nope", 2),
		"scale source":     delta("sA", 2),
		"degree zero":      delta("sB", 0),
	}
	for name, d := range cases {
		if _, err := c.ApplyDelta(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An empty delta is a no-op, not an error, and refusals leave the
	// topology running.
	if rep, err := c.ApplyDelta(&opt.DeltaPlan{}); err != nil || rep.Epoch != 0 {
		t.Errorf("empty delta: rep=%+v err=%v", rep, err)
	}
	flowed(t, c, 0, 100) // operator 0 is the source, sA
	m := mustStop(t, c)
	if m.Totals.Generated == 0 {
		t.Error("topology generated nothing")
	}
	if _, err := c.ApplyDelta(delta("sB", 2)); err == nil {
		t.Error("stopped controller accepted a delta")
	}
	if _, err := c.Stop(); err == nil {
		t.Error("double Stop accepted")
	}

	// Stateful operators cannot be replicated.
	topo2 := core.NewTopology()
	src := topo2.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	st := topo2.MustAddOperator(core.Operator{Name: "state", Kind: core.KindStateful, ServiceTime: 0.001})
	sink := topo2.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.001})
	topo2.MustConnect(src, st, 1)
	topo2.MustConnect(st, sink, 1)
	c, err = StartTopology(topo2, nil, nil, ctlCfg(29))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyDelta(delta("state", 2)); err == nil {
		t.Error("stateful operator rescale accepted")
	}
	mustStop(t, c)
}

func TestMigrateKeys(t *testing.T) {
	build := func() operators.Operator {
		return operators.MustBuild(operators.Spec{Impl: "wsum", WindowLen: 4, Slide: 4, NumKeys: 4})
	}
	src := build()
	// A key >= 2^63 is assigned by its residue like any other.
	keys := []uint64{0, 1, 2, 3, 1<<63 | 1}
	for _, k := range keys {
		src.Process(operators.Tuple{Key: k, Fields: []float64{1}}, func(operators.Tuple) {})
	}
	dests := []operators.Operator{build(), build()}
	assignment := []int{0, 1, 0, 1}
	moved := migrateKeys(nil, src, -1, dests, assignment)
	if moved != len(keys) {
		t.Fatalf("moved %d keys, want %d", moved, len(keys))
	}
	if got := src.(operators.KeyedState).StateKeys(); len(got) != 0 {
		t.Errorf("source still holds keys %v", got)
	}
	for slot, d := range dests {
		for _, k := range d.(operators.KeyedState).StateKeys() {
			if want := assignment[k%uint64(len(assignment))]; want != slot {
				t.Errorf("key %d landed on slot %d, want %d", k, slot, want)
			}
		}
	}
	// Non-keyed operators migrate nothing.
	if n := migrateKeys(nil, operators.MustBuild(operators.Spec{Impl: "identity"}), -1, dests, assignment); n != 0 {
		t.Errorf("identity migrated %d keys", n)
	}
}
