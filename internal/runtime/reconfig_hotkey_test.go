package runtime

import (
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
)

// hotKeyTopology declares a keyed aggregation whose key distribution has
// one key carrying over half the traffic — the skew that pins keypart's
// achievable pmax and forces the partitioner to isolate the hot key.
func hotKeyTopology(numKeys int, hotShare float64) *core.Topology {
	freq := make([]float64, numKeys)
	rest := (1 - hotShare) / float64(numKeys-1)
	for i := range freq {
		freq[i] = rest
	}
	freq[0] = hotShare
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0005})
	agg := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.002,
		Keys: &core.KeyDistribution{Freq: freq},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0002})
	topo.MustConnect(src, agg, 1)
	topo.MustConnect(agg, sink, 1)
	return topo
}

// hotKeyController starts the topology with a unit-gain keyed binding
// (window and slide of 1: every input emits exactly one output, so the
// exact conservation identity applies) and a generator skewed so the hot
// key really does dominate the generated traffic, not just the declared
// profile.
func hotKeyController(t *testing.T, topo *core.Topology, seed uint64) *Controller {
	t.Helper()
	aggID, _ := topo.Lookup("agg")
	numKeys := len(topo.Op(aggID).Keys.Freq)
	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		aggID: operators.MustBuild(operators.Spec{Impl: "wsum", WindowLen: 1, Slide: 1, NumKeys: numKeys}),
	}}
	cfg := ctlCfg(seed)
	gen, err := operators.NewGenerator(operators.GeneratorConfig{Seed: seed + 1, NumKeys: numKeys, KeySkew: 2.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generator = gen
	c, err := StartTopology(topo, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestControllerHotKeyRescaleAffinity rescales a keyed operator whose key
// 0 carries 55% of the declared traffic and asserts the partitioner's
// decisions survive the epoch swap: the greedy assignment consolidates the
// requested 3 replicas down to 2 (0.55 / 0.45 — a third replica cannot
// beat the hot key's pmax floor), the hot key sits alone on its replica,
// and every surviving replica instance holds exactly the keys the final
// assignment routes to it.
func TestControllerHotKeyRescaleAffinity(t *testing.T) {
	const numKeys = 10
	topo := hotKeyTopology(numKeys, 0.55)
	c := hotKeyController(t, topo, 31)
	aggID, _ := topo.Lookup("agg")
	flowed(t, c, aggID, 500) // accumulate keyed state

	rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: "agg", From: 1, To: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rescaled != 1 || rep.Epoch != 1 {
		t.Fatalf("report = %+v, want Rescaled 1 at epoch 1", rep)
	}
	if rep.MigratedKeys == 0 {
		t.Error("rescale migrated no keys despite accumulated state")
	}
	flowed(t, c, aggID, 200)
	m := mustStop(t, c)
	checkConserved(t, m)

	tb := c.e.tab()
	entry := tb.p.EntryOf[aggID]
	kr := tb.p.Stations[entry].KeyReplica
	if len(kr) != numKeys {
		t.Fatalf("emitter KeyReplica has %d entries, want %d", len(kr), numKeys)
	}
	workers := tb.p.WorkersOf[aggID]
	if len(workers) != 2 {
		t.Fatalf("hot-key skew deployed %d replicas, want 2 (consolidation: 0.45 merges under the 0.55 pmax)", len(workers))
	}
	hot := kr[0]
	for k := 1; k < numKeys; k++ {
		if kr[k] == hot {
			t.Errorf("cold key %d shares replica %d with the hot key", k, hot)
		}
		if kr[k] != kr[1] {
			t.Errorf("cold keys split across replicas: key %d on %d, key 1 on %d", k, kr[k], kr[1])
		}
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
				t.Errorf("key %d held by replica slot %d, assignment says %d — state did not follow the key", k, slot, owner)
			}
		}
	}
	if held == 0 {
		t.Error("no keyed state survived the rescale")
	}
}

// TestControllerHotKeyRescaleConservesTuples drives a full expand/shrink
// cycle under hot-key skew and asserts the exact lifetime identity
// Generated == Delivered + Shed + Failed + Drained + Abandoned: the two
// epoch swaps (with their pause fences, drains and state migrations) must
// not lose or duplicate a single tuple.
func TestControllerHotKeyRescaleConservesTuples(t *testing.T) {
	topo := hotKeyTopology(10, 0.55)
	c := hotKeyController(t, topo, 33)
	aggID, _ := topo.Lookup("agg")
	flowed(t, c, aggID, 500)

	if _, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: "agg", From: 1, To: 3}}}); err != nil {
		t.Fatal(err)
	}
	flowed(t, c, aggID, 200)

	cur := c.Replicas()[aggID]
	if cur < 2 {
		t.Fatalf("replicas after expand = %d, want >= 2", cur)
	}
	rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{{Operator: "agg", From: cur, To: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", rep.Epoch)
	}
	flowed(t, c, aggID, 200)

	m := mustStop(t, c)
	checkConserved(t, m)
	if m.Totals.Generated == 0 || m.Totals.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", m.Totals)
	}
}
