package runtime

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/keypart"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

// The tests in this file run the live rewrites as pure functions over
// plans: no engine, no goroutines, no clock.

// keyedAggTopology is src -> agg -> sink, agg partitioned-stateful over
// numKeys equally likely keys.
func keyedAggTopology(numKeys int) *core.Topology {
	freq := make([]float64, numKeys)
	for i := range freq {
		freq[i] = 1.0 / float64(numKeys)
	}
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	agg := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.002,
		Keys: &core.KeyDistribution{Freq: freq},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0005})
	topo.MustConnect(src, agg, 1)
	topo.MustConnect(agg, sink, 1)
	return topo
}

// buildWith plans topo with operator op at degree n and every other
// operator unreplicated.
func buildWith(t *testing.T, topo *core.Topology, op core.OpID, n int) *plan.Plan {
	t.Helper()
	reps := make([]int, topo.Len())
	reps[op] = n
	p, err := plan.Build(topo, plan.Options{Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// liveView describes the stations of p not marked retired, keyed by name:
// every field a rewrite sets, out-edges by target name, and the operator
// index maps by station name — so two plans compare up to station IDs.
func liveView(p *plan.Plan, retired func(plan.StationID) bool) map[string]string {
	v := make(map[string]string)
	for i := range p.Stations {
		if retired(plan.StationID(i)) {
			continue
		}
		s := &p.Stations[i]
		var out []string
		for _, e := range s.Out {
			out = append(out, fmt.Sprintf("%s@%g:%d", p.Stations[e.To].Name, e.Prob, e.Port))
		}
		v[s.Name] = fmt.Sprintf("%v op%d r%d m%d %g %g %g/%g %v keys%v -> %v", s.Role, s.Op, s.Replica, s.Member,
			s.ServiceTime, s.Gain, s.InputSelectivity, s.OutputSelectivity, s.Discipline, s.KeyReplica, out)
	}
	name := func(id plan.StationID) string {
		if id < 0 {
			return "-"
		}
		return p.Stations[id].Name
	}
	for op := range p.EntryOf {
		var ws []string
		for _, w := range p.WorkersOf[op] {
			ws = append(ws, name(w))
		}
		v[fmt.Sprint("#op", op)] = fmt.Sprintf("entry %s collector %s workers %v", name(p.EntryOf[op]), name(p.CollectorOf[op]), ws)
	}
	return v
}

func compareViews(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: %s\n got %q\nwant %q", label, k, got[k], want[k])
		}
	}
}

// TestRescaleDiffMatchesPlanner is the planner-parity oracle: for every
// replicable operator and every target degree >= 2, reached from a single
// worker and from every existing scaffold, the live stations of the
// rescale rewrite must be exactly what plan.Build lays out at the target
// degree, up to station IDs — so the live scaffold can never drift from
// the planner's again.
func TestRescaleDiffMatchesPlanner(t *testing.T) {
	topos := []struct {
		name string
		topo *core.Topology
	}{
		{"pipeline", pipeline(t, 0.002, 0.004, 0.003, 0.001)},
		{"agg", keyedAggTopology(8)},
		{"hotkey", hotKeyTopology(10, 0.55)},
	}
	for _, tc := range topos {
		for i := 0; i < tc.topo.Len(); i++ {
			id := core.OpID(i)
			op := tc.topo.Op(id)
			if op.Kind == core.KindSource || !op.Kind.CanReplicate() {
				continue
			}
			for to := 2; to <= 5; to++ {
				want := buildWith(t, tc.topo, id, to)
				for from := 1; from <= 5; from++ {
					label := fmt.Sprintf("%s/%s %d->%d", tc.name, op.Name, from, to)
					p := buildWith(t, tc.topo, id, from)
					if p.CollectorOf[id] >= 0 && want.CollectorOf[id] < 0 {
						continue // a scaffold never collapses (documented deviation)
					}
					d, err := rescaleDiff(p, plan.Unreplicated(id, op), to, keypart.Greedy{})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					next := p
					if d.next != nil {
						next = d.next
						checkDiffShape(t, label, p, d)
					}
					retired := func(s plan.StationID) bool { return slices.Contains(d.retired, s) }
					compareViews(t, label, liveView(next, retired), liveView(want, func(plan.StationID) bool { return false }))
				}
			}
		}
	}
}

// checkDiffShape pins the bookkeeping applyDiff relies on: added stations
// are exactly the appended IDs, every retired station is drained and was
// live in p, and next keeps every existing station slot.
func checkDiffShape(t *testing.T, label string, p *plan.Plan, d diff) {
	t.Helper()
	if len(d.next.Stations) != len(p.Stations)+len(d.added) {
		t.Errorf("%s: %d stations + %d added != %d", label, len(p.Stations), len(d.added), len(d.next.Stations))
	}
	for i, id := range d.added {
		if int(id) != len(p.Stations)+i {
			t.Errorf("%s: added[%d] = %d, want %d", label, i, id, len(p.Stations)+i)
		}
	}
	for _, id := range d.retired {
		if !slices.Contains(d.drained, id) {
			t.Errorf("%s: retired station %d is not drained", label, id)
		}
		if int(id) >= len(p.Stations) {
			t.Errorf("%s: retired station %d was never in the plan", label, id)
		}
	}
}

// fusedFixture fuses sub out of topo and binds identity members.
func fusedFixture(t *testing.T, topo *core.Topology, sub []core.OpID) (*core.Topology, core.OpID, *MetaOperator) {
	t.Helper()
	fused, report, err := core.Fuse(topo, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	protos := map[core.OpID]operators.Operator{}
	for _, m := range sub {
		protos[m] = operators.MustBuild(operators.Spec{Impl: "identity"})
	}
	meta, err := NewMetaOperator(topo, report, protos, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fused, report.FusedID, meta
}

// TestUnfuseDiffMatchesSubgraph checks the unfuse rewrite against the
// meta-operator's own wiring: one member station per fused vertex with
// that vertex's profile, member-to-member edges as meta.Sub draws them,
// edges leaving the subgraph on the survivors' entry stations with the
// fused station's ports, and the fused station's in-edges moved to the
// front-end member with their ports.
func TestUnfuseDiffMatchesSubgraph(t *testing.T) {
	paper, paperSub := core.PaperExampleTopology(core.PaperExampleTable1)
	dia, diaSub := diamond(t)
	for name, tc := range map[string]struct {
		topo *core.Topology
		sub  []core.OpID
	}{"paper-table1": {paper, paperSub}, "diamond": {dia, diaSub}} {
		fused, fid, meta := fusedFixture(t, tc.topo, tc.sub)
		p, err := plan.Build(fused, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := unfuseDiff(p, fid, meta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDiffShape(t, name, p, d)
		w := p.EntryOf[fid]
		if len(d.retired) != 1 || d.retired[0] != w {
			t.Errorf("%s: retired %v, want the fused station %d", name, d.retired, w)
		}
		stationOf := map[core.OpID]plan.StationID{}
		for _, id := range d.added {
			st := &d.next.Stations[id]
			stationOf[core.OpID(st.Member-1)] = id
		}
		if len(stationOf) != len(meta.Members) {
			t.Fatalf("%s: %d member stations for %d members", name, len(stationOf), len(meta.Members))
		}
		for _, v := range meta.Members {
			sop := meta.Sub.Op(v)
			st := &d.next.Stations[stationOf[v]]
			if st.Name != "F/"+sop.Name || st.Op != fid || st.Role != plan.RoleWorker ||
				st.ServiceTime != sop.ServiceTime || st.Gain != sop.Gain() ||
				st.InputSelectivity != sop.InputSelectivity || st.OutputSelectivity != sop.OutputSelectivity {
				t.Errorf("%s: member %s station = %+v", name, sop.Name, *st)
			}
			var want []plan.Edge
			for _, se := range meta.Sub.Out(v) {
				if sid, ok := stationOf[se.To]; ok {
					want = append(want, plan.Edge{To: sid, Prob: se.Prob})
					continue
				}
				entry := p.EntryOf[meta.SurvivorIDs[se.To]]
				for _, fe := range p.Stations[w].Out {
					if fe.To == entry {
						want = append(want, plan.Edge{To: entry, Prob: se.Prob, Port: fe.Port})
						break
					}
				}
			}
			if fmt.Sprint(st.Out) != fmt.Sprint(want) {
				t.Errorf("%s: member %s out-edges %v, want %v", name, sop.Name, st.Out, want)
			}
		}
		front := stationOf[meta.Front]
		if d.next.EntryOf[fid] != front {
			t.Errorf("%s: entry %d, want front member %d", name, d.next.EntryOf[fid], front)
		}
		for i := range p.Stations {
			for j, e := range p.Stations[i].Out {
				if e.To != w {
					continue
				}
				if got := d.next.Stations[i].Out[j]; got.To != front || got.Port != e.Port || got.Prob != e.Prob {
					t.Errorf("%s: station %d edge %d = %+v, want %+v into the front member", name, i, j, got, e)
				}
				if !slices.Contains(d.rewired, plan.StationID(i)) {
					t.Errorf("%s: producer %d of the fused station not listed as rewired", name, i)
				}
			}
		}
	}
}

// TestDiffSequenceInvariants is the deterministic half of ROADMAP item
// 6(1): random sequences of rewrites — the deployment from the empty
// plan, then rescales to random degrees and the undo of a fusion between
// replicable neighbours — applied to the plan alone, checking after
// every step the invariants the live apply depends on. The transport
// model mirrors demoteTransports: rings start where the fan-in proves
// one producer, a ring is demoted once a rewrite gives it a second live
// producer — which must be possible, so the target may not already be in
// the fence — and nothing is promoted.
func TestDiffSequenceInvariants(t *testing.T) {
	// src -> pre -> {f1 -> {a, b}} -> post -> sink, the braces fused: the
	// fused vertex has replicable neighbours on both sides.
	chain := core.NewTopology()
	add := func(name string, kind core.Kind) core.OpID {
		return chain.MustAddOperator(core.Operator{Name: name, Kind: kind, ServiceTime: 0.001})
	}
	src, pre, f1 := add("src", core.KindSource), add("pre", core.KindStateless), add("f1", core.KindStateless)
	a, b, post, sink := add("a", core.KindStateless), add("b", core.KindStateless), add("post", core.KindStateless), add("sink", core.KindSink)
	chain.MustConnect(src, pre, 1)
	chain.MustConnect(pre, f1, 1)
	chain.MustConnect(f1, a, 0.5)
	chain.MustConnect(f1, b, 0.5)
	chain.MustConnect(a, post, 1)
	chain.MustConnect(b, post, 1)
	chain.MustConnect(post, sink, 1)
	fused, fid, meta := fusedFixture(t, chain, []core.OpID{f1, a, b})
	topos := []*core.Topology{
		pipeline(t, 0.002, 0.004, 0.003, 0.001),
		keyedAggTopology(8),
		hotKeyTopology(10, 0.55),
		fused,
	}
	applied := map[string]int{}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		topo := topos[seed%uint64(len(topos))]
		var ops []core.OpID
		for i := 0; i < topo.Len(); i++ {
			if k := topo.Op(core.OpID(i)).Kind; k != core.KindSource && k.CanReplicate() {
				ops = append(ops, core.OpID(i))
			}
		}
		deployed, err := plan.Build(topo, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Every sequence starts from the empty plan: the deployment is its
		// first diff, checked like every later one.
		p := &plan.Plan{}
		var retired, ring []bool
		var fanIn []int
		for step := 0; step <= 8; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			d, kind := deployDiff(deployed), "deploy"
			switch {
			case step == 0:
			case topo == fused && rng.Float64() < 0.3:
				kind = "unfuse"
				if d, err = unfuseDiff(p, fid, meta); err != nil && p.Stations[p.EntryOf[fid]].Member == 0 {
					t.Fatalf("%s: unfuse: %v", label, err)
				}
			default:
				kind = "rescale"
				id := ops[rng.Intn(len(ops))]
				to := 1 + rng.Intn(5)
				if d, err = rescaleDiff(p, plan.Unreplicated(id, topo.Op(id)), to, keypart.Greedy{}); err != nil {
					t.Fatalf("%s: rescale %s to %d: %v", label, topo.Op(id).Name, to, err)
				}
			}
			if d.next == nil {
				continue
			}
			applied[kind]++
			checkDiffShape(t, label, p, d)
			fenced := map[plan.StationID]bool{}
			for _, id := range append(quiesced(p, retired, d), d.drained...) {
				fenced[id] = true
			}
			for _, id := range d.retired {
				if retired[id] {
					t.Fatalf("%s: station %d retired twice", label, id)
				}
				retired[id] = true
			}
			retired = append(retired, make([]bool, len(d.added))...)
			fanIn = liveFanIn(d.next, retired)
			// Demote as demoteTransports does: the target must not be
			// fenced yet (its ring could not be drained), and its live
			// pre-existing producers join the fence.
			for i := range ring {
				target := plan.StationID(i)
				if retired[i] || !ring[i] || fanIn[i] <= 1 {
					continue
				}
				if fenced[target] {
					t.Errorf("%s: demotion target %q is already fenced", label, d.next.Stations[i].Name)
				}
				for j := range ring {
					if !retired[j] && slices.ContainsFunc(d.next.Stations[j].Out, func(e plan.Edge) bool { return e.To == target }) {
						fenced[plan.StationID(j)] = true
					}
				}
				fenced[target] = true
				ring[i] = false
				applied["demotion"]++
			}
			for _, id := range d.added {
				ring = append(ring, fanIn[id] <= 1)
			}
			p = d.next
			checkLivePlan(t, label, p, retired, fanIn, ring)
		}
	}
	if applied["deploy"] != 200 || applied["rescale"] == 0 || applied["unfuse"] == 0 || applied["demotion"] == 0 {
		t.Fatalf("the sequences never exercised the deployment, both rewrites and a demotion: %v", applied)
	}
}

// checkLivePlan asserts the structural invariants of a rewritten plan
// under the accumulated retirement mask.
func checkLivePlan(t *testing.T, label string, p *plan.Plan, retired []bool, fanIn []int, ring []bool) {
	t.Helper()
	named := make([]bool, len(p.Stations))
	name := func(what string, id plan.StationID) {
		if id < 0 || int(id) >= len(p.Stations) || retired[id] {
			t.Fatalf("%s: %s names station %d, which is not live", label, what, id)
		}
		named[id] = true
	}
	for op := range p.EntryOf {
		name("EntryOf", p.EntryOf[op])
		if c := p.CollectorOf[op]; c >= 0 {
			name("CollectorOf", c)
		}
		for _, w := range p.WorkersOf[op] {
			name("WorkersOf", w)
		}
	}
	for i := range p.Stations {
		if retired[i] {
			continue
		}
		if !named[i] {
			t.Errorf("%s: live station %q belongs to no operator", label, p.Stations[i].Name)
		}
		st := &p.Stations[i]
		for _, e := range st.Out {
			if retired[e.To] {
				t.Errorf("%s: live station %q has an edge into retired %q", label, st.Name, p.Stations[e.To].Name)
			}
		}
		if st.Discipline == plan.KeyHash {
			for k, r := range st.KeyReplica {
				if r < 0 || r >= len(st.Out) {
					t.Errorf("%s: %q routes key %d to slot %d of %d", label, st.Name, k, r, len(st.Out))
				}
			}
		}
		producers := map[int]bool{}
		for j := range p.Stations {
			for _, e := range p.Stations[j].Out {
				if !retired[j] && int(e.To) == i {
					producers[j] = true
				}
			}
		}
		if fanIn[i] != len(producers) {
			t.Errorf("%s: liveFanIn(%q) = %d, %d live producers", label, st.Name, fanIn[i], len(producers))
		}
		if ring[i] && fanIn[i] > 1 {
			t.Errorf("%s: %q keeps a ring with %d producers", label, st.Name, fanIn[i])
		}
	}
}
