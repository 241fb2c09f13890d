package plan

import (
	"math"
	"slices"
	"testing"

	"spinstreams/internal/core"
)

func paperPlan(t *testing.T, replicas []int) (*core.Topology, *Plan) {
	t.Helper()
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	p, err := Build(topo, Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	return topo, p
}

func TestBuildPlain(t *testing.T) {
	topo, p := paperPlan(t, nil)
	if len(p.Stations) != topo.Len() {
		t.Fatalf("stations = %d, want %d", len(p.Stations), topo.Len())
	}
	if p.SourceID != 0 || p.Stations[p.SourceID].Role != RoleSource {
		t.Fatalf("source station = %d (%v)", p.SourceID, p.Stations[p.SourceID].Role)
	}
	// Logical edges preserved with probabilities.
	src := p.Stations[p.SourceID]
	if len(src.Out) != 2 {
		t.Fatalf("source out edges = %d, want 2", len(src.Out))
	}
	sum := 0.0
	for _, e := range src.Out {
		sum += e.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("source out probabilities sum to %v", sum)
	}
	for op := 0; op < topo.Len(); op++ {
		if p.EntryOf[op] < 0 || len(p.WorkersOf[op]) != 1 || p.CollectorOf[op] != -1 {
			t.Errorf("op %d mapping wrong: entry %d workers %v collector %d",
				op, p.EntryOf[op], p.WorkersOf[op], p.CollectorOf[op])
		}
	}
}

func TestBuildWithStatelessReplicas(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	hot := topo.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 0.003})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, hot, 1)
	topo.MustConnect(hot, sink, 1)

	replicas := []int{1, 3, 1}
	p, err := Build(topo, Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	// src + emitter + 3 replicas + collector + sink = 7 stations.
	if len(p.Stations) != 7 {
		t.Fatalf("stations = %d, want 7", len(p.Stations))
	}
	if len(p.WorkersOf[hot]) != 3 {
		t.Fatalf("workers = %d, want 3", len(p.WorkersOf[hot]))
	}
	emitter := p.Stations[p.EntryOf[hot]]
	if emitter.Role != RoleEmitter || emitter.Discipline != RoundRobin {
		t.Fatalf("emitter = %+v", emitter)
	}
	if len(emitter.Out) != 3 {
		t.Fatalf("emitter out = %d, want 3", len(emitter.Out))
	}
	// Source must route to the emitter, not to a worker.
	if p.Stations[p.SourceID].Out[0].To != p.EntryOf[hot] {
		t.Error("source does not route to the emitter")
	}
	// Workers route to the collector, which routes to the sink's entry.
	col := p.CollectorOf[hot]
	for _, w := range p.WorkersOf[hot] {
		if len(p.Stations[w].Out) != 1 || p.Stations[w].Out[0].To != col {
			t.Errorf("worker %d does not route to collector", w)
		}
	}
	if p.Stations[col].Out[0].To != p.EntryOf[sink] {
		t.Error("collector does not route to the sink")
	}
}

func TestBuildWithKeyedReplicas(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	ps := topo.MustAddOperator(core.Operator{
		Name: "ps", Kind: core.KindPartitionedStateful, ServiceTime: 0.002,
		Keys: &core.KeyDistribution{Freq: []float64{0.4, 0.3, 0.2, 0.1}},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, ps, 1)
	topo.MustConnect(ps, sink, 1)

	p, err := Build(topo, Options{Replicas: []int{1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	emitter := p.Stations[p.EntryOf[ps]]
	if emitter.Discipline != KeyHash {
		t.Fatalf("discipline = %v, want KeyHash", emitter.Discipline)
	}
	if len(emitter.KeyReplica) != 4 {
		t.Fatalf("KeyReplica = %v, want 4 entries", emitter.KeyReplica)
	}
	sum := 0.0
	for _, e := range emitter.Out {
		sum += e.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("replica load shares sum to %v", sum)
	}
}

func TestBuildKeyedConsolidation(t *testing.T) {
	// One dominant key: the partitioner consolidates to fewer replicas;
	// requesting 3 must not leave dangling worker stations.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	ps := topo.MustAddOperator(core.Operator{
		Name: "ps", Kind: core.KindPartitionedStateful, ServiceTime: 0.002,
		Keys: &core.KeyDistribution{Freq: []float64{0.5, 0.25, 0.25}},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, ps, 1)
	topo.MustConnect(ps, sink, 1)

	p, err := Build(topo, Options{Replicas: []int{1, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.WorkersOf[ps]); got != 2 {
		t.Fatalf("workers = %d, want 2 after consolidation", got)
	}
	for _, s := range p.Stations {
		if s.Role == RoleWorker && s.Op == ps {
			if len(s.Out) == 0 {
				t.Errorf("dangling worker %s", s.Name)
			}
		}
	}
}

func TestBuildRejectsStatefulReplication(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	st := topo.MustAddOperator(core.Operator{Name: "st", Kind: core.KindStateful, ServiceTime: 0.002})
	topo.MustConnect(src, st, 1)
	if _, err := Build(topo, Options{Replicas: []int{1, 2}}); err == nil {
		t.Fatal("stateful replication accepted")
	}
}

func TestBuildRejectsInvalidTopology(t *testing.T) {
	if _, err := Build(core.NewTopology(), Options{}); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestRoleAndDisciplineStrings(t *testing.T) {
	if RoleSource.String() != "source" || RoleEmitter.String() != "emitter" {
		t.Error("role strings wrong")
	}
	if Role(99).String() == "" {
		t.Error("unknown role string empty")
	}
}

func TestNumWorkers(t *testing.T) {
	_, p := paperPlan(t, nil)
	// Paper example: source + 4 workers + sink; source and sink are not
	// RoleWorker? The sink is a worker station (it executes an operator).
	if got := p.NumWorkers(); got != 5 {
		t.Fatalf("NumWorkers = %d, want 5", got)
	}
}

func TestBuildAssignsPorts(t *testing.T) {
	// A join receives from two upstreams; the physical edges must carry
	// the input-edge index so the runtime can tell the sides apart.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	left := topo.MustAddOperator(core.Operator{Name: "left", Kind: core.KindStateless, ServiceTime: 0.0005})
	right := topo.MustAddOperator(core.Operator{Name: "right", Kind: core.KindStateless, ServiceTime: 0.0005})
	join := topo.MustAddOperator(core.Operator{Name: "join", Kind: core.KindStateful, ServiceTime: 0.0005})
	topo.MustConnect(src, left, 0.5)
	topo.MustConnect(src, right, 0.5)
	topo.MustConnect(left, join, 1)
	topo.MustConnect(right, join, 1)

	p, err := Build(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ports := map[string]int{}
	for _, st := range p.Stations {
		for _, e := range st.Out {
			if e.To == p.EntryOf[join] {
				ports[st.Name] = e.Port
			}
		}
	}
	if len(ports) != 2 {
		t.Fatalf("join feeders = %v, want 2", ports)
	}
	if ports["left"] == ports["right"] {
		t.Errorf("both feeders share port %d", ports["left"])
	}
	for name, port := range ports {
		if port != 0 && port != 1 {
			t.Errorf("%s port = %d, want 0 or 1", name, port)
		}
	}
}

func TestStationBounds(t *testing.T) {
	_, p := paperPlan(t, nil)
	if st := p.Station(0); st == nil || st.Role != RoleSource {
		t.Fatalf("Station(0) = %+v, want the source station", st)
	}
	last := StationID(len(p.Stations) - 1)
	if st := p.Station(last); st == nil || st != &p.Stations[last] {
		t.Fatalf("Station(%d) did not return the last station", last)
	}
	for _, id := range []StationID{-1, StationID(len(p.Stations)), math.MaxInt32} {
		if st := p.Station(id); st != nil {
			t.Errorf("Station(%d) = %+v, want nil", id, st)
		}
	}
}

// TestTopologicalOrder pins the FIFO Kahn order the runtime pauses
// stations in and lint propagates rates along, and the feedback-edge
// verdict.
func TestTopologicalOrder(t *testing.T) {
	edges := func(to ...StationID) []Edge {
		var out []Edge
		for _, id := range to {
			out = append(out, Edge{To: id})
		}
		return out
	}
	// 3 -> 0 -> {2, 1}, 2 -> 1: the zero-in-degree station comes first,
	// then each station once its last producer is ordered.
	p := &Plan{Stations: []Station{{Out: edges(2, 1)}, {}, {Out: edges(1)}, {Out: edges(0)}}}
	order, ok := p.TopologicalOrder()
	if want := []StationID{3, 0, 2, 1}; !ok || !slices.Equal(order, want) {
		t.Errorf("order = %v, %v; want %v, true", order, ok, want)
	}
	p.Stations[1].Out = edges(3)
	if _, ok := p.TopologicalOrder(); ok {
		t.Error("cyclic plan ordered")
	}
}
