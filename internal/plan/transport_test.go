package plan

import (
	"testing"

	"spinstreams/internal/core"
)

func TestFanInReplicated(t *testing.T) {
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	hot := topo.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 0.003})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, hot, 1)
	topo.MustConnect(hot, sink, 1)
	p, err := Build(topo, Options{Replicas: []int{1, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}

	in := FanIn(p)
	ts := Transports(p)
	col := p.CollectorOf[hot]
	if got := in[col]; len(got) != 3 {
		t.Errorf("collector producers = %v, want the 3 workers", got)
	}
	if ts[col] != TransportMPSC {
		t.Errorf("collector transport = %v, want mpsc", ts[col])
	}
	// Everything else in the expanded plan is provably single-producer:
	// source (nothing produces into it), emitter (source only), each
	// worker (emitter only), sink (collector only).
	for i := range p.Stations {
		if StationID(i) == col {
			continue
		}
		if len(in[i]) > 1 {
			t.Errorf("station %q producers = %v, want <= 1", p.Stations[i].Name, in[i])
		}
		if ts[i] != TransportSPSC {
			t.Errorf("station %q transport = %v, want spsc", p.Stations[i].Name, ts[i])
		}
	}
}

func TestFanInBranchJoin(t *testing.T) {
	// src -> f -> {a, b} -> sink: the sink joins two branches, so its
	// inbox has two producers.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	f := topo.MustAddOperator(core.Operator{Name: "f", Kind: core.KindStateless, ServiceTime: 0.001})
	a := topo.MustAddOperator(core.Operator{Name: "a", Kind: core.KindStateless, ServiceTime: 0.001})
	b := topo.MustAddOperator(core.Operator{Name: "b", Kind: core.KindStateless, ServiceTime: 0.001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.001})
	topo.MustConnect(src, f, 1)
	topo.MustConnect(f, a, 0.5)
	topo.MustConnect(f, b, 0.5)
	topo.MustConnect(a, sink, 1)
	topo.MustConnect(b, sink, 1)
	p, err := Build(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := FanIn(p)
	ts := Transports(p)
	sinkSt := p.EntryOf[sink]
	if len(in[sinkSt]) != 2 || ts[sinkSt] != TransportMPSC {
		t.Errorf("sink: producers %v transport %v, want 2 producers on mpsc", in[sinkSt], ts[sinkSt])
	}
	for _, op := range []core.OpID{src, f, a, b} {
		st := p.EntryOf[op]
		if ts[st] != TransportSPSC {
			t.Errorf("station %q transport = %v, want spsc", p.Stations[st].Name, ts[st])
		}
	}
}

func TestFanInMultiPortDedup(t *testing.T) {
	// Two edges between the same station pair (multi-port routing) are
	// one producer: one goroutine holds both senders.
	p := &Plan{Stations: []Station{
		{ID: 0, Name: "up", Out: []Edge{{To: 1, Prob: 0.5}, {To: 1, Prob: 0.5}}},
		{ID: 1, Name: "down"},
	}}
	in := FanIn(p)
	if len(in[1]) != 1 || in[1][0] != 0 {
		t.Errorf("producers = %v, want exactly [0]", in[1])
	}
	if ts := Transports(p); ts[1] != TransportSPSC {
		t.Errorf("transport = %v, want spsc", ts[1])
	}
}
