package runtime

import (
	"context"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

func TestResolveInboxMode(t *testing.T) {
	cases := []struct {
		policy    mailbox.Mode
		producers int
		want      mailbox.Mode
	}{
		{mailbox.Auto, 0, mailbox.SPSC},
		{mailbox.Auto, 1, mailbox.SPSC},
		{mailbox.Auto, 2, mailbox.Batched},
		{mailbox.Batched, 1, mailbox.Batched},
		{mailbox.Batched, 3, mailbox.Batched},
	}
	for _, c := range cases {
		if got := resolveInboxMode(c.policy, c.producers); got != c.want {
			t.Errorf("resolveInboxMode(%v, %d) = %v, want %v", c.policy, c.producers, got, c.want)
		}
	}
}

// TestZeroConfigDeploysThePlansVerdict runs the paper's Table 1 topology
// with nothing set but seed and run length: every inbox must be on the
// transport plan.Transports proves for it — a ring wherever there is a
// single producer — and throughput must meet the model inside
// TestRunThroughputMatchesModel's tolerance.
func TestZeroConfigDeploysThePlansVerdict(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := shortCfg(92).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(p, &Binding{}, cfg)
	if err == nil {
		err = e.deploy(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	rings := 0
	for i, tr := range plan.Transports(p) {
		want := mailbox.Batched
		if tr == plan.TransportSPSC {
			want = mailbox.SPSC
			rings++
		}
		if got := e.tab().mailboxes[i].Mode(); got != want {
			t.Errorf("station %q: inbox mode %v, plan proves %v", p.Stations[i].Name, got, want)
		}
	}
	if rings == 0 || rings == len(p.Stations) {
		t.Fatalf("%d of %d inboxes are rings; the topology should exercise both transports", rings, len(p.Stations))
	}
	m := e.measure(context.Background())
	if e := stats.RelErr(m.Throughput, a.Throughput()); e > 0.15 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, a.Throughput(), e)
	}
}

// diamond builds src -> f1 -> {a, b} -> sink: the two branch operators
// share the sink, so the sink's inbox has two producers unless {f1, a, b}
// are fused into one station.
func diamond(t *testing.T) (*core.Topology, []core.OpID) {
	t.Helper()
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.002})
	f1 := topo.MustAddOperator(core.Operator{Name: "f1", Kind: core.KindStateless, ServiceTime: 0.0005})
	a := topo.MustAddOperator(core.Operator{Name: "a", Kind: core.KindStateless, ServiceTime: 0.0005})
	b := topo.MustAddOperator(core.Operator{Name: "b", Kind: core.KindStateless, ServiceTime: 0.0005})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0005})
	topo.MustConnect(src, f1, 1)
	topo.MustConnect(f1, a, 0.5)
	topo.MustConnect(f1, b, 0.5)
	topo.MustConnect(a, sink, 1)
	topo.MustConnect(b, sink, 1)
	return topo, []core.OpID{f1, a, b}
}

func TestLiveFanIn(t *testing.T) {
	topo, sub := diamond(t)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sinkID, _ := topo.Lookup("sink")
	sink := p.EntryOf[sinkID]

	in := liveFanIn(p, nil)
	if in[sink] != 2 {
		t.Errorf("sink fan-in = %d, want 2 (branches a and b)", in[sink])
	}
	// The nil-mask count must agree with the static analysis everywhere.
	for i, producers := range plan.FanIn(p) {
		if in[i] != len(producers) {
			t.Errorf("station %d: liveFanIn %d, plan.FanIn %d", i, in[i], len(producers))
		}
	}

	// Retiring branch b removes one of the sink's producers.
	bID := sub[2]
	retired := make([]bool, len(p.Stations))
	retired[p.EntryOf[bID]] = true
	if in := liveFanIn(p, retired); in[sink] != 1 {
		t.Errorf("sink fan-in with b retired = %d, want 1", in[sink])
	}
}

// TestAutoTransportBinding checks that a default (Auto) deployment binds
// every inbox to the transport the analyzer proves: the replicated
// operator's collector (three worker producers) runs batched MPSC, every
// single-producer inbox runs the SPSC ring.
func TestAutoTransportBinding(t *testing.T) {
	topo := pipeline(t, 0.002, 0.004, 0.001)
	cfg := ctlCfg(90)
	c, err := StartTopology(topo, []int{1, 3, 1}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := c.e.tab()
	ts := plan.Transports(tb.p)
	var spsc, batched int
	for i := range tb.mailboxes {
		want := mailbox.Batched
		if ts[i] == plan.TransportSPSC {
			want = mailbox.SPSC
		}
		if got := tb.mailboxes[i].Mode(); got != want {
			t.Errorf("station %q: inbox mode %v, analyzer proves %v", tb.p.Stations[i].Name, got, want)
		}
		switch ts[i] {
		case plan.TransportSPSC:
			spsc++
		default:
			batched++
		}
	}
	if batched != 1 {
		t.Errorf("batched inboxes = %d, want exactly 1 (the collector)", batched)
	}
	if spsc != len(tb.mailboxes)-1 {
		t.Errorf("spsc inboxes = %d, want %d", spsc, len(tb.mailboxes)-1)
	}
	mid, _ := topo.Lookup("sB")
	coll := tb.p.CollectorOf[mid]
	if got := tb.mailboxes[coll].Mode(); got != mailbox.Batched {
		t.Errorf("collector inbox mode = %v, want Batched", got)
	}
	flowed(t, c, mid, 200)
	checkConserved(t, mustStop(t, c))
}

// TestControllerUnfuseDemotesSPSC pins the SPSC -> MPSC demotion across
// a live reconfiguration. Fusing the diamond's {f1, a, b} makes the
// fused station the sink's only producer, so under the Auto policy the
// sink entry binds to the SPSC ring. Unfusing re-creates the two branch
// edges into the sink — fan-in 2 — and ApplyDelta must swap the ring for
// a batched mailbox inside the fence without losing a tuple.
func TestControllerUnfuseDemotesSPSC(t *testing.T) {
	topo, sub := diamond(t)
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
	cfg := ctlCfg(91)
	c, err := StartTopology(fused, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := c.e.tab()
	sinkID, _ := fused.Lookup("sink")
	sinkStation := tb.p.EntryOf[sinkID]
	if got := tb.mailboxes[sinkStation].Mode(); got != mailbox.SPSC {
		t.Fatalf("sink inbox mode before unfuse = %v, want SPSC (fused F is the sole producer)", got)
	}

	flowed(t, c, sinkID, 100)
	rep, err := c.ApplyDelta(&opt.DeltaPlan{Undo: []opt.FusionUndo{{Operator: "F", Rho: 1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unfused != 1 || rep.Demoted != 1 {
		t.Errorf("report = %+v, want Unfused 1 and Demoted 1", rep)
	}

	tb = c.e.tab()
	if got := tb.mailboxes[sinkStation].Mode(); got != mailbox.Batched {
		t.Errorf("sink inbox mode after unfuse = %v, want Batched (two branch producers)", got)
	}
	// The member stations are fresh single-producer inboxes: still SPSC.
	for _, v := range meta.Members {
		name := "F/" + meta.Sub.Op(v).Name
		found := false
		for i := range tb.p.Stations {
			if tb.p.Stations[i].Name != name {
				continue
			}
			found = true
			if got := tb.mailboxes[i].Mode(); got != mailbox.SPSC {
				t.Errorf("member %q inbox mode = %v, want SPSC", name, got)
			}
		}
		if !found {
			t.Errorf("member station %q missing after unfuse", name)
		}
	}

	// The demotion must keep the stream flowing through the swapped inbox.
	before := tb.st[sinkStation].Arrived.Load()
	if !waitUntil(t, func() bool { return tb.st[sinkStation].Arrived.Load() > before }, 10*time.Second) {
		t.Errorf("sink arrivals stalled after demotion: %d -> %d", before, tb.st[sinkStation].Arrived.Load())
	}
	checkConserved(t, mustStop(t, c))
}
