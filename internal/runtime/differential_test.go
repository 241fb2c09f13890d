package runtime

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/randtopo"
)

// digest identifies one sink result: the deployed vertex it left through,
// its Seq and Key, and a checksum of its payload.
type digest struct {
	sink             string
	seq, key, fields uint64
}

func digestOf(sink string, t operators.Tuple) digest {
	h := uint64(14695981039346656037)
	for _, f := range t.Fields {
		h = (h ^ math.Float64bits(f)) * 1099511628211
	}
	return digest{sink: sink, seq: t.Seq, key: t.Key, fields: h}
}

// referenceRun is the single-goroutine reference executor: gen's first n
// tuples pushed depth-first through fresh operators built from specs, no
// mailboxes and no stations, every output routed by split as the
// stations of a run with Config.Seed seed route it. It returns the sink
// results as a multiset, each under the name owner gives its sink (the
// deployed vertex hosting it).
func referenceRun(t *core.Topology, specs []operators.Spec, gen *operators.Generator, n, seed uint64, owner map[string]string) (map[digest]int, error) {
	ops := make([]operators.Operator, t.Len())
	idents := make([]uint64, t.Len())
	for i, spec := range specs {
		idents[i] = opIdent(t.Op(core.OpID(i)).Name, seed)
		if spec.Impl == "source" {
			continue
		}
		op, err := operators.Build(spec)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	got := make(map[digest]int)
	// emits[v] counts the outputs of v's call in hand; a DAG never
	// re-enters v while its call runs.
	emits := make([]int, t.Len())
	var push func(v core.OpID, in operators.Tuple)
	emit := func(v core.OpID, o operators.Tuple) {
		idx := emits[v]
		emits[v]++
		out := t.Out(v)
		if len(out) == 0 {
			got[digestOf(owner[t.Op(v).Name], o)]++
			return
		}
		e := out[split(len(out), func(i int) float64 { return out[i].Prob }, &o, idents[v], idx)]
		for port, in := range t.In(e.To) {
			if in.From == v {
				o.Port = port
			}
		}
		push(e.To, o)
	}
	push = func(v core.OpID, in operators.Tuple) {
		emits[v] = 0
		ops[v].Process(in, func(o operators.Tuple) { emit(v, o) })
	}
	src := t.Source()
	for i := uint64(0); i < n; i++ {
		emits[src] = 0
		emit(src, gen.Next())
	}
	return got, nil
}

// diffTuples is how many source tuples the comparison covers: the
// reference runs the generator's first diffTuples tuples, and a
// deployment's results count when their Seq is among them.
const diffTuples = 3000

// sinkLog collects one deployment's sink results from the first
// diffTuples source tuples. Its source runs on; every later tuple's
// results are ignored. A result with Seq s depends on tuples up to s
// alone where the comparison is exact, so later tuples cannot move it.
type sinkLog struct {
	names []string // deployed vertex names by ID
	mu    sync.Mutex
	got   map[digest]int
	n     int
}

func newSinkLog(deployed *core.Topology) *sinkLog {
	l := &sinkLog{got: make(map[digest]int)}
	for i := 0; i < deployed.Len(); i++ {
		l.names = append(l.names, deployed.Op(core.OpID(i)).Name)
	}
	return l
}

func (l *sinkLog) onSink(op core.OpID, t operators.Tuple) {
	if t.Seq > diffTuples {
		return
	}
	d := digestOf(l.names[op], t)
	l.mu.Lock()
	l.got[d]++
	l.n++
	l.mu.Unlock()
}

func (l *sinkLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// wait blocks until the log holds at least n results, or until none has
// arrived for five seconds: with the source feeding the deployment at
// full speed, a result late by that long is not coming.
func (l *sinkLog) wait(n int) {
	last, quiet := l.count(), time.Now()
	for last < n && time.Since(quiet) < 5*time.Second {
		time.Sleep(time.Millisecond)
		if c := l.count(); c != last {
			last, quiet = c, time.Now()
		}
	}
}

// multisetDiff describes how got differs from want, or returns "".
func multisetDiff(want, got map[digest]int) string {
	var lines []string
	for d, w := range want {
		if g := got[d]; g != w {
			lines = append(lines, fmt.Sprintf("%s seq %d key %d: %d, want %d", d.sink, d.seq, d.key, g, w))
		}
	}
	for d, g := range got {
		if _, ok := want[d]; !ok {
			lines = append(lines, fmt.Sprintf("%s seq %d key %d: %d, want none", d.sink, d.seq, d.key, g))
		}
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	n := len(lines)
	if n > 5 {
		lines = lines[:5]
	}
	return fmt.Sprintf("%d result digests differ, e.g.\n\t%s", n, strings.Join(lines, "\n\t"))
}

// deployed is one deployment of an input topology: the topology it runs
// (after any fusion), its replication degrees, its binding, and which
// deployed vertex hosts each input operator.
type deployed struct {
	topo     *core.Topology
	replicas []int
	binding  *Binding
	owner    map[string]string
}

// deployFused binds final, derived from t by fusions whose flattened
// member names groups lists per fused vertex: survivors run their spec's
// operator, fused vertices a NewMetaOperator over t and the members'
// specs, so the fused deployment computes the members' functions.
func deployFused(t, final *core.Topology, replicas []int, specs []operators.Spec, groups map[string][]string) (*deployed, error) {
	owner := make(map[string]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		name := t.Op(core.OpID(i)).Name
		owner[name] = name
	}
	for f, members := range groups {
		for _, m := range members {
			owner[m] = f
		}
	}
	build := func(name string) (operators.Operator, error) {
		id, ok := t.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("no operator %q", name)
		}
		return operators.Build(specs[id])
	}
	b := &Binding{Ops: make(map[core.OpID]operators.Operator), Meta: make(map[core.OpID]*MetaOperator)}
	for i := 0; i < final.Len(); i++ {
		op := final.Op(core.OpID(i))
		members, fused := groups[op.Name]
		if !fused {
			if op.Kind != core.KindSource {
				x, err := build(op.Name)
				if err != nil {
					return nil, err
				}
				b.Ops[core.OpID(i)] = x
			}
			continue
		}
		report := &core.FusionReport{SurvivorIDs: make(map[core.OpID]core.OpID)}
		protos := make(map[core.OpID]operators.Operator)
		for _, m := range members {
			id, _ := t.Lookup(m)
			x, err := build(m)
			if err != nil {
				return nil, err
			}
			report.Members, protos[id] = append(report.Members, id), x
		}
		front, err := core.ValidateSubgraph(t, report.Members)
		if err != nil {
			return nil, fmt.Errorf("fused vertex %q: %w", op.Name, err)
		}
		report.FrontEnd = front
		for j := 0; j < t.Len(); j++ {
			if host := owner[t.Op(core.OpID(j)).Name]; host != op.Name {
				report.SurvivorIDs[core.OpID(j)], _ = final.Lookup(host)
			}
		}
		if b.Meta[core.OpID(i)], err = NewMetaOperator(t, report, protos); err != nil {
			return nil, err
		}
	}
	return &deployed{topo: final, replicas: replicas, binding: b, owner: owner}, nil
}

// orderSensitive reports whether an operator's outputs depend on the
// order its inputs arrive in: windowed and keyed state, joins.
func orderSensitive(op *core.Operator) bool {
	return op.Kind == core.KindPartitionedStateful || op.Kind == core.KindStateful
}

// inexact explains why a deployment of t that replicates the named
// operators may legitimately compute other results than the reference,
// or returns "" when its results must match exactly. Stateless operators
// are pure functions of the tuple, so only arrival order can move a
// result: the results are exact when every order-sensitive operator has a
// single producer path from the source and no replicated operator on it.
// Fan-in interleaves arrivals from two paths in whatever order they come,
// and replicas interleave their outputs at the collector, so either
// reorders what reaches a count window.
func inexact(t *core.Topology, replicated map[string]bool) string {
	src := t.Source()
	for i := 0; i < t.Len(); i++ {
		w := core.OpID(i)
		if !orderSensitive(t.Op(w)) {
			continue
		}
		for v := w; v != src; {
			in := t.In(v)
			if len(in) != 1 {
				return fmt.Sprintf("fan-in at %s, upstream of order-sensitive %s", t.Op(v).Name, t.Op(w).Name)
			}
			if v = in[0].From; v != src && replicated[t.Op(v).Name] {
				return fmt.Sprintf("replicated %s, upstream of order-sensitive %s", t.Op(v).Name, t.Op(w).Name)
			}
		}
	}
	return ""
}

// rescaleTarget picks the operator a mid-run rescale replicates: a
// keyed one when it can (its window state migrates), else a stateless
// one, in either case with no order-sensitive operator downstream, so the
// rescale keeps the results exact; "" when t has none.
func rescaleTarget(t *core.Topology) string {
	pick := ""
	for i := 0; i < t.Len(); i++ {
		v := core.OpID(i)
		op := t.Op(v)
		if !op.Kind.CanReplicate() || op.Kind == core.KindSource || feedsOrderSensitive(t, v) {
			continue
		}
		if op.Kind == core.KindPartitionedStateful {
			return op.Name
		}
		if pick == "" {
			pick = op.Name
		}
	}
	return pick
}

func feedsOrderSensitive(t *core.Topology, v core.OpID) bool {
	for _, e := range t.Out(v) {
		if orderSensitive(t.Op(e.To)) || feedsOrderSensitive(t, e.To) {
			return true
		}
	}
	return false
}

// differentialCorpus generates the topology of one seed: a small
// Algorithm 5 graph (at most 8 operators, so a seed runs in tens of
// milliseconds) with every count window shrunk a hundredfold (to 10, 50
// or 100 tuples), so windows fire many times within diffTuples tuples
// and every result they emit depends on the order of their arrivals.
func differentialCorpus(seed uint64) (*randtopo.Generated, error) {
	g, err := randtopo.Generate(randtopo.Config{Seed: seed, MaxOps: 8})
	if err != nil {
		return nil, err
	}
	for i := range g.Specs {
		g.Specs[i].WindowLen /= 100
	}
	return g, nil
}

// qualify returns the deployments of seed's topology the differential
// runs — unoptimized, fission+fusion, one fuse= subgraph, fission+fusion
// on two nodes, and a mid-run rescale — or why the seed does not qualify.
func qualify(g *randtopo.Generated) (map[string]*deployed, string, error) {
	t := g.Topology
	if why := inexact(t, nil); why != "" {
		return nil, why, nil
	}
	plain, err := Bind(t, g.Specs)
	if err != nil {
		return nil, "", err
	}
	owner := make(map[string]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		owner[t.Op(core.OpID(i)).Name] = t.Op(core.OpID(i)).Name
	}
	ds := map[string]*deployed{"unoptimized": {topo: t, binding: plain, owner: owner}}

	pipe, err := opt.ParsePasses("fission,fusion", opt.Options{})
	if err != nil {
		return nil, "", err
	}
	res, err := pipe.Run(t)
	if err != nil {
		return nil, "", err
	}
	final := res.Final.Topology()
	replicated := make(map[string]bool)
	for i, n := range res.Replicas() {
		if n > 1 {
			replicated[final.Op(core.OpID(i)).Name] = true
		}
	}
	if why := inexact(t, replicated); why != "" {
		return nil, "fission,fusion: " + why, nil
	}
	groups := make(map[string][]string)
	if res.Fusion != nil {
		for _, st := range res.Fusion.Steps {
			var flat []string
			for _, m := range st.MemberNames {
				if nested, ok := groups[m]; ok {
					flat = append(flat, nested...)
					delete(groups, m)
				} else {
					flat = append(flat, m)
				}
			}
			groups[st.FusedName] = flat
		}
	}
	if ds["fission,fusion"], err = deployFused(t, final, res.Replicas(), g.Specs, groups); err != nil {
		return nil, "", err
	}
	ds["2 nodes"] = ds["fission,fusion"]

	cands, err := core.FusionCandidates(t, nil)
	if err != nil {
		return nil, "", err
	}
	if len(cands) == 0 {
		return nil, "no fusion candidate for fuse=", nil
	}
	fused, report, err := core.Fuse(t, nil, cands[0].Members, "")
	if err != nil {
		return nil, "", err
	}
	fusedOp := fused.Op(report.FusedID)
	if ds["fuse="], err = deployFused(t, fused, nil, g.Specs, map[string][]string{fusedOp.Name: fusedOp.Fused}); err != nil {
		return nil, "", err
	}

	target := rescaleTarget(t)
	if target == "" {
		return nil, "no operator to rescale outside the order-sensitive paths", nil
	}
	ds["rescale "+target] = &deployed{topo: t, binding: plain, owner: owner}
	return ds, "", nil
}

// differentialSeeds lists the randtopo seeds the differential walks and,
// for each seed it excludes, why its deployments' results are not
// comparable with the reference's (see inexact), or that one of the five
// deployments has nothing to work on. An empty reason marks a qualifying
// seed.
var differentialSeeds = []struct {
	seed     uint64
	excluded string
}{
	{1, "no fusion candidate for fuse="},
	{2, "fan-in at op02-identity, upstream of order-sensitive op04-wma"},
	{3, "fan-in at op03-wmin, upstream of order-sensitive op03-wmin"},
	{4, "fan-in at op04-wmax, upstream of order-sensitive op04-wmax"},
	{5, "no fusion candidate for fuse="},
	{6, ""},
	{7, "no fusion candidate for fuse="},
	{8, ""},
	{9, "no fusion candidate for fuse="},
	{10, "fan-in at op02-wmax, upstream of order-sensitive op02-wmax"},
	{11, "no fusion candidate for fuse="},
	{12, "fission,fusion: replicated op01-dedup, upstream of order-sensitive op02-skyline"},
	{13, "no fusion candidate for fuse="},
	{14, ""},
	{15, "no fusion candidate for fuse="},
	{16, "fan-in at op02-wmin, upstream of order-sensitive op02-wmin"},
	{17, ""},
	{18, "fission,fusion: replicated op01-wsum, upstream of order-sensitive op02-wsum"},
	{19, "no fusion candidate for fuse="},
	{20, ""},
	{21, "no fusion candidate for fuse="},
	{22, "fan-in at op02-bandjoin, upstream of order-sensitive op02-bandjoin"},
	{23, "no fusion candidate for fuse="},
	{24, "fan-in at op04-wmin, upstream of order-sensitive op04-wmin"},
	{25, "no fusion candidate for fuse="},
	{26, "fission,fusion: replicated op01-wmin, upstream of order-sensitive op03-wquantile"},
	{27, "fan-in at op07-dedup, upstream of order-sensitive op07-dedup"},
	{28, "fan-in at op03-wma, upstream of order-sensitive op03-wma"},
	{29, "no fusion candidate for fuse="},
	{30, "fission,fusion: replicated op03-affine, upstream of order-sensitive op04-wma"},
	{31, "no fusion candidate for fuse="},
	{32, ""},
	{33, "fan-in at op02-wsum, upstream of order-sensitive op02-wsum"},
	{34, "fan-in at op02-wmin, upstream of order-sensitive op02-wmin"},
	{35, "fan-in at op07-wmax, upstream of order-sensitive op07-wmax"},
	{36, "fan-in at op04-wma, upstream of order-sensitive op04-wma"},
	{37, "no fusion candidate for fuse="},
	{38, "no fusion candidate for fuse="},
	{39, ""},
	{40, "fan-in at op05-wsum, upstream of order-sensitive op05-wsum"},
	{41, ""},
	{42, ""},
	{43, "no fusion candidate for fuse="},
	{44, "no fusion candidate for fuse="},
	{45, "fan-in at op03-wsum, upstream of order-sensitive op03-wsum"},
	{46, "fan-in at op03-wma, upstream of order-sensitive op03-wma"},
	{47, "fission,fusion: replicated op01-keyby, upstream of order-sensitive op02-wsum"},
	{48, "no fusion candidate for fuse="},
	{49, "no fusion candidate for fuse="},
	{50, "fan-in at op04-wmin, upstream of order-sensitive op04-wmin"},
	{51, "fan-in at op07-bandjoin, upstream of order-sensitive op07-bandjoin"},
	{52, "no fusion candidate for fuse="},
	{53, "no fusion candidate for fuse="},
	{54, "fission,fusion: replicated op01-affine, upstream of order-sensitive op02-wsum"},
	{55, ""},
	{56, "fan-in at op02-wquantile, upstream of order-sensitive op02-wquantile"},
	{57, "fan-in at op05-projection, upstream of order-sensitive op06-wmax"},
	{58, "fission,fusion: replicated op01-normalize, upstream of order-sensitive op02-wquantile"},
	{59, "fan-in at op02-skyline, upstream of order-sensitive op02-skyline"},
	{60, "fan-in at op07-wsum, upstream of order-sensitive op07-wsum"},
}

// TestDeploymentsComputeTheReference is the differential: for every
// qualifying topology, each deployment — unoptimized, fission+fusion with
// meta-operators executing the fused members, one fuse= subgraph,
// fission+fusion across two TCP nodes, and a live rescale applied
// mid-run — must report exactly the reference executor's sink results
// for the first diffTuples source tuples. Routing is a function of the
// tuple, so none of them may send a tuple down another edge.
// PreserveOrder deployments are not compared: the ordered emitter
// overwrites Seq, so tuples downstream of it are routed otherwise.
func TestDeploymentsComputeTheReference(t *testing.T) {
	for _, row := range differentialSeeds {
		g, err := differentialCorpus(row.seed)
		if err != nil {
			t.Fatal(err)
		}
		ds, why, err := qualify(g)
		if err != nil {
			t.Fatalf("seed %d: %v", row.seed, err)
		}
		if why != row.excluded {
			t.Errorf("seed %d: excluded for %q, the list says %q", row.seed, why, row.excluded)
		}
		if why != "" {
			continue
		}
		names := make([]string, 0, len(ds))
		for name := range ds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Run(fmt.Sprintf("seed%d/%s", row.seed, name), func(t *testing.T) {
				runDeployment(t, g, name, ds[name])
			})
		}
	}
}

// runDeployment runs one deployment until its sinks have reported as
// many results from the first diffTuples source tuples as the reference
// computes, and compares the two multisets.
func runDeployment(t *testing.T, g *randtopo.Generated, name string, d *deployed) {
	genCfg := operators.GeneratorConfig{Seed: g.Seed, NumKeys: 16}
	gen, err := operators.NewGenerator(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(g.Topology, g.Specs, gen, diffTuples, g.Seed, d.owner)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range want {
		total += c
	}
	if total == 0 {
		t.Fatal("the reference computes no result: the comparison would show nothing")
	}
	if gen, err = operators.NewGenerator(genCfg); err != nil {
		t.Fatal(err)
	}
	log := newSinkLog(d.topo)
	cfg := Config{Seed: g.Seed, NoServicePadding: true, Generator: gen, OnSink: log.onSink, Duration: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	switch {
	case name == "2 nodes":
		p, err := plan.Build(d.topo, plan.Options{Replicas: d.replicas})
		if err != nil {
			t.Fatal(err)
		}
		go func() { log.wait(total); cancel() }()
		if _, err := RunDistributed(ctx, p, d.binding, DistributedConfig{Config: cfg, Nodes: 2}); err != nil {
			t.Fatal(err)
		}
	case strings.HasPrefix(name, "rescale "):
		c, err := StartTopology(d.topo, nil, d.binding, cfg)
		if err != nil {
			t.Fatal(err)
		}
		log.wait(total / 2)
		change := opt.ReplicaChange{Operator: strings.TrimPrefix(name, "rescale "), From: 1, To: 3}
		_, err = c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{change}})
		if err == nil {
			log.wait(total)
		}
		if _, stopErr := c.Stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			t.Fatal(err)
		}
	default:
		go func() { log.wait(total); cancel() }()
		if _, err := RunTopology(ctx, d.topo, d.replicas, d.binding, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if diff := multisetDiff(want, log.got); diff != "" {
		t.Error(diff)
	}
}

// TestFissionedSplitterRoutesLikeTheOperator fissions a splitter that
// splits its copies three ways. Its collector routes for it, so each
// replica hands its outputs' emit index to the collector; without it the
// collector would send all copies of an input down one edge.
func TestFissionedSplitterRoutesLikeTheOperator(t *testing.T) {
	topo := core.NewTopology()
	for _, name := range []string{"source", "split", "x", "y", "z"} {
		kind := core.KindStateless
		if name == "source" {
			kind = core.KindSource
		}
		topo.MustAddOperator(core.Operator{Name: name, Kind: kind, ServiceTime: 0.001})
	}
	topo.MustConnect(0, 1, 1)
	for i, p := range []float64{0.5, 0.3, 0.2} {
		topo.MustConnect(1, core.OpID(2+i), p)
	}
	g := &randtopo.Generated{Topology: topo, Seed: 3, Specs: []operators.Spec{
		{Impl: "source"}, {Impl: "splitter", K: 3}, {Impl: "identity"}, {Impl: "identity"}, {Impl: "identity"},
	}}
	binding, err := Bind(topo, g.Specs)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]string{"source": "source", "split": "split", "x": "x", "y": "y", "z": "z"}
	runDeployment(t, g, "fissioned", &deployed{topo: topo, replicas: []int{1, 2, 1, 1, 1}, binding: binding, owner: owner})
}
