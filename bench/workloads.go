package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/runtime"
	"spinstreams/internal/xmlio"
)

//go:embed workloads/paced-paper.xml
var pacedPaperXML []byte

// check selects how a workload's sink output is verified.
type check int

const (
	// checkPrefix: the first sink tuples equal the single-goroutine
	// reference, in order (linear pipelines are FIFO end to end).
	checkPrefix check = iota
	// checkPerKey: per key, the sink sequence is a prefix of the
	// reference's per-key sequence (replicas interleave keys, never
	// reorder one key).
	checkPerKey
	// checkRates: topology throughput and operator departure rates match
	// the optimizer's prediction (routing is random, so there is no
	// tuple-exact reference).
	checkRates
)

// workload is one named set of inputs. Every workload walks the same
// path — XML bytes → xmlio.Read → lint.Run → opt.Run → plan.Build →
// deploy → run — and differs in the documents, the operators bound to
// them and the deployment knobs, which decide the layer doing the work.
type workload struct {
	name string
	// docs returns the XML documents the optimize phase works through;
	// docs[deploy] is the one that is then deployed and run. The seed
	// never changes a document's size or structure: optimizer time
	// depends on both, and a metric that moved with the seed could not
	// hold a bound.
	docs   func() ([][]byte, error)
	deploy int
	// specs binds operator names to implementations; every other
	// operator runs unbound (identity, or selectivity emulation), and
	// "stamp" is always bound to the latency stamp.
	specs map[string]operators.Spec
	gen   operators.GeneratorConfig
	cfg   runtime.Config
	// nodes > 1 runs the plan through runtime.RunDistributed.
	nodes int
	// stampEvery (a power of two) samples one Seq in that many for
	// latency; saturating workloads sample, paced ones stamp everything.
	stampEvery uint64
	// optShare is the share of the measuring time spent in the optimize
	// phase; the rest goes to run windows.
	optShare float64
	check    check
	// unitGain workloads obey the conservation identity exactly.
	unitGain bool
	// golden compares the optimizer's results with the committed record.
	golden bool
	// shape asserts what the optimizer and planner must have produced
	// for the workload to measure what it says it measures.
	shape func(d *deployment) error
}

const us = 1e-6

// chain builds src → ops... as a linear topology and serializes it, so
// even the generated shapes enter the system as XML bytes.
func chain(name string, ops ...core.Operator) func() ([][]byte, error) {
	return func() ([][]byte, error) {
		t := core.NewTopology()
		var prev core.OpID
		for i, op := range ops {
			id, err := t.AddOperator(op)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				if err := t.Connect(prev, id, 1); err != nil {
					return nil, err
				}
			}
			prev = id
		}
		var b bytes.Buffer
		if err := xmlio.Write(&b, name, t); err != nil {
			return nil, err
		}
		return [][]byte{b.Bytes()}, nil
	}
}

// zipfKeys is the key distribution the generator draws from, declared on
// the partitioned-stateful operators so Algorithm 2 partitions the keys
// the stream really carries.
func zipfKeys(cfg operators.GeneratorConfig) *core.KeyDistribution {
	g, err := operators.NewGenerator(cfg)
	if err != nil {
		panic(err) // static configs
	}
	return &core.KeyDistribution{Freq: g.KeyFrequencies()}
}

// linearDocs is src → stamp → stage → sink. The declared service times
// only steer the optimizer: every stage sits at ρ = 0.5 (no fission) and
// any two of them fused would exceed the 0.9 utilization cap (no
// fusion), so the deployed shape stays a four-station pipeline.
var linearDocs = chain("linear",
	core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 1000 * us},
	core.Operator{Name: "stamp", Kind: core.KindStateless, ServiceTime: 500 * us},
	core.Operator{Name: "stage", Kind: core.KindStateless, ServiceTime: 500 * us},
	core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 500 * us},
)

var (
	linearGen = operators.GeneratorConfig{NumKeys: 4, NumFields: 1}
	keyedGen  = operators.GeneratorConfig{NumKeys: 64, KeySkew: 1.1, NumFields: 1}
	heavyGen  = operators.GeneratorConfig{NumKeys: 64, KeySkew: 1.1, NumFields: 2}
)

// corpusSize topologies from fixed Algorithm-5 seeds; corpusDeploy is
// the one deployed after the optimize passes.
const (
	corpusSize   = 50
	corpusDeploy = 24
)

func corpusDocs() ([][]byte, error) {
	docs := make([][]byte, corpusSize)
	for i := range docs {
		g, err := randtopo.Generate(randtopo.Config{Seed: uint64(i + 1)})
		if err != nil {
			return nil, err
		}
		t, err := withStamp(g.Topology)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := xmlio.Write(&b, fmt.Sprintf("corpus-%02d", i+1), t); err != nil {
			return nil, err
		}
		docs[i] = b.Bytes()
	}
	return docs, nil
}

// withStamp copies t with a fast stateless "stamp" stage spliced in
// right after the source, so generated topologies get the same latency
// probe the hand-written ones declare.
func withStamp(t *core.Topology) (*core.Topology, error) {
	out := core.NewTopology()
	src := t.Source()
	ids := make([]core.OpID, t.Len())
	var stamp core.OpID
	for i := 0; i < t.Len(); i++ {
		id, err := out.AddOperator(*t.Op(core.OpID(i)))
		if err != nil {
			return nil, err
		}
		ids[i] = id
		if core.OpID(i) == src {
			stamp, err = out.AddOperator(core.Operator{
				Name: "stamp", Kind: core.KindStateless, ServiceTime: t.Op(src).ServiceTime / 10,
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if err := out.Connect(ids[src], stamp, 1); err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		from := ids[i]
		if core.OpID(i) == src {
			from = stamp
		}
		for _, e := range t.Out(core.OpID(i)) {
			if err := out.Connect(from, ids[e.To], e.Prob); err != nil {
				return nil, err
			}
		}
	}
	return out, out.Validate()
}

func mpscInboxes(p *plan.Plan) int {
	n := 0
	for id, tr := range plan.Transports(p) {
		if tr == plan.TransportMPSC && plan.StationID(id) != p.SourceID {
			n++
		}
	}
	return n
}

func wantStations(n int) func(*deployment) error {
	return func(d *deployment) error {
		if got := len(d.plan.Stations); got != n {
			return fmt.Errorf("plan has %d stations, want %d", got, n)
		}
		if m := mpscInboxes(d.plan); m != 0 {
			return fmt.Errorf("plan has %d MPSC inboxes, want 0 (every edge single-producer)", m)
		}
		return nil
	}
}

var workloads = []*workload{
	{
		name: "linear-ring",
		// Four stations on proven SPSC rings, unpadded: mailbox and station
		// loop are nearly all the work.
		docs: linearDocs,
		gen:  linearGen,
		// The stage is a one-field map, not an identity: two stages of
		// equal cost trade the bottleneck with every scheduling whim (p50
		// spread 20% between runs); one stage that is clearly the slowest
		// keeps the queue behind the stamp full (4%).
		specs:      map[string]operators.Spec{"stage": {Impl: "affine"}},
		cfg:        runtime.Config{NoServicePadding: true, Mailbox: mailbox.Auto, MailboxSize: 512, Batch: 128},
		stampEvery: 1024,
		optShare:   0.15,
		check:      checkPrefix,
		unitGain:   true,
		shape:      wantStations(4),
	},
	{
		name: "keyed-fanout",
		// Keyed window sum fissioned to 3 replicas: emitter, key routing and
		// the 3-producer MPSC collector inbox.
		docs: chain("keyed",
			core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 1000 * us},
			core.Operator{Name: "stamp", Kind: core.KindStateless, ServiceTime: 100 * us},
			core.Operator{Name: "wsum", Kind: core.KindPartitionedStateful, ServiceTime: 2400 * us, Keys: zipfKeys(keyedGen)},
			core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 100 * us},
		),
		specs:      map[string]operators.Spec{"wsum": {Impl: "wsum", WindowLen: 16, Slide: 1, NumKeys: 64}},
		gen:        keyedGen,
		cfg:        runtime.Config{NoServicePadding: true, Mailbox: mailbox.Auto, MailboxSize: 512, Batch: 128},
		stampEvery: 1024,
		optShare:   0.15,
		check:      checkPerKey,
		shape: func(d *deployment) error {
			id, _ := d.final.Lookup("wsum")
			if r := d.replicas[id]; r != 3 {
				return fmt.Errorf("wsum has %d replicas, want 3", r)
			}
			if m := mpscInboxes(d.plan); m < 1 {
				return fmt.Errorf("plan has no MPSC inbox, want the collector's")
			}
			return nil
		},
	},
	{
		name: "heavy-ops",
		// Real windowed operators dominate, unpadded: transport changes
		// should not move it.
		docs: chain("heavy",
			core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 2.5 * us},
			core.Operator{Name: "stamp", Kind: core.KindStateless, ServiceTime: 0.25 * us},
			core.Operator{Name: "wma", Kind: core.KindPartitionedStateful, ServiceTime: 1 * us, Keys: zipfKeys(heavyGen)},
			core.Operator{Name: "skyline", Kind: core.KindStateful, ServiceTime: 2 * us},
			core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.5 * us},
		),
		specs: map[string]operators.Spec{
			"wma":     {Impl: "wma", WindowLen: 64, Slide: 1, NumKeys: 64},
			"skyline": {Impl: "skyline", WindowLen: 64, Slide: 1},
		},
		gen:        heavyGen,
		cfg:        runtime.Config{NoServicePadding: true, Mailbox: mailbox.Auto, MailboxSize: 512, Batch: 128},
		stampEvery: 64,
		optShare:   0.15,
		check:      checkPrefix,
		shape:      wantStations(5),
	},
	{
		name: "paced-paper",
		// The paper's Table 1 graph, optimized and deployed padded with
		// default knobs: what `run -optimize` gives a user.
		docs:       func() ([][]byte, error) { return [][]byte{pacedPaperXML}, nil },
		stampEvery: 1,
		optShare:   0.15,
		check:      checkRates,
		shape: func(d *deployment) error {
			id, ok := d.final.Lookup("op2")
			if !ok || d.replicas[id] < 2 {
				return fmt.Errorf("op2 was not replicated")
			}
			fused := 0
			for i := 0; i < d.final.Len(); i++ {
				if len(d.final.Op(core.OpID(i)).Fused) > 0 {
					fused++
				}
			}
			if fused != 1 {
				return fmt.Errorf("%d fused meta-operators, want 1 (op3-op5)", fused)
			}
			return nil
		},
	},
	{
		name: "optimize-corpus",
		// 50 Algorithm-5 topologies parsed, vetted, optimized and planned:
		// the only workload xmlio/opt/core changes move.
		docs:       corpusDocs,
		deploy:     corpusDeploy,
		stampEvery: 1,
		optShare:   0.5,
		check:      checkRates,
		golden:     true,
	},
	{
		name: "tcp-loopback",
		// The linear shape across 2 in-process nodes over loopback TCP/gob
		// with default knobs: runtime/distributed.go does the work.
		docs:       linearDocs,
		gen:        linearGen,
		cfg:        runtime.Config{NoServicePadding: true},
		nodes:      2,
		stampEvery: 16,
		optShare:   0.15,
		check:      checkPrefix,
		unitGain:   true,
		shape:      wantStations(4),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// windowsPerRun is how many steps one run is split into, each ending in
// a separate deployment; the reported throughput is the median over
// those windows and latencies pool over them.
const windowsPerRun = 5

// windowLen splits what the set-ups and the optimize passes leave of the
// measuring time over the windows.
func (w *workload) windowLen(seconds float64) time.Duration {
	return time.Duration(seconds * (1 - setupShare - w.optShare) / windowsPerRun * float64(time.Second))
}
