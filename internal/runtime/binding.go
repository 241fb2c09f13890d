package runtime

import (
	"fmt"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// Binding supplies the executable implementations behind a plan's logical
// operators: ordinary operators by prototype (replicas are Cloned), and
// meta-operators for vertices produced by fusion.
type Binding struct {
	// Ops maps logical operator IDs to implementation prototypes. Worker
	// stations clone their prototype, so replicas never share state.
	Ops map[core.OpID]operators.Operator
	// Meta maps fused vertices to their meta-operators.
	Meta map[core.OpID]*MetaOperator
}

// Bind builds a binding from per-operator specs (e.g. randtopo.Generated):
// specs[i] configures logical operator i; source entries and empty Impls
// are skipped.
func Bind(t *core.Topology, specs []operators.Spec) (*Binding, error) {
	b := &Binding{Ops: make(map[core.OpID]operators.Operator)}
	for i, spec := range specs {
		if spec.Impl == "" || spec.Impl == "source" {
			continue
		}
		op, err := operators.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("bind operator %d: %w", i, err)
		}
		b.Ops[core.OpID(i)] = op
	}
	_ = t
	return b, nil
}

func (b *Binding) validate(p *plan.Plan) error {
	for id := range b.Meta {
		if int(id) >= len(p.EntryOf) {
			return fmt.Errorf("runtime: meta binding for unknown operator %d", id)
		}
	}
	for id := range b.Ops {
		if int(id) >= len(p.EntryOf) {
			return fmt.Errorf("runtime: binding for unknown operator %d", id)
		}
	}
	return nil
}

// executor returns the per-station processing function, whether it paces
// itself, and the live operator instance behind it (nil for pass-throughs
// and the ordering closures). The instance is exposed so the lifecycle
// seam can carry it across a pause and the reconfiguration controller can
// migrate its keyed state. Emitters and collectors forward items
// unchanged; workers apply their bound operator (cloned per station) or
// meta-operator; member stations produced by a live fusion undo clone the
// fused member's prototype; unbound workers pass through. Meta-operators
// pad internally to the per-item path cost (Algorithm 4), so the station
// loop must not pad them again to the fused mean.
func (b *Binding) executor(st *plan.Station, cfg Config) (exec func(operators.Tuple, *outbox), selfPaced bool, inst operators.Operator, minst *metaInstance) {
	switch st.Role {
	case plan.RoleEmitter:
		if cfg.PreserveOrder && stationGain(st) == 1 {
			// Stamp each item with the emitter's own sequence so the
			// collector can restore order after the parallel replicas.
			var seq uint64
			return func(in operators.Tuple, out *outbox) {
				seq++
				in.Seq = seq
				out.add(&in, -1)
			}, false, nil, nil
		}
		return forward, false, nil, nil
	case plan.RoleCollector:
		if cfg.PreserveOrder && stationGain(st) == 1 {
			next := uint64(1)
			held := make(map[uint64]operators.Tuple)
			return func(in operators.Tuple, out *outbox) {
				held[in.Seq] = in
				for {
					t, ok := held[next]
					if !ok {
						out.held = len(held)
						return
					}
					delete(held, next)
					next++
					out.add(&t, -1)
				}
			}, false, nil, nil
		}
		return forward, false, nil, nil
	}
	// A member station runs one sub-operator of a formerly fused vertex
	// (st.Op still names the fused vertex, so this must be resolved before
	// the Meta lookup would instantiate the whole meta-operator again).
	if st.Member > 0 && b.Meta != nil {
		if m, ok := b.Meta[st.Op]; ok {
			if proto, ok := m.Prototypes[core.OpID(st.Member-1)]; ok {
				op := proto.Clone()
				return opExec(op), false, op, nil
			}
		}
	}
	if b.Meta != nil {
		if m, ok := b.Meta[st.Op]; ok {
			mi := m.instance(cfg)
			return mi.process, true, nil, mi
		}
	}
	if b.Ops != nil {
		if proto, ok := b.Ops[st.Op]; ok {
			op := proto.Clone()
			return opExec(op), false, op, nil
		}
	}
	// Unbound worker: emulate the station's profiled selectivity exactly,
	// like the simulator does — a deterministic credit accumulator emits
	// floor(credit) items per input, so the live queueing network carries
	// the steady-state rates the cost model was given even when no
	// business logic is attached.
	if st.Gain != 1 && st.Gain > 0 {
		credit := 0.0
		gain := st.Gain
		return func(in operators.Tuple, out *outbox) {
			credit += gain
			for credit >= 1 {
				credit--
				out.add(&in, -1)
			}
		}, false, nil, nil
	}
	// A nil executor marks the trivial unit-gain pass-through; the station
	// loop may then forward or count out a whole window without a closure
	// call per item.
	return nil, false, nil, nil
}

// opExec wraps a concrete operator instance into the station processing
// closure; kept separate so migrations can rebuild the closure around an
// instance whose state they just moved.
func opExec(op operators.Operator) func(operators.Tuple, *outbox) {
	// The emit callback is built once per station, not once per item: a
	// closure handed to an interface method escapes, so building it per
	// item would put one heap allocation on every tuple. The callback
	// routes each output into the outbox the current call was given.
	var out *outbox
	emit := func(t operators.Tuple) {
		out.add(&t, -1)
	}
	return func(in operators.Tuple, o *outbox) {
		out = o
		op.Process(in, emit)
	}
}

// forward passes items through unchanged (plain emitters and collectors).
func forward(in operators.Tuple, out *outbox) {
	out.add(&in, -1)
}

// stationGain is the logical operator's rate multiplier carried on emitter
// and collector stations; order restoration is sound only at unit gain.
func stationGain(st *plan.Station) float64 {
	in, out := st.InputSelectivity, st.OutputSelectivity
	if in <= 0 {
		in = 1
	}
	if out <= 0 {
		out = 1
	}
	return out / in
}

// MetaOperator executes a fused subgraph inside one actor, per Algorithm 4
// of the paper: each input item is processed by the front-end operator;
// results headed to members of the subgraph are processed in turn by those
// members' functions (following the subgraph's routing), and results headed
// outside are emitted to the corresponding operator of the fused topology.
// Members' outputs are routed as a station running the member would
// route them (split), so fusing a subgraph changes no tuple's path.
type MetaOperator struct {
	// Sub is the original (pre-fusion) topology.
	Sub *core.Topology
	// Members are the fused vertices (IDs in Sub); Front is the unique
	// front-end.
	Members []core.OpID
	Front   core.OpID
	// Prototypes supplies each member's implementation.
	Prototypes map[core.OpID]operators.Operator
	// SurvivorIDs translates external destinations from Sub IDs to IDs in
	// the fused topology (FusionReport.SurvivorIDs).
	SurvivorIDs map[core.OpID]core.OpID
}

// NewMetaOperator builds the meta-operator for a fusion performed on sub.
func NewMetaOperator(sub *core.Topology, report *core.FusionReport, protos map[core.OpID]operators.Operator) (*MetaOperator, error) {
	if report == nil {
		return nil, fmt.Errorf("runtime: nil fusion report")
	}
	for _, m := range report.Members {
		if _, ok := protos[m]; !ok {
			return nil, fmt.Errorf("runtime: missing prototype for fused member %q", sub.Op(m).Name)
		}
	}
	return &MetaOperator{
		Sub:         sub,
		Members:     report.Members,
		Front:       report.FrontEnd,
		Prototypes:  protos,
		SurvivorIDs: report.SurvivorIDs,
	}, nil
}

// metaInstance is the per-actor instantiation: cloned member operators plus
// routing state.
type metaInstance struct {
	m   *MetaOperator
	ops map[core.OpID]operators.Operator
	// idents holds each member's routing identity, opIdent of its name.
	idents map[core.OpID]uint64
	// sched paces the whole meta-operator: each item is padded to the sum
	// of the service times of the members it traversed.
	sched *pacer
	// work is the traversal queue of (vertex, tuple) pairs.
	work []metaItem
	// emit routes one member output; built once per instance (see
	// opExec), it reads the member in hand, its call's outputs so far and
	// the station's outbox from at, emits and out.
	emit  operators.Emit
	at    core.OpID
	emits int
	out   *outbox
}

type metaItem struct {
	at  core.OpID
	tup operators.Tuple
}

func (m *MetaOperator) instance(cfg Config) *metaInstance {
	inst := &metaInstance{
		m:      m,
		ops:    make(map[core.OpID]operators.Operator, len(m.Members)),
		idents: make(map[core.OpID]uint64, len(m.Members)),
	}
	if !cfg.NoServicePadding {
		inst.sched = newPacer(0)
	}
	inst.emit = func(t operators.Tuple) {
		out := m.Sub.Out(inst.at)
		i := split(len(out), func(i int) float64 { return out[i].Prob }, &t, inst.idents[inst.at], inst.emits)
		inst.emits++
		if i < 0 {
			return
		}
		dest := out[i].To
		if _, member := inst.ops[dest]; member {
			inst.work = append(inst.work, metaItem{at: dest, tup: t})
		} else if fusedID, ok := m.SurvivorIDs[dest]; ok {
			inst.out.add(&t, fusedID)
		}
	}
	for _, id := range m.Members {
		inst.ops[id] = m.Prototypes[id].Clone()
		inst.idents[id] = opIdent(m.Sub.Op(id).Name, cfg.Seed)
	}
	return inst
}

// process runs Algorithm 4 for one input item: the front-end's function is
// applied first and results flowing to other members are processed in
// turn, so the item's cost is the sequential composition of the member
// functions along its path. The subgraph is acyclic, so the traversal
// always terminates.
func (mi *metaInstance) process(in operators.Tuple, out *outbox) {
	started := time.Now()
	var pathCost float64
	mi.out = out
	mi.work = mi.work[:0]
	mi.work = append(mi.work, metaItem{at: mi.m.Front, tup: in})
	// Walk the queue by index rather than reslicing its head away, so the
	// buffer keeps its capacity from one item to the next.
	for i := 0; i < len(mi.work); i++ {
		item := mi.work[i]
		mi.at, mi.emits = item.at, 0
		pathCost += mi.m.Sub.Op(item.at).ServiceTime
		mi.ops[item.at].Process(item.tup, mi.emit)
	}
	if mi.sched != nil && mi.sched.waitFor(started, time.Duration(pathCost*float64(time.Second))) {
		out.tb.st[out.st.ID].PadResets.Add(1)
	}
}
