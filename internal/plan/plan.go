// Package plan expands a logical SpinStreams topology into the physical
// execution plan the paper's code generator produces for Akka (Section
// 4.2): one executor per operator in the standard case; emitter + replicas
// + collector for operators parallelized by fission; a single meta-operator
// executor for fused subgraphs. Both the discrete-event simulator (qsim)
// and the live goroutine runtime execute plans, which keeps "predicted vs
// measured" comparisons honest — they run the same physical structure.
package plan

import (
	"fmt"

	"spinstreams/internal/core"
	"spinstreams/internal/keypart"
)

// Role classifies a physical station.
type Role int

const (
	// RoleSource generates the input stream.
	RoleSource Role = iota + 1
	// RoleWorker executes a logical operator (or one replica of it).
	RoleWorker
	// RoleEmitter schedules items of a replicated operator to replicas.
	RoleEmitter
	// RoleCollector merges replica outputs and forwards them downstream.
	RoleCollector
)

// String returns the lower-case role name.
func (r Role) String() string {
	switch r {
	case RoleSource:
		return "source"
	case RoleWorker:
		return "worker"
	case RoleEmitter:
		return "emitter"
	case RoleCollector:
		return "collector"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Discipline selects how a station routes each output item.
type Discipline int

const (
	// Probabilistic samples one target per item from edge probabilities
	// (the logical topology's routing).
	Probabilistic Discipline = iota + 1
	// RoundRobin cycles deterministically over the targets (emitters of
	// stateless replicated operators).
	RoundRobin
	// KeyHash routes by the item's partitioning key through a key->replica
	// assignment (emitters of partitioned-stateful operators).
	KeyHash
)

// StationID indexes a station within a Plan.
type StationID int

// Edge is a physical link to a downstream station.
type Edge struct {
	To StationID
	// Prob is the routing probability under the Probabilistic discipline;
	// under RoundRobin and KeyHash it records the expected load share, so
	// the simulator can treat every discipline as weighted routing.
	Prob float64
	// Port is the index of the corresponding input edge at the target
	// logical operator; multi-input operators (joins) use it to tell
	// their sides apart. Zero for intra-operator links.
	Port int
}

// Station is a sequential executor: one mailbox, one logical thread.
type Station struct {
	ID   StationID
	Name string
	Role Role
	// Op is the logical operator this station belongs to.
	Op core.OpID
	// Replica is the replica index for workers of replicated operators.
	Replica int
	// ServiceTime is the station's mean time per consumed item in seconds.
	ServiceTime float64
	// Gain is the station's rate multiplier (output/input selectivity).
	Gain float64
	// InputSelectivity and OutputSelectivity are carried through for the
	// runtime's operator bindings.
	InputSelectivity, OutputSelectivity float64
	// Out lists the downstream links.
	Out []Edge
	// Discipline selects the routing of output items.
	Discipline Discipline
	// KeyReplica maps key -> replica slot for KeyHash emitters; replica
	// slot i corresponds to Out[i].
	KeyReplica []int
	// KeyFreq is the partitioning-key frequency distribution of a
	// partitioned-stateful operator, carried on its emitter (and on its
	// single worker while unreplicated) so a live reconfiguration can
	// recompute the key->replica assignment without the logical topology.
	KeyFreq []float64
	// Member selects the fused sub-operator a station executes after a
	// live fusion undo split the fused station back into its members.
	// Zero means "not a member station"; otherwise the sub-operator ID
	// is Member-1 in the meta-operator's original subgraph.
	Member int
}

// Plan is a physical execution plan.
type Plan struct {
	Stations []Station
	// SourceID is the unique source station.
	SourceID StationID
	// WorkersOf maps each logical operator to its worker station IDs.
	WorkersOf [][]StationID
	// CollectorOf maps each logical operator to its collector station, or
	// -1 when the operator is not replicated.
	CollectorOf []StationID
	// EntryOf maps each logical operator to the station that receives its
	// input items (the worker itself, or the emitter when replicated).
	EntryOf []StationID
}

// Options tunes plan expansion.
type Options struct {
	// Replicas gives the replication degree per logical operator; nil or
	// an entry < 2 means a single worker. Typically Analysis.Replicas
	// from the optimizer.
	Replicas []int
	// EmitterServiceTime is the mean cost of the scheduling emitters and
	// collectors in seconds (paper: "a few microseconds at most").
	EmitterServiceTime float64
	// Partitioner assigns keys to replicas of partitioned-stateful
	// operators; defaults to keypart.Greedy{}.
	Partitioner keypart.Partitioner
	// AllowCycles relaxes validation to the cyclic analysis's assumptions
	// (Topology.ValidateCyclic); the simulator handles feedback edges,
	// though blocking semantics can deadlock a saturated cycle — pair
	// cyclic plans with ample buffers or shedding.
	AllowCycles bool
}

// DefaultEmitterServiceTime mirrors the paper's observation that emitter
// and collector actors cost a few microseconds per item.
const DefaultEmitterServiceTime = 2e-6

// Build expands the logical topology into a physical plan.
func Build(t *core.Topology, opts Options) (*Plan, error) {
	validate := t.Validate
	if opts.AllowCycles {
		validate = t.ValidateCyclic
	}
	if err := validate(); err != nil {
		return nil, err
	}
	if opts.EmitterServiceTime <= 0 {
		opts.EmitterServiceTime = DefaultEmitterServiceTime
	}
	if opts.Partitioner == nil {
		opts.Partitioner = keypart.Greedy{}
	}
	replicas := func(id core.OpID) int {
		if opts.Replicas == nil || int(id) >= len(opts.Replicas) {
			return 1
		}
		if n := opts.Replicas[id]; n > 1 {
			return n
		}
		return 1
	}

	p := &Plan{
		WorkersOf:   make([][]StationID, t.Len()),
		CollectorOf: make([]StationID, t.Len()),
		EntryOf:     make([]StationID, t.Len()),
		SourceID:    -1,
	}
	for i := range p.CollectorOf {
		p.CollectorOf[i] = -1
		p.EntryOf[i] = -1
	}

	add := func(s Station) StationID {
		s.ID = StationID(len(p.Stations))
		p.Stations = append(p.Stations, s)
		return s.ID
	}

	// First pass: create stations for every logical operator.
	for i := 0; i < t.Len(); i++ {
		id := core.OpID(i)
		op := t.Op(id)
		w := Unreplicated(id, op)
		asg := keypart.Assignment{Replicas: 1}
		if n := replicas(id); n > 1 && op.Kind != core.KindSource {
			if !op.Kind.CanReplicate() {
				return nil, fmt.Errorf("plan: operator %q of kind %s cannot be replicated", op.Name, op.Kind)
			}
			asg.Replicas = n
			// Partitioned-stateful operators may consolidate to fewer
			// replicas than requested, so partition before laying out.
			if op.Kind == core.KindPartitionedStateful {
				var err error
				if asg, err = opts.Partitioner.Partition(op.Keys.Freq, n); err != nil {
					return nil, fmt.Errorf("plan: partition %q: %w", op.Name, err)
				}
			}
		}
		if asg.Replicas < 2 {
			sid := add(w)
			if w.Role == RoleSource {
				p.SourceID = sid
			}
			p.WorkersOf[i] = []StationID{sid}
			p.EntryOf[i] = sid
			continue
		}
		base := StationID(len(p.Stations))
		scaffold := Fission(w, asg, opts.EmitterServiceTime)
		for _, s := range scaffold {
			for j := range s.Out {
				s.Out[j].To += base
			}
			add(s)
		}
		collector := base + StationID(len(scaffold)-1)
		for sid := base + 1; sid < collector; sid++ {
			p.WorkersOf[i] = append(p.WorkersOf[i], sid)
		}
		p.CollectorOf[i] = collector
		p.EntryOf[i] = base
	}

	// Second pass: wire logical edges from each operator's output side
	// (worker or collector) to the target operator's entry.
	for i := 0; i < t.Len(); i++ {
		id := core.OpID(i)
		outSide := p.WorkersOf[i]
		if c := p.CollectorOf[i]; c >= 0 {
			outSide = []StationID{c}
		}
		for _, s := range outSide {
			st := &p.Stations[s]
			for _, e := range t.Out(id) {
				port := 0
				for idx, in := range t.In(e.To) {
					if in.From == id {
						port = idx
					}
				}
				st.Out = append(st.Out, Edge{To: p.EntryOf[e.To], Prob: e.Prob, Port: port})
			}
		}
	}
	return p, nil
}

// Unreplicated returns the one station that runs logical operator op
// (ID id) when it is not replicated — Build's plain worker, or the source
// — which is also the template Fission replicates.
func Unreplicated(id core.OpID, op *core.Operator) Station {
	role := RoleWorker
	if op.Kind == core.KindSource {
		role = RoleSource
	}
	return Station{
		Name: op.Name, Role: role, Op: id,
		ServiceTime: op.ServiceTime, Gain: op.Gain(),
		InputSelectivity:  op.InputSelectivity,
		OutputSelectivity: op.OutputSelectivity,
		Discipline:        Probabilistic,
		KeyFreq:           keyFreq(op),
	}
}

// Fission returns the stations Algorithm 2 runs worker w on once it is
// replicated over asg.Replicas workers, in the order Build lays them out:
// the emitter, replicas 0..m-1, the collector. The emitter routes by key
// hash through asg.Replica when asg maps keys (round-robin otherwise) and
// records each replica's load share on its edge; every replica feeds the
// collector. Edge targets index the returned slice — the caller maps
// them to station IDs — and the collector's out-edges, the operator's
// logical ones, are left to the caller. Build and the live rescale both
// lay a scaffold out from here.
func Fission(w Station, asg keypart.Assignment, emitterTime float64) []Station {
	m := asg.Replicas
	discipline := RoundRobin
	if len(asg.Replica) > 0 {
		discipline = KeyHash
	}
	ss := []Station{{
		Name: w.Name + "/emitter", Role: RoleEmitter, Op: w.Op,
		ServiceTime: emitterTime, Gain: 1,
		Discipline: discipline,
		KeyReplica: append([]int(nil), asg.Replica...),
		KeyFreq:    w.KeyFreq,
	}}
	collector := StationID(m + 1)
	for r := 0; r < m; r++ {
		share := 1 / float64(m)
		if r < len(asg.Load) {
			share = asg.Load[r]
		}
		ss[0].Out = append(ss[0].Out, Edge{To: StationID(r + 1), Prob: share})
		ss = append(ss, Station{
			Name: fmt.Sprintf("%s/replica%d", w.Name, r), Role: RoleWorker, Op: w.Op, Replica: r,
			ServiceTime: w.ServiceTime, Gain: w.Gain,
			InputSelectivity:  w.InputSelectivity,
			OutputSelectivity: w.OutputSelectivity,
			Discipline:        Probabilistic,
			Out:               []Edge{{To: collector, Prob: 1}},
		})
	}
	return append(ss, Station{
		Name: w.Name + "/collector", Role: RoleCollector, Op: w.Op,
		ServiceTime: emitterTime, Gain: 1,
		InputSelectivity:  w.InputSelectivity,
		OutputSelectivity: w.OutputSelectivity,
		Discipline:        Probabilistic,
	})
}

// keyFreq copies the key frequency distribution of partitioned-stateful
// operators onto their stations, so live reconfiguration can re-partition
// without consulting the logical topology.
func keyFreq(op *core.Operator) []float64 {
	if op.Kind != core.KindPartitionedStateful || len(op.Keys.Freq) == 0 {
		return nil
	}
	return append([]float64(nil), op.Keys.Freq...)
}

// NumWorkers returns the number of worker stations (replicas included).
func (p *Plan) NumWorkers() int {
	n := 0
	for _, s := range p.Stations {
		if s.Role == RoleWorker {
			n++
		}
	}
	return n
}

// Station returns the station with the given ID, or nil when the ID is
// out of range. IDs come from the plan's own index maps (EntryOf,
// CollectorOf, Edge.To), so nil signals a caller-side bookkeeping bug
// rather than a recoverable condition — but it does so without the
// unbounded-index panic the raw slice access used to produce.
func (p *Plan) Station(id StationID) *Station {
	if id < 0 || int(id) >= len(p.Stations) {
		return nil
	}
	return &p.Stations[id]
}

// TopologicalOrder returns the stations in topological order of the
// station graph — Kahn's algorithm, FIFO, seeded with the stations
// nothing feeds in ID order — or ok == false when the graph has feedback
// edges.
func (p *Plan) TopologicalOrder() (order []StationID, ok bool) {
	indeg := make([]int, len(p.Stations))
	for i := range p.Stations {
		for _, e := range p.Stations[i].Out {
			indeg[e.To]++
		}
	}
	var ready []StationID
	for i := range indeg {
		if indeg[i] == 0 {
			ready = append(ready, StationID(i))
		}
	}
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, e := range p.Stations[u].Out {
			if indeg[e.To]--; indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return order, len(order) == len(p.Stations)
}
