package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind classifies an operator's state, which determines whether fission can
// be applied to it (Section 3.2 of the paper).
type Kind int

const (
	// KindSource marks the unique root of a topology. Sources generate the
	// input stream at their service rate and are never replicated.
	KindSource Kind = iota + 1
	// KindStateless operators keep no state across items and can be
	// replicated with any load-balanced routing (shuffle/round-robin).
	KindStateless
	// KindPartitionedStateful operators keep state per partitioning key;
	// replicas each own a subset of the key domain.
	KindPartitionedStateful
	// KindStateful operators keep monolithic state and cannot be replicated.
	KindStateful
	// KindSink marks a terminal operator (no output edges). Sinks consume
	// results; they behave like stateful operators for fission purposes.
	KindSink
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindStateless:
		return "stateless"
	case KindPartitionedStateful:
		return "partitioned-stateful"
	case KindStateful:
		return "stateful"
	case KindSink:
		return "sink"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CanReplicate reports whether fission applies to operators of this kind.
func (k Kind) CanReplicate() bool {
	return k == KindStateless || k == KindPartitionedStateful
}

// OpID identifies an operator inside a Topology. IDs are dense indices
// assigned by AddOperator in insertion order.
type OpID int

// KeyDistribution describes the key domain of a partitioned-stateful
// operator: Freq[k] is the fraction of input items carrying key k.
// Frequencies must be positive and sum to 1 (within tolerance).
type KeyDistribution struct {
	Freq []float64
}

// Validate checks that the distribution is a proper probability vector.
func (d *KeyDistribution) Validate() error {
	if d == nil || len(d.Freq) == 0 {
		return errors.New("key distribution: empty")
	}
	sum := 0.0
	for i, f := range d.Freq {
		// !(f > 0) instead of f <= 0: NaN fails both orderings, and a NaN
		// frequency would otherwise slip through into the load model.
		if !(f > 0) || math.IsInf(f, 1) {
			return fmt.Errorf("key distribution: frequency %d is %v, must be a finite value > 0", i, f)
		}
		sum += f
	}
	if sum < 1-probTolerance || sum > 1+probTolerance {
		return fmt.Errorf("key distribution: frequencies sum to %v, want 1", sum)
	}
	return nil
}

// Clone returns a deep copy of the distribution. Cloning a nil distribution
// returns nil.
func (d *KeyDistribution) Clone() *KeyDistribution {
	if d == nil {
		return nil
	}
	freq := make([]float64, len(d.Freq))
	copy(freq, d.Freq)
	return &KeyDistribution{Freq: freq}
}

// Operator is a vertex of the topology: a sequential queueing station with a
// profiled mean service time and selectivity parameters (Section 3.4).
type Operator struct {
	// Name is a human-readable identifier, unique within the topology.
	Name string
	// Kind determines how the optimizer may restructure the operator.
	Kind Kind
	// ServiceTime is the profiled mean time, in seconds, the operator needs
	// to consume one input item (T = 1/mu). Must be > 0.
	ServiceTime float64
	// InputSelectivity is the average number of input items consumed before
	// one activation produces output (e.g. the slide of a count window).
	// Zero means the default of 1.
	InputSelectivity float64
	// OutputSelectivity is the average number of output items produced per
	// activation (e.g. >1 for flatmap, <1 for a filter's pass rate).
	// Zero means the default of 1.
	OutputSelectivity float64
	// Keys describes the key-frequency distribution for
	// partitioned-stateful operators; nil otherwise.
	Keys *KeyDistribution
	// Impl optionally references the implementation (the analog of the
	// paper's .class file pathname) used by code generation and the runtime
	// operator registry.
	Impl string
	// Fused lists the names of the original operators this vertex replaced
	// when it was produced by operator fusion; nil for ordinary operators.
	Fused []string
}

// Rate returns the service rate mu = 1/ServiceTime in items per second.
func (o *Operator) Rate() float64 {
	if o.ServiceTime <= 0 {
		return 0
	}
	return 1 / o.ServiceTime
}

// Gain returns the rate multiplier applied by the operator at steady state:
// OutputSelectivity / InputSelectivity, with zero fields defaulting to 1.
func (o *Operator) Gain() float64 {
	return o.outSel() / o.inSel()
}

func (o *Operator) inSel() float64 {
	if o.InputSelectivity <= 0 {
		return 1
	}
	return o.InputSelectivity
}

func (o *Operator) outSel() float64 {
	if o.OutputSelectivity <= 0 {
		return 1
	}
	return o.OutputSelectivity
}

// Edge is a directed stream between two operators. Prob is the probability
// that an output item of From is routed to To; the probabilities of the
// edges leaving a vertex must sum to 1.
type Edge struct {
	From OpID
	To   OpID
	Prob float64
}

// Topology is a directed graph of operators connected by streams. The zero
// value is an empty topology ready for use; populate it with AddOperator and
// Connect, then call Validate before running any analysis.
type Topology struct {
	ops    []Operator
	out    [][]Edge // adjacency by source vertex
	in     [][]Edge // reverse adjacency by target vertex
	byName map[string]OpID
}

// probTolerance is the slack allowed when checking that probabilities sum
// to one, absorbing float rounding in profiled inputs.
const probTolerance = 1e-6

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{byName: make(map[string]OpID)}
}

// AddOperator appends op as a new vertex and returns its ID. The operator
// name must be non-empty and unique.
func (t *Topology) AddOperator(op Operator) (OpID, error) {
	if t.byName == nil {
		t.byName = make(map[string]OpID)
	}
	if op.Name == "" {
		return -1, errors.New("add operator: empty name")
	}
	if _, dup := t.byName[op.Name]; dup {
		return -1, fmt.Errorf("add operator: duplicate name %q", op.Name)
	}
	// !(x > 0) instead of x <= 0 so NaN service times are rejected too:
	// NaN compares false against everything and would otherwise pass
	// straight into the steady-state equations.
	if !(op.ServiceTime > 0) || math.IsInf(op.ServiceTime, 1) {
		return -1, fmt.Errorf("add operator %q: service time %v, must be finite and > 0", op.Name, op.ServiceTime)
	}
	if math.IsNaN(op.InputSelectivity) || math.IsInf(op.InputSelectivity, 0) {
		return -1, fmt.Errorf("add operator %q: input selectivity %v, must be finite", op.Name, op.InputSelectivity)
	}
	if math.IsNaN(op.OutputSelectivity) || math.IsInf(op.OutputSelectivity, 0) {
		return -1, fmt.Errorf("add operator %q: output selectivity %v, must be finite", op.Name, op.OutputSelectivity)
	}
	if op.Kind < KindSource || op.Kind > KindSink {
		return -1, fmt.Errorf("add operator %q: invalid kind %d", op.Name, int(op.Kind))
	}
	if op.Kind == KindPartitionedStateful {
		if err := op.Keys.Validate(); err != nil {
			return -1, fmt.Errorf("add operator %q: %w", op.Name, err)
		}
	}
	id := OpID(len(t.ops))
	t.ops = append(t.ops, op)
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	t.byName[op.Name] = id
	return id, nil
}

// MustAddOperator is AddOperator that panics on error; intended for tests
// and statically-known topologies such as examples.
func (t *Topology) MustAddOperator(op Operator) OpID {
	id, err := t.AddOperator(op)
	if err != nil {
		panic(err)
	}
	return id
}

// Connect adds a stream from -> to carrying prob of from's output items.
func (t *Topology) Connect(from, to OpID, prob float64) error {
	if !t.valid(from) || !t.valid(to) {
		return fmt.Errorf("connect: invalid operator id (%d -> %d)", from, to)
	}
	if from == to {
		return fmt.Errorf("connect: self-loop on %q", t.ops[from].Name)
	}
	if !(prob > 0) || prob > 1+probTolerance {
		return fmt.Errorf("connect %q -> %q: probability %v outside (0, 1]", t.ops[from].Name, t.ops[to].Name, prob)
	}
	for _, e := range t.out[from] {
		if e.To == to {
			return fmt.Errorf("connect: duplicate edge %q -> %q", t.ops[from].Name, t.ops[to].Name)
		}
	}
	e := Edge{From: from, To: to, Prob: prob}
	t.out[from] = append(t.out[from], e)
	t.in[to] = append(t.in[to], e)
	return nil
}

// MustConnect is Connect that panics on error.
func (t *Topology) MustConnect(from, to OpID, prob float64) {
	if err := t.Connect(from, to, prob); err != nil {
		panic(err)
	}
}

func (t *Topology) valid(id OpID) bool {
	return id >= 0 && int(id) < len(t.ops)
}

// Len returns the number of operators.
func (t *Topology) Len() int { return len(t.ops) }

// NumEdges returns the number of streams.
func (t *Topology) NumEdges() int {
	n := 0
	for _, es := range t.out {
		n += len(es)
	}
	return n
}

// Op returns the operator with the given ID. The returned pointer stays
// valid until the next AddOperator call and may be used to adjust profiled
// fields in place.
func (t *Topology) Op(id OpID) *Operator {
	return &t.ops[id]
}

// Lookup returns the ID of the operator with the given name.
func (t *Topology) Lookup(name string) (OpID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// Out returns the output edges of id. The caller must not modify the
// returned slice.
func (t *Topology) Out(id OpID) []Edge { return t.out[id] }

// In returns the input edges of id. The caller must not modify the returned
// slice.
func (t *Topology) In(id OpID) []Edge { return t.in[id] }

// Sources returns the IDs of all vertices without input edges.
func (t *Topology) Sources() []OpID {
	var srcs []OpID
	for i := range t.ops {
		if len(t.in[i]) == 0 {
			srcs = append(srcs, OpID(i))
		}
	}
	return srcs
}

// Sinks returns the IDs of all vertices without output edges.
func (t *Topology) Sinks() []OpID {
	var sinks []OpID
	for i := range t.ops {
		if len(t.out[i]) == 0 {
			sinks = append(sinks, OpID(i))
		}
	}
	return sinks
}

// Clone returns a deep copy of the topology.
func (t *Topology) Clone() *Topology {
	c := NewTopology()
	c.ops = make([]Operator, len(t.ops))
	copy(c.ops, t.ops)
	for i := range c.ops {
		c.ops[i].Keys = t.ops[i].Keys.Clone()
		if t.ops[i].Fused != nil {
			c.ops[i].Fused = append([]string(nil), t.ops[i].Fused...)
		}
		c.byName[c.ops[i].Name] = OpID(i)
	}
	c.out = make([][]Edge, len(t.out))
	c.in = make([][]Edge, len(t.in))
	for i, es := range t.out {
		if es != nil {
			c.out[i] = append([]Edge(nil), es...)
		}
	}
	for i, es := range t.in {
		if es != nil {
			c.in[i] = append([]Edge(nil), es...)
		}
	}
	return c
}

// String renders a compact multi-line description, useful in logs and tests.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology: %d operators, %d edges\n", t.Len(), t.NumEdges())
	for i, op := range t.ops {
		fmt.Fprintf(&b, "  [%d] %s (%s, T=%.6gs", i, op.Name, op.Kind, op.ServiceTime)
		if op.Gain() != 1 {
			fmt.Fprintf(&b, ", gain=%.4g", op.Gain())
		}
		b.WriteString(")")
		for _, e := range t.out[i] {
			fmt.Fprintf(&b, " ->%s(%.3g)", t.ops[e.To].Name, e.Prob)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TopologicalOrder returns the vertex IDs in a topological ordering with the
// source first. It fails if the graph has a cycle.
func (t *Topology) TopologicalOrder() ([]OpID, error) {
	n := t.Len()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(t.in[i])
	}
	// Deterministic order: lowest-ID-first among ready vertices.
	ready := make([]OpID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, OpID(i))
		}
	}
	order := make([]OpID, 0, n)
	for len(ready) > 0 {
		slices.Sort(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, e := range t.out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}
