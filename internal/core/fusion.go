package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Fusion errors.
var (
	// ErrFusionTooSmall reports a candidate subgraph with fewer than two
	// members.
	ErrFusionTooSmall = errors.New("fusion: subgraph needs at least two operators")
	// ErrFusionFrontEnd reports a subgraph without a unique front-end
	// vertex (Section 3.3 constraint 1).
	ErrFusionFrontEnd = errors.New("fusion: subgraph must have a single front-end vertex")
	// ErrFusionCycle reports that replacing the subgraph would make the
	// topology cyclic (Section 3.3 constraint 2).
	ErrFusionCycle = errors.New("fusion: replacing the subgraph would create a cycle")
	// ErrFusionSource reports an attempt to include the source.
	ErrFusionSource = errors.New("fusion: subgraph cannot contain the source")
	// ErrFusionDisconnected reports members unreachable from the
	// front-end within the subgraph.
	ErrFusionDisconnected = errors.New("fusion: member unreachable from the front-end within the subgraph")
)

// FusionReport describes the predicted effect of fusing a subgraph.
type FusionReport struct {
	// FrontEnd is the subgraph's unique entry vertex in the original
	// topology.
	FrontEnd OpID
	// Members lists the fused vertices (original IDs).
	Members []OpID
	// ServiceTime is the meta-operator's predicted mean service time per
	// input item (Algorithm 3).
	ServiceTime float64
	// OutputSelectivity is the expected number of items leaving the
	// subgraph per item entering it; 1 for unit-selectivity subgraphs.
	OutputSelectivity float64
	// Before and After are the steady-state analyses of the original and
	// fused topologies.
	Before, After *Analysis
	// FusedID is the meta-operator's ID in the fused topology.
	FusedID OpID
	// SurvivorIDs maps each non-member operator's ID in the original
	// topology to its ID in the fused topology; runtimes executing the
	// meta-operator use it to translate exit destinations (Algorithm 4).
	SurvivorIDs map[OpID]OpID
	// IntroducesBottleneck reports whether the meta-operator saturates in
	// the fused topology, i.e. the fusion would impair throughput. The
	// tool surfaces this as the paper's "alert".
	IntroducesBottleneck bool
	// ThroughputBefore and ThroughputAfter are the predicted topology
	// throughputs (source departure rates).
	ThroughputBefore, ThroughputAfter float64
}

// Degradation returns the relative throughput loss predicted for the
// fusion; 0 when the fusion is performance-neutral or better.
func (r *FusionReport) Degradation() float64 {
	if r.ThroughputBefore <= 0 || r.ThroughputAfter >= r.ThroughputBefore {
		return 0
	}
	return 1 - r.ThroughputAfter/r.ThroughputBefore
}

// memberSet is a small helper for subgraph membership tests.
type memberSet map[OpID]bool

func newMemberSet(members []OpID) memberSet {
	s := make(memberSet, len(members))
	for _, m := range members {
		s[m] = true
	}
	return s
}

// ValidateSubgraph checks the Section 3.3 constraints on a fusion
// candidate and returns its unique front-end vertex:
//
//   - at least two members, none of which is the source;
//   - exactly one member (the front-end) receives edges from outside the
//     subgraph; every other member's inputs all originate inside;
//   - every member is reachable from the front-end within the subgraph;
//   - contracting the subgraph to a single vertex keeps the graph acyclic.
func ValidateSubgraph(t *Topology, members []OpID) (OpID, error) {
	if len(members) < 2 {
		return -1, ErrFusionTooSmall
	}
	set := newMemberSet(members)
	if len(set) != len(members) {
		return -1, fmt.Errorf("fusion: duplicate members")
	}
	src := t.Source()
	front := OpID(-1)
	for _, m := range members {
		if !t.valid(m) {
			return -1, fmt.Errorf("fusion: invalid operator id %d", m)
		}
		if m == src {
			return -1, ErrFusionSource
		}
		hasOutside := false
		for _, e := range t.in[m] {
			if !set[e.From] {
				hasOutside = true
			}
		}
		if hasOutside {
			if front >= 0 {
				return -1, fmt.Errorf("%w: both %q and %q receive external input",
					ErrFusionFrontEnd, t.ops[front].Name, t.ops[m].Name)
			}
			front = m
		}
	}
	if front < 0 {
		return -1, fmt.Errorf("%w: no member receives external input", ErrFusionFrontEnd)
	}
	// Reachability inside the subgraph.
	reached := memberSet{front: true}
	stack := []OpID{front}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.out[v] {
			if set[e.To] && !reached[e.To] {
				reached[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for _, m := range members {
		if !reached[m] {
			return -1, fmt.Errorf("%w: %q", ErrFusionDisconnected, t.ops[m].Name)
		}
	}
	// Acyclicity after contraction: a cycle appears iff a path leaves the
	// subgraph and re-enters it. Since the only entry is the front-end, it
	// suffices to check that no exit target reaches a vertex with an edge
	// into the front-end.
	if contractionCreatesCycle(t, set, front) {
		return -1, ErrFusionCycle
	}
	return front, nil
}

func contractionCreatesCycle(t *Topology, set memberSet, front OpID) bool {
	// BFS from every exit target through non-member vertices; if we can
	// reach a vertex that feeds the front-end (or any member, which the
	// front-end uniqueness already precludes except for front itself),
	// contraction creates a cycle.
	feeds := make(memberSet)
	for _, e := range t.in[front] {
		if !set[e.From] {
			feeds[e.From] = true
		}
	}
	seen := make(memberSet)
	var stack []OpID
	for m := range set {
		for _, e := range t.out[m] {
			if !set[e.To] && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if feeds[v] {
			return true
		}
		for _, e := range t.out[v] {
			if set[e.To] {
				// Re-entry into the subgraph other than via an external
				// feeder: direct edge back in.
				return true
			}
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// FusionServiceTime evaluates Algorithm 3 by dynamic programming over the
// subgraph: it returns the meta-operator's expected service time per input
// item and, per external target, the expected number of items forwarded to
// it. The DP generalizes the paper's path enumeration to operators with
// non-unit selectivity: visits[u] is the expected number of items reaching
// member u per subgraph input, so the service time is sum(visits[u]*T_u)
// and an exit edge (u, x) carries visits[u]*gain(u)*p(u,x) items.
func FusionServiceTime(t *Topology, members []OpID, front OpID) (serviceTime float64, exits map[OpID]float64, err error) {
	set := newMemberSet(members)
	order, err := t.TopologicalOrder()
	if err != nil {
		return 0, nil, err
	}
	visits := make(map[OpID]float64, len(members))
	visits[front] = 1
	exits = make(map[OpID]float64)
	for _, v := range order {
		if !set[v] {
			continue
		}
		w := visits[v]
		if w == 0 {
			continue
		}
		serviceTime += w * t.ops[v].ServiceTime
		out := w * t.ops[v].Gain()
		for _, e := range t.out[v] {
			if set[e.To] {
				visits[e.To] += out * e.Prob
			} else {
				exits[e.To] += out * e.Prob
			}
		}
	}
	return serviceTime, exits, nil
}

// FusionServiceTimeByPaths evaluates Algorithm 3 exactly as printed in the
// paper: a recursive enumeration of all paths from the front-end, weighting
// each path's aggregate service time by its probability. It is exponential
// in the worst case and assumes unit selectivity; it exists as the
// reference implementation for tests and the ablation benchmark.
func FusionServiceTimeByPaths(t *Topology, members []OpID, front OpID) float64 {
	set := newMemberSet(members)
	var rec func(v OpID) float64
	rec = func(v OpID) float64 {
		total := t.ops[v].ServiceTime
		for _, e := range t.out[v] {
			if set[e.To] {
				total += e.Prob * rec(e.To)
			}
		}
		return total
	}
	return rec(front)
}

// Fuse replaces the subgraph identified by members with a single
// meta-operator named name, runs the steady-state analysis on the fused
// topology, and reports the predicted outcome against a, the analysis of
// t (nil: Fuse solves t itself). The original topology is left untouched;
// the fused topology is returned.
//
// The meta-operator is marked stateful: the paper forbids applying fission
// to meta-operators (Section 4.2). Its Fused field records the member
// names in topological order so code generation can reconstruct the
// internal routing (Algorithm 4).
func Fuse(t *Topology, a *Analysis, members []OpID, name string) (*Topology, *FusionReport, error) {
	fused, report, err := contract(t, members, name)
	if err != nil {
		return nil, nil, err
	}
	if a == nil {
		if a, err = SteadyState(t); err != nil {
			return nil, nil, err
		}
	}
	if err := report.predict(a, fused); err != nil {
		return nil, nil, err
	}
	return fused, report, nil
}

// contract builds the fused topology and the report's structural fields;
// predict adds the analyses.
func contract(t *Topology, members []OpID, name string) (*Topology, *FusionReport, error) {
	front, err := ValidateSubgraph(t, members)
	if err != nil {
		return nil, nil, err
	}
	serviceTime, exits, err := FusionServiceTime(t, members, front)
	if err != nil {
		return nil, nil, err
	}
	outSel := 0.0
	for _, w := range exits {
		outSel += w
	}
	set := newMemberSet(members)

	fused := NewTopology()
	idMap := make(map[OpID]OpID, t.Len())
	// Copy the surviving operators in original order, then append the
	// meta-operator.
	for i := range t.ops {
		if set[OpID(i)] {
			continue
		}
		op := t.ops[i]
		op.Keys = op.Keys.Clone()
		if op.Fused != nil {
			op.Fused = append([]string(nil), op.Fused...)
		}
		nid, err := fused.AddOperator(op)
		if err != nil {
			return nil, nil, fmt.Errorf("fuse: %w", err)
		}
		idMap[OpID(i)] = nid
	}
	memberNames := make([]string, 0, len(members))
	order, _ := t.TopologicalOrder()
	for _, v := range order {
		if set[v] {
			memberNames = append(memberNames, t.ops[v].Name)
		}
	}
	kind := KindStateful
	if len(exits) == 0 {
		kind = KindSink
	}
	if name == "" {
		name = "fused(" + strings.Join(memberNames, "+") + ")"
	}
	fid, err := fused.AddOperator(Operator{
		Name:              name,
		Kind:              kind,
		ServiceTime:       serviceTime,
		OutputSelectivity: outSel,
		Fused:             memberNames,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fuse: %w", err)
	}

	// Re-create edges. Edges among survivors copy verbatim; edges into the
	// front-end redirect to the meta-operator; internal edges vanish; exit
	// edges leave the meta-operator with probabilities normalized over the
	// expected exit volume (their "joint probability").
	for i := range t.ops {
		if set[OpID(i)] {
			continue
		}
		for _, e := range t.out[i] {
			to := fid
			if !set[e.To] {
				to = idMap[e.To]
			}
			if err := fused.Connect(idMap[OpID(i)], to, e.Prob); err != nil {
				return nil, nil, fmt.Errorf("fuse: %w", err)
			}
		}
	}
	if outSel > 0 {
		targets := make([]OpID, 0, len(exits))
		for x := range exits {
			targets = append(targets, x)
		}
		sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })
		for _, x := range targets {
			if err := fused.Connect(fid, idMap[x], exits[x]/outSel); err != nil {
				return nil, nil, fmt.Errorf("fuse: %w", err)
			}
		}
	}

	return fused, &FusionReport{
		FrontEnd:          front,
		Members:           append([]OpID(nil), members...),
		ServiceTime:       serviceTime,
		OutputSelectivity: outSel,
		FusedID:           fid,
		SurvivorIDs:       idMap,
	}, nil
}

// predict solves the fused topology and fills the report's analyses
// against before, the analysis of the original topology.
func (r *FusionReport) predict(before *Analysis, fused *Topology) error {
	after, err := SteadyState(fused)
	if err != nil {
		return fmt.Errorf("fuse: analysis of fused topology: %w", err)
	}
	r.Before, r.After = before, after
	r.ThroughputBefore, r.ThroughputAfter = before.Throughput(), after.Throughput()
	r.IntroducesBottleneck = slices.Contains(after.Limiting, r.FusedID)
	return nil
}

// FusionCandidate is a ranked fusion suggestion.
type FusionCandidate struct {
	// Members is the suggested subgraph.
	Members []OpID
	// FrontEnd is its entry vertex.
	FrontEnd OpID
	// FusedUtilization is the meta-operator's predicted utilization in
	// the fused topology; candidates are ranked by it ascending (most
	// underutilized first), mirroring the tool's GUI ranking.
	FusedUtilization float64
	// ServiceTime is the predicted meta-operator service time.
	ServiceTime float64
}

// FusionCandidates automates the paper's candidate-selection step: for each
// non-source vertex it considers the maximal subgraph it dominates (every
// path from the source into a dominated vertex passes through it, which
// guarantees the single-front-end constraint), validates it, and predicts
// the fusion outcome. Only candidates that do not introduce a bottleneck
// are returned, ranked by the meta-operator's utilization so the most
// underutilized regions come first.
func FusionCandidates(t *Topology, a *Analysis) ([]FusionCandidate, error) {
	return fusionCandidates(t, a, nil)
}

// fusionCandidates is FusionCandidates with an optional callback fired
// for dominated subgraphs discarded because the meta-operator would
// saturate — the paper's "alert" case, surfaced to rewrite traces.
func fusionCandidates(t *Topology, a *Analysis, onBottleneck func(members []OpID, rho float64)) ([]FusionCandidate, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if a == nil {
		var err error
		a, err = SteadyState(t)
		if err != nil {
			return nil, err
		}
	}
	dom, err := dominators(t)
	if err != nil {
		return nil, err
	}
	src := t.Source()
	var cands []FusionCandidate
	for f := 0; f < t.Len(); f++ {
		if OpID(f) == src {
			continue
		}
		members := dominatedSet(dom, OpID(f))
		if len(members) < 2 {
			continue
		}
		front, err := ValidateSubgraph(t, members)
		if err != nil {
			continue
		}
		st, _, err := FusionServiceTime(t, members, front)
		if err != nil {
			continue
		}
		rho := a.Lambda[front] * st
		if rho > 1 {
			// Would introduce a bottleneck.
			if onBottleneck != nil {
				onBottleneck(members, rho)
			}
			continue
		}
		cands = append(cands, FusionCandidate{
			Members:          members,
			FrontEnd:         front,
			FusedUtilization: rho,
			ServiceTime:      st,
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].FusedUtilization != cands[j].FusedUtilization {
			return cands[i].FusedUtilization < cands[j].FusedUtilization
		}
		return cands[i].FrontEnd < cands[j].FrontEnd
	})
	return cands, nil
}

// dominators computes the immediate dominator of every vertex with respect
// to the source, using the standard iterative dataflow over the topological
// order (a DAG needs a single pass).
func dominators(t *Topology) ([]OpID, error) {
	order, err := t.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int, t.Len())
	for i, v := range order {
		pos[v] = i
	}
	idom := make([]OpID, t.Len())
	for i := range idom {
		idom[i] = -1
	}
	src := order[0]
	idom[src] = src
	intersect := func(a, b OpID) OpID {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	for _, v := range order[1:] {
		var d OpID = -1
		for _, e := range t.in[v] {
			if idom[e.From] < 0 {
				continue
			}
			if d < 0 {
				d = e.From
			} else {
				d = intersect(d, e.From)
			}
		}
		idom[v] = d
	}
	return idom, nil
}

// dominatedSet returns f plus every vertex whose dominator chain contains f.
func dominatedSet(idom []OpID, f OpID) []OpID {
	var out []OpID
	for v := range idom {
		u := OpID(v)
		for {
			if u == f {
				out = append(out, OpID(v))
				break
			}
			if u < 0 || idom[u] == u {
				break
			}
			u = idom[u]
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
