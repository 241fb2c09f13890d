package lint

import (
	"fmt"
	"math"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/xmlio"
)

// probTolerance mirrors core's slack for probability-mass checks.
const probTolerance = 1e-6

// structuralTopology checks the graph-shape invariants on a built
// topology. Edge-level validity (positive probabilities, no self-loops,
// no duplicates) is enforced by core.Connect at construction; what
// remains checkable is the global shape.
func structuralTopology(rep *Report, t *core.Topology, cfg Config) {
	if t.Len() == 0 {
		rep.add(Diagnostic{Code: CodeMalformed, Message: "topology is empty"})
		return
	}
	srcs := t.Sources()
	switch {
	case len(srcs) == 0:
		rep.add(Diagnostic{Code: CodeMalformed, Message: "no source: every operator has input edges"})
	case len(srcs) > 1:
		names := make([]string, len(srcs))
		for i, s := range srcs {
			names[i] = t.Op(s).Name
		}
		rep.add(Diagnostic{Code: CodeMalformed,
			Message: fmt.Sprintf("multiple sources: %s (use a fictitious source to root multi-source graphs)", strings.Join(names, ", "))})
	default:
		if op := t.Op(srcs[0]); op.Kind != core.KindSource {
			rep.add(Diagnostic{Code: CodeMalformed, Operator: op.Name,
				Message: fmt.Sprintf("root %q has kind %s, want source", op.Name, op.Kind)})
		}
	}
	for i := 0; i < t.Len(); i++ {
		op := t.Op(core.OpID(i))
		if op.Kind == core.KindSource && (len(srcs) != 1 || srcs[0] != core.OpID(i)) {
			rep.add(Diagnostic{Code: CodeMalformed, Operator: op.Name,
				Message: fmt.Sprintf("%q is a source but has input edges", op.Name)})
		}
		if op.Kind == core.KindSink && len(t.Out(core.OpID(i))) > 0 {
			rep.add(Diagnostic{Code: CodeMalformed, Operator: op.Name,
				Message: fmt.Sprintf("%q is a sink but has output edges", op.Name)})
		}
		if op.InputSelectivity < 0 || op.OutputSelectivity < 0 {
			rep.add(Diagnostic{Code: CodeSelectivityRange, Severity: SeverityWarning, Operator: op.Name,
				Message: fmt.Sprintf("%q has a negative selectivity, which the gain model silently treats as the default of 1", op.Name)})
		}
		if out := t.Out(core.OpID(i)); len(out) > 0 {
			sum := 0.0
			for _, e := range out {
				sum += e.Prob
			}
			if math.Abs(sum-1) > probTolerance {
				rep.add(Diagnostic{Code: CodeProbabilityMass, Operator: op.Name,
					Message: fmt.Sprintf("output probabilities of %q sum to %v, want 1", op.Name, sum)})
			}
		}
	}
	if _, err := t.TopologicalOrder(); err != nil && !cfg.AllowCycles {
		rep.add(Diagnostic{Code: CodeMalformed,
			Message: "topology has a cycle; pass allow-cycles to analyze feedback loops with the fixed-point solver"})
	}
	if len(srcs) == 1 {
		for _, d := range unreachableFrom(t, srcs[0]) {
			rep.add(d)
		}
	}
}

func unreachableFrom(t *core.Topology, src core.OpID) []Diagnostic {
	seen := make([]bool, t.Len())
	seen[src] = true
	stack := []core.OpID{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.Out(v) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	var ds []Diagnostic
	for i, ok := range seen {
		if !ok {
			name := t.Op(core.OpID(i)).Name
			ds = append(ds, Diagnostic{Code: CodeUnreachable, Operator: name,
				Message: fmt.Sprintf("%q is not reachable from the source", name)})
		}
	}
	return ds
}

// checkReplicas validates the requested replication degrees against the
// operator kinds, key domains and the replica budget, positioning each
// per-operator finding at its element when pos is non-nil.
func checkReplicas(rep *Report, t *core.Topology, pos *xmlio.Positions, cfg Config) {
	if cfg.Replicas == nil {
		return
	}
	if len(cfg.Replicas) != t.Len() {
		rep.add(Diagnostic{Code: CodeMalformed,
			Message: fmt.Sprintf("%d replica degrees for %d operators", len(cfg.Replicas), t.Len())})
		return
	}
	total := 0
	for i, n := range cfg.Replicas {
		op := t.Op(core.OpID(i))
		if n < 1 {
			n = 1
		}
		total += n
		if n == 1 {
			continue
		}
		if !op.Kind.CanReplicate() {
			rep.addAt(pos.Operator(i), Diagnostic{Code: CodeStatefulFission, Operator: op.Name,
				Message: fmt.Sprintf("%q has kind %s and cannot be replicated (requested %d replicas)", op.Name, op.Kind, n)})
			continue
		}
		if op.Kind == core.KindPartitionedStateful && op.Keys != nil && n > len(op.Keys.Freq) {
			rep.addAt(pos.Operator(i), Diagnostic{Code: CodeReplicaBudget, Operator: op.Name,
				Message: fmt.Sprintf("%q requests %d replicas but partitions only %d keys; the partitioner will consolidate", op.Name, n, len(op.Keys.Freq))})
		}
	}
	if cfg.ReplicaBudget > 0 && total > cfg.ReplicaBudget {
		rep.add(Diagnostic{Code: CodeReplicaBudget,
			Message: fmt.Sprintf("configuration uses %d replicas, exceeding the budget of %d", total, cfg.ReplicaBudget)})
	}
}

// checkFusionCandidate validates cfg.FuseMembers against the Section 3.3
// fusion preconditions.
func checkFusionCandidate(rep *Report, t *core.Topology, cfg Config) {
	if len(cfg.FuseMembers) == 0 {
		return
	}
	members := make([]core.OpID, 0, len(cfg.FuseMembers))
	for _, name := range cfg.FuseMembers {
		id, ok := t.Lookup(strings.TrimSpace(name))
		if !ok {
			rep.add(Diagnostic{Code: CodeFusionCandidate, Operator: name,
				Message: fmt.Sprintf("fusion candidate names unknown operator %q", name)})
			return
		}
		members = append(members, id)
	}
	if _, err := core.ValidateSubgraph(t, members); err != nil {
		rep.add(Diagnostic{Code: CodeFusionCandidate,
			Message: fmt.Sprintf("fusion candidate {%s}: %v", strings.Join(cfg.FuseMembers, ", "), err)})
	}
}

// structuralDocument checks a raw XML document, attributing every finding
// to the offending element. It intentionally re-implements the shape
// checks rather than delegating to xmlio.Read, so one run reports every
// problem instead of the first.
func structuralDocument(rep *Report, doc *xmlio.Document, pos *xmlio.Positions, cfg Config) {
	if len(doc.Operators) == 0 {
		rep.add(Diagnostic{Code: CodeMalformed, Message: "document has no operators"})
		return
	}
	index := make(map[string]int, len(doc.Operators))
	kinds := make([]core.Kind, len(doc.Operators))
	for i, od := range doc.Operators {
		at := pos.Operator(i)
		if od.Name == "" {
			rep.addAt(at, Diagnostic{Code: CodeMalformed, Message: "operator without a name"})
		} else if _, dup := index[od.Name]; dup {
			rep.addAt(at, Diagnostic{Code: CodeMalformed, Operator: od.Name,
				Message: fmt.Sprintf("duplicate operator name %q", od.Name)})
		} else {
			index[od.Name] = i
		}
		kind, err := xmlio.ParseKind(od.Type)
		if err != nil {
			rep.addAt(at, Diagnostic{Code: CodeMalformed, Operator: od.Name,
				Message: fmt.Sprintf("operator %q: %v", od.Name, err)})
		}
		kinds[i] = kind
		if _, err := xmlio.ParseServiceTime(od.ServiceTime); err != nil {
			rep.addAt(at, Diagnostic{Code: CodeServiceTime, Operator: od.Name,
				Message: fmt.Sprintf("operator %q: %v", od.Name, err)})
		}
		checkDocSelectivity(rep, at, od.Name, "input selectivity", od.InputSelectivity)
		checkDocSelectivity(rep, at, od.Name, "output selectivity", od.OutputSelectivity)
		if kind == core.KindPartitionedStateful {
			checkDocKeys(rep, pos, i, od, cfg)
		}
		if od.Replicas < 0 {
			rep.addAt(at, Diagnostic{Code: CodeMalformed, Operator: od.Name,
				Message: fmt.Sprintf("operator %q has replica degree %d", od.Name, od.Replicas)})
		}
	}

	// Edges: validity, probability mass, and the adjacency for the graph
	// checks below.
	adj := make([][]int, len(doc.Operators))
	hasInput := make([]bool, len(doc.Operators))
	for i, od := range doc.Operators {
		sum := 0.0
		seenTargets := make(map[string]bool, len(od.Outputs))
		for j, out := range od.Outputs {
			at := pos.Output(i, j)
			ti, known := index[out.To]
			switch {
			case !known:
				rep.addAt(at, Diagnostic{Code: CodeMalformed, Operator: od.Name,
					Message: fmt.Sprintf("operator %q outputs to unknown %q", od.Name, out.To)})
			case out.To == od.Name:
				rep.addAt(at, Diagnostic{Code: CodeMalformed, Operator: od.Name,
					Message: fmt.Sprintf("self-loop on %q", od.Name)})
			case seenTargets[out.To]:
				rep.addAt(at, Diagnostic{Code: CodeMalformed, Operator: od.Name,
					Message: fmt.Sprintf("duplicate edge %q -> %q", od.Name, out.To)})
			default:
				seenTargets[out.To] = true
				adj[i] = append(adj[i], ti)
				hasInput[ti] = true
			}
			if !(out.Probability > 0) || out.Probability > 1+probTolerance {
				rep.addAt(at, Diagnostic{Code: CodeProbabilityMass, Operator: od.Name,
					Message: fmt.Sprintf("edge %q -> %q: probability %v outside (0, 1]", od.Name, out.To, out.Probability)})
			} else {
				sum += out.Probability
			}
		}
		if len(od.Outputs) > 0 && math.Abs(sum-1) > probTolerance {
			rep.addAt(pos.Operator(i), Diagnostic{Code: CodeProbabilityMass, Operator: od.Name,
				Message: fmt.Sprintf("output probabilities of %q sum to %v, want 1", od.Name, sum)})
		}
		if kinds[i] == core.KindSink && len(od.Outputs) > 0 {
			rep.addAt(pos.Operator(i), Diagnostic{Code: CodeMalformed, Operator: od.Name,
				Message: fmt.Sprintf("%q is a sink but has output edges", od.Name)})
		}
	}

	// Graph shape: single rooted source, source kind consistency.
	var roots []int
	for i := range doc.Operators {
		if !hasInput[i] {
			roots = append(roots, i)
		}
		if kinds[i] == core.KindSource && hasInput[i] {
			rep.addAt(pos.Operator(i), Diagnostic{Code: CodeMalformed, Operator: doc.Operators[i].Name,
				Message: fmt.Sprintf("%q is a source but has input edges", doc.Operators[i].Name)})
		}
	}
	switch {
	case len(roots) == 0:
		rep.add(Diagnostic{Code: CodeMalformed, Message: "no source: every operator has input edges"})
	case len(roots) > 1:
		names := make([]string, len(roots))
		for i, r := range roots {
			names[i] = doc.Operators[r].Name
		}
		rep.add(Diagnostic{Code: CodeMalformed,
			Message: fmt.Sprintf("multiple sources: %s (use a fictitious source to root multi-source graphs)", strings.Join(names, ", "))})
	default:
		if kinds[roots[0]] != 0 && kinds[roots[0]] != core.KindSource {
			rep.addAt(pos.Operator(roots[0]), Diagnostic{Code: CodeMalformed, Operator: doc.Operators[roots[0]].Name,
				Message: fmt.Sprintf("root %q has kind %s, want source", doc.Operators[roots[0]].Name, kinds[roots[0]])})
		}
	}

	// Cycles (Kahn) and reachability.
	if hasCycle(adj) && !cfg.AllowCycles {
		rep.add(Diagnostic{Code: CodeMalformed,
			Message: "topology has a cycle; pass allow-cycles to analyze feedback loops with the fixed-point solver"})
	}
	if len(roots) == 1 {
		reach := make([]bool, len(adj))
		reach[roots[0]] = true
		stack := []int{roots[0]}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !reach[w] {
					reach[w] = true
					stack = append(stack, w)
				}
			}
		}
		for i, ok := range reach {
			if !ok {
				rep.addAt(pos.Operator(i), Diagnostic{Code: CodeUnreachable, Operator: doc.Operators[i].Name,
					Message: fmt.Sprintf("%q is not reachable from the source", doc.Operators[i].Name)})
			}
		}
	}
}

func checkDocSelectivity(rep *Report, at xmlio.Pos, op, label string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		rep.addAt(at, Diagnostic{Code: CodeSelectivityRange, Operator: op,
			Message: fmt.Sprintf("operator %q: %s %v, must be a finite value >= 0", op, label, v)})
	}
}

func checkDocKeys(rep *Report, pos *xmlio.Positions, i int, od xmlio.OperatorDoc, cfg Config) {
	at := pos.Operator(i)
	freq := make([]float64, 0, len(od.Keys))
	keyAt := func(j int) xmlio.Pos { return pos.Key(i, j) }
	switch {
	case len(od.Keys) > 0 && od.KeysFile != "":
		rep.addAt(at, Diagnostic{Code: CodeKeyMass, Operator: od.Name,
			Message: fmt.Sprintf("operator %q: both inline keys and keysFile given", od.Name)})
		return
	case len(od.Keys) > 0:
		for _, k := range od.Keys {
			freq = append(freq, k.Frequency)
		}
	case od.KeysFile != "":
		if cfg.KeyLoader == nil {
			return // cannot resolve; xmlio.Read will if a loader exists
		}
		loaded, err := cfg.KeyLoader(od.KeysFile)
		if err != nil {
			rep.addAt(at, Diagnostic{Code: CodeKeyMass, Operator: od.Name,
				Message: fmt.Sprintf("operator %q: keysFile %q: %v", od.Name, od.KeysFile, err)})
			return
		}
		freq = loaded
		keyAt = func(int) xmlio.Pos { return at }
	default:
		rep.addAt(at, Diagnostic{Code: CodeKeyMass, Operator: od.Name,
			Message: fmt.Sprintf("partitioned-stateful operator %q has no key distribution", od.Name)})
		return
	}
	sum, bad := 0.0, false
	for j, f := range freq {
		if !(f > 0) || math.IsInf(f, 1) {
			rep.addAt(keyAt(j), Diagnostic{Code: CodeKeyMass, Operator: od.Name,
				Message: fmt.Sprintf("operator %q: key frequency %d is %v, must be a finite value > 0", od.Name, j, f)})
			bad = true
			continue
		}
		sum += f
	}
	if !bad && math.Abs(sum-1) > probTolerance {
		rep.addAt(at, Diagnostic{Code: CodeKeyMass, Operator: od.Name,
			Message: fmt.Sprintf("operator %q: key frequencies sum to %v, want 1", od.Name, sum)})
	}
}

// hasCycle runs Kahn's algorithm over the index adjacency.
func hasCycle(adj [][]int) bool {
	n := len(adj)
	indeg := make([]int, n)
	for _, outs := range adj {
		for _, w := range outs {
			indeg[w]++
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	done := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, w := range adj[v] {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	return done != n
}
