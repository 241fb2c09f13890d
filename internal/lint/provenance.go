package lint

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"spinstreams/internal/core"
)

// traceSchema is the rewrite-trace layout lint can replay. The JSON
// schema — not the opt package's Go types — is the contract here, so the
// mirror structs below decode only the fields replay needs and lint
// stays independent of the optimizer.
const traceSchema = "spinstreams/rewrite-trace/v1"

type traceDoc struct {
	Schema           string      `json:"schema"`
	Fingerprint      string      `json:"fingerprint"`
	FinalFingerprint string      `json:"final_fingerprint"`
	Passes           []tracePass `json:"passes"`
}

type tracePass struct {
	Pass    string      `json:"pass"`
	Skipped string      `json:"skipped"`
	Steps   []traceStep `json:"steps"`
}

type traceStep struct {
	Action      string   `json:"action"`
	Operator    string   `json:"operator"`
	Members     []string `json:"members"`
	Replicas    int      `json:"replicas"`
	ServiceTime float64  `json:"service_time"`
}

// replayTrace verifies cfg.Trace against t: the schema and input
// fingerprint must match, every recorded rewrite must still apply (in
// order, against the topology as rewritten so far), recomputed fusion
// service times must agree, and the final fingerprint must equal the
// replayed topology's. Every divergence is an SS2001 diagnostic.
func replayTrace(rep *Report, t *core.Topology, cfg Config) {
	var doc traceDoc
	if err := json.Unmarshal(cfg.Trace, &doc); err != nil {
		rep.add(Diagnostic{Code: CodeTraceReplay, Message: fmt.Sprintf("trace is not valid JSON: %v", err)})
		return
	}
	if doc.Schema != traceSchema {
		rep.add(Diagnostic{Code: CodeTraceReplay,
			Message: fmt.Sprintf("trace schema %q, want %q", doc.Schema, traceSchema)})
		return
	}
	if fp := fmt.Sprintf("%016x", t.Fingerprint()); doc.Fingerprint != fp {
		rep.add(Diagnostic{Code: CodeTraceReplay,
			Message: fmt.Sprintf("trace was recorded for topology %s, input is %s", doc.Fingerprint, fp)})
		return
	}
	cur := t.Clone()
	for _, p := range doc.Passes {
		for i, s := range p.Steps {
			if !replayStep(rep, &cur, cfg, p.Pass, i, s) {
				return
			}
		}
	}
	if doc.FinalFingerprint != "" {
		if fp := fmt.Sprintf("%016x", cur.Fingerprint()); doc.FinalFingerprint != fp {
			rep.add(Diagnostic{Code: CodeTraceReplay,
				Message: fmt.Sprintf("replayed topology fingerprint %s, trace records final %s", fp, doc.FinalFingerprint)})
			return
		}
	}
}

// replayStep applies (or checks) one step against *cur; it returns false
// when the replay cannot meaningfully continue.
func replayStep(rep *Report, cur **core.Topology, cfg Config, pass string, i int, s traceStep) bool {
	t := *cur
	lookup := func(name string) (core.OpID, bool) {
		id, ok := t.Lookup(name)
		if !ok {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: name,
				Message: fmt.Sprintf("%s step %d (%s) references unknown operator %q", pass, i, s.Action, name)})
		}
		return id, ok
	}
	switch s.Action {
	case "source-correction", "fission-reject", "replica-budget":
		_, ok := lookup(s.Operator)
		return ok
	case "fission":
		id, ok := lookup(s.Operator)
		if !ok {
			return false
		}
		op := t.Op(id)
		if !op.Kind.CanReplicate() {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
				Message: fmt.Sprintf("%s step %d records fission of %q, but its kind %s cannot be replicated", pass, i, s.Operator, op.Kind)})
			return false
		}
		if s.Replicas < 2 {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
				Message: fmt.Sprintf("%s step %d records fission of %q to %d replicas, want >= 2", pass, i, s.Operator, s.Replicas)})
		}
		return true
	case "fuse-reject":
		for _, m := range s.Members {
			if _, ok := lookup(m); !ok {
				return false
			}
		}
		return true
	case "live_apply":
		// A live reconfiguration step: the runtime rescaled an operator's
		// replicas or split a fused station back into its members while
		// the topology kept running. Live steps change the physical plan
		// only, so the replay checks them against the logical topology
		// without mutating it.
		id, ok := lookup(s.Operator)
		if !ok {
			return false
		}
		op := t.Op(id)
		if len(s.Members) > 0 {
			// Fusion undo: the operator must actually be a fused vertex
			// and the recorded members must be its members.
			if len(op.Fused) == 0 {
				rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
					Message: fmt.Sprintf("%s step %d records a live fusion undo of %q, which is not a fused operator", pass, i, s.Operator)})
				return false
			}
			fused := make(map[string]bool, len(op.Fused))
			for _, m := range op.Fused {
				fused[m] = true
			}
			for _, m := range s.Members {
				if !fused[m] {
					rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
						Message: fmt.Sprintf("%s step %d records live unfusing member %q, which %q does not contain", pass, i, m, s.Operator)})
				}
			}
			return true
		}
		if s.Replicas < 1 {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
				Message: fmt.Sprintf("%s step %d records a live rescale of %q to %d replicas, want >= 1", pass, i, s.Operator, s.Replicas)})
		}
		if s.Replicas > 1 && !op.Kind.CanReplicate() {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
				Message: fmt.Sprintf("%s step %d records a live rescale of %q to %d replicas, but its kind %s cannot be replicated", pass, i, s.Operator, s.Replicas, op.Kind)})
			return false
		}
		return true
	case "fuse":
		members := make([]core.OpID, 0, len(s.Members))
		for _, m := range s.Members {
			id, ok := lookup(m)
			if !ok {
				return false
			}
			members = append(members, id)
		}
		fused, report, err := core.Fuse(t, nil, members, s.Operator)
		if err != nil {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
				Message: fmt.Sprintf("%s step %d: fusing {%s} no longer applies: %v", pass, i, strings.Join(s.Members, ", "), err)})
			return false
		}
		if s.ServiceTime > 0 && !approxEqual(report.ServiceTime, s.ServiceTime) {
			rep.add(Diagnostic{Code: CodeTraceReplay, Operator: s.Operator,
				Message: fmt.Sprintf("%s step %d: recomputed service time of %q is %v, trace records %v", pass, i, s.Operator, report.ServiceTime, s.ServiceTime)})
		}
		*cur = fused
		return true
	default:
		rep.add(Diagnostic{Code: CodeTraceReplay,
			Message: fmt.Sprintf("%s step %d has unknown action %q", pass, i, s.Action)})
		return true
	}
}

// approxEqual compares recomputed model quantities against recorded
// ones; replay recomputes with the same code, so only serialization
// round-off is tolerated.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// CheckDrift validates that a drift report still describes the deployed
// topology: every measured station must exist, and the replica/profile
// vectors must be index-aligned with the operators. Mismatches — a
// topology redeployed since the report was measured — are SS2002
// diagnostics; opt.Reoptimize refuses such reports instead of computing
// a delta plan against the wrong graph.
func CheckDrift(t *core.Topology, stations []string, replicas []int, profiles int) []Diagnostic {
	var ds []Diagnostic
	for _, name := range stations {
		if _, ok := t.Lookup(name); !ok {
			ds = append(ds, Diagnostic{Code: CodeDriftMismatch, Severity: SeverityError, Operator: name,
				Message: fmt.Sprintf("drift report measures station %q, which the deployed topology does not contain", name)})
		}
	}
	if replicas != nil && len(replicas) != t.Len() {
		ds = append(ds, Diagnostic{Code: CodeDriftMismatch, Severity: SeverityError,
			Message: fmt.Sprintf("drift report carries %d replica degrees for %d operators", len(replicas), t.Len())})
	}
	if profiles != 0 && profiles != t.Len() {
		ds = append(ds, Diagnostic{Code: CodeDriftMismatch, Severity: SeverityError,
			Message: fmt.Sprintf("drift report carries %d measured profiles for %d operators", profiles, t.Len())})
	}
	return ds
}
