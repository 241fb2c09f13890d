package lint

import (
	"fmt"

	"spinstreams/internal/core"
)

// costModel dry-runs the steady-state solver and flags configurations
// the optimizer cannot rescue: non-convergent feedback traffic (SS1101)
// and saturation that fission cannot unblock (SS1102). It only runs on
// structurally clean topologies.
func costModel(rep *Report, t *core.Topology) {
	if _, err := t.TopologicalOrder(); err != nil {
		// Feedback edges: the fixed-point traffic equations are the only
		// analysis. Divergence means the cycle re-injects at least as much
		// traffic as it consumes — no static remedy exists.
		if _, err := core.SteadyStateCyclic(t); err != nil {
			rep.add(Diagnostic{Code: CodeNonConvergent,
				Message: fmt.Sprintf("cyclic steady-state analysis failed: %v (a feedback loop re-injects >= 1 item per item entering it)", err)})
		}
		return
	}
	a, err := core.SteadyState(t)
	if err != nil {
		rep.add(Diagnostic{Code: CodeNonConvergent,
			Message: fmt.Sprintf("steady-state analysis failed: %v", err)})
		return
	}
	rep.Analysis = a
	// Theorem 3.2 corrections mark the bottlenecks: each correction is an
	// operator that saturated and forced the source rate down. Fission
	// fixes replicable kinds; for the rest the saturation is permanent.
	seen := make(map[core.OpID]bool, len(a.Corrections))
	for _, c := range a.Corrections {
		if seen[c.Op] {
			continue
		}
		seen[c.Op] = true
		op := t.Op(c.Op)
		switch {
		case !op.Kind.CanReplicate():
			rep.add(Diagnostic{Code: CodeSaturatedNoRemedy, Operator: op.Name,
				Message: fmt.Sprintf("%q (%s) saturates at rho %.3f and its kind cannot be replicated; only fusion-undo or a faster implementation can recover throughput", op.Name, op.Kind, c.Rho)})
		case op.Kind == core.KindPartitionedStateful && op.Keys != nil:
			pmax := 0.0
			for _, f := range op.Keys.Freq {
				if f > pmax {
					pmax = f
				}
			}
			// The most loaded replica serves at least the most frequent
			// key, so fission cannot push utilization below rho*pmax.
			if c.Rho*pmax >= 1 {
				rep.add(Diagnostic{Code: CodeSaturatedNoRemedy, Operator: op.Name,
					Message: fmt.Sprintf("%q saturates at rho %.3f and its most frequent key carries %.1f%% of the load: even maximal fission leaves a replica at rho >= %.3f", op.Name, c.Rho, pmax*100, c.Rho*pmax)})
			}
		}
	}
}
