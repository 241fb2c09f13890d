package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
	"spinstreams/internal/stats"
)

// Fig9Row is one topology's bottleneck-elimination outcome (Figure 9a/9b).
type Fig9Row struct {
	Topology           int
	Operators          int
	AdditionalReplicas int
	Predicted          float64
	Measured           float64
	RelErr             float64
	// Ideal reports whether the parallelized topology reaches the
	// source's generation rate (all bottlenecks removed).
	Ideal bool
	// StatefulBlocked reports that a non-replicable stateful operator
	// still limits throughput.
	StatefulBlocked bool
	// SkewBlocked reports that a partitioned-stateful operator remains a
	// bottleneck because its key skew prevents an even split (the paper's
	// "mitigated but not removed" case).
	SkewBlocked bool
}

// Fig9Result reproduces Figures 9a and 9b: the parallelism added by the
// bottleneck-elimination phase and the model accuracy on the parallelized
// topologies. The paper reaches ideal throughput on 43/50 topologies, with
// 7 blocked by stateful operators.
type Fig9Result struct {
	Rows            []Fig9Row
	Ideal           int
	StatefulBlocked int
	SkewBlocked     int
	ErrStat         stats.Summary
}

// fig9 runs Algorithm 2 on the testbed and simulates the parallelized
// topologies.
func fig9(s setup) (*Fig9Result, error) {
	s = s.withDefaults()
	bed, err := buildTestbed(s)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	errs := make([]float64, 0, len(bed))
	for i, g := range bed {
		fis, err := core.EliminateBottlenecks(g.Topology, core.FissionOptions{})
		if err != nil {
			return nil, fmt.Errorf("fig9 topology %d: %w", i+1, err)
		}
		sim, err := qsim.SimulateTopology(g.Topology, fis.Analysis.Replicas, s.simConfig(i))
		if err != nil {
			return nil, fmt.Errorf("fig9 topology %d: %w", i+1, err)
		}
		srcRate := g.Topology.Op(g.Topology.Source()).Rate()
		row := Fig9Row{
			Topology:           i + 1,
			Operators:          g.Topology.Len(),
			AdditionalReplicas: fis.AdditionalReplicas,
			Predicted:          fis.Analysis.Throughput(),
			Measured:           sim.Throughput,
			RelErr:             stats.RelErr(sim.Throughput, fis.Analysis.Throughput()),
			Ideal:              fis.Analysis.Throughput() >= 0.999*srcRate,
		}
		for _, u := range fis.Unresolved {
			if g.Topology.Op(u).Kind.CanReplicate() {
				row.SkewBlocked = true
			} else {
				row.StatefulBlocked = true
			}
		}
		if row.Ideal {
			res.Ideal++
		}
		if row.StatefulBlocked {
			res.StatefulBlocked++
		}
		if row.SkewBlocked {
			res.SkewBlocked++
		}
		res.Rows = append(res.Rows, row)
		errs = append(errs, row.RelErr)
	}
	res.ErrStat = stats.Summarize(errs)
	return res, nil
}

// String renders the Figure 9 series.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9 — bottleneck elimination (per topology)\n")
	b.WriteString("topology  ops  add.replicas  predicted(t/s)  measured(t/s)  rel.err  ideal  stateful-blocked\n")
	for _, row := range r.Rows {
		blocked := "-"
		switch {
		case row.StatefulBlocked && row.SkewBlocked:
			blocked = "stateful+skew"
		case row.StatefulBlocked:
			blocked = "stateful"
		case row.SkewBlocked:
			blocked = "key-skew"
		}
		fmt.Fprintf(&b, "%8d  %3d  %12d  %14.1f  %13.1f  %6.2f%%  %5v  %s\n",
			row.Topology, row.Operators, row.AdditionalReplicas,
			row.Predicted, row.Measured, row.RelErr*100, row.Ideal, blocked)
	}
	fmt.Fprintf(&b, "ideal throughput reached: %d/%d; stateful-blocked: %d; skew-blocked: %d; mean model error %.2f%%\n",
		r.Ideal, len(r.Rows), r.StatefulBlocked, r.SkewBlocked, r.ErrStat.Mean*100)
	return b.String()
}

// Fig10Row is one (topology, bound) measurement of the hold-off
// replication experiment.
type Fig10Row struct {
	Topology  int
	Bound     int // 0 = original topology, -1 = unbounded
	Replicas  int
	Predicted float64
	Measured  float64
}

// Fig10Result reproduces Figure 10: throughput under replica budgets
// (bounds 30/35/40 and unbounded) on three topologies, showing
// proportional de-scaling.
type Fig10Result struct {
	Rows   []Fig10Row
	Bounds []int
}

// fig10 sweeps replica budgets over the first three testbed topologies
// with enough parallelism demand to make the bounds bind.
func fig10(s setup) (*Fig10Result, error) {
	s = s.withDefaults()
	if s.Topo.ServiceTimeMax == 0 {
		// Stretch the service-time spread so optimal degrees are large
		// enough (the paper's bounds go up to 40 replicas).
		s.Topo.ServiceTimeMax = 40e-3
	}
	bed, err := buildTestbed(s)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Bounds: []int{30, 35, 40}}
	picked := 0
	for i, g := range bed {
		if picked >= 3 {
			break
		}
		unbounded, err := core.EliminateBottlenecks(g.Topology, core.FissionOptions{})
		if err != nil {
			return nil, fmt.Errorf("fig10 topology %d: %w", i+1, err)
		}
		// Only topologies whose unbounded optimum exceeds the largest
		// bound show de-scaling.
		if unbounded.TotalReplicas <= res.Bounds[len(res.Bounds)-1] {
			continue
		}
		picked++
		// Original topology (no added parallelism).
		base, err := core.SteadyState(g.Topology)
		if err != nil {
			return nil, err
		}
		simBase, err := qsim.SimulateTopology(g.Topology, nil, s.simConfig(i))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig10Row{
			Topology: picked, Bound: 0, Replicas: g.Topology.Len(),
			Predicted: base.Throughput(), Measured: simBase.Throughput,
		})
		for _, bound := range res.Bounds {
			fis, err := core.EliminateBottlenecks(g.Topology, core.FissionOptions{MaxReplicas: bound})
			if err != nil {
				return nil, err
			}
			sim, err := qsim.SimulateTopology(g.Topology, fis.Analysis.Replicas, s.simConfig(i))
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Fig10Row{
				Topology: picked, Bound: bound, Replicas: fis.TotalReplicas,
				Predicted: fis.Analysis.Throughput(), Measured: sim.Throughput,
			})
		}
		sim, err := qsim.SimulateTopology(g.Topology, unbounded.Analysis.Replicas, s.simConfig(i))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig10Row{
			Topology: picked, Bound: -1, Replicas: unbounded.TotalReplicas,
			Predicted: unbounded.Analysis.Throughput(), Measured: sim.Throughput,
		})
	}
	if picked == 0 {
		return nil, fmt.Errorf("fig10: no testbed topology needs more than %d replicas; enlarge the testbed", res.Bounds[len(res.Bounds)-1])
	}
	return res, nil
}

// String renders the Figure 10 bars.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10 — throughput under replica budgets\n")
	b.WriteString("topology  bound      replicas  predicted(t/s)  measured(t/s)\n")
	for _, row := range r.Rows {
		bound := "original"
		switch {
		case row.Bound > 0:
			bound = fmt.Sprintf("%d", row.Bound)
		case row.Bound < 0:
			bound = "unbounded"
		}
		fmt.Fprintf(&b, "%8d  %-9s  %8d  %14.1f  %13.1f\n",
			row.Topology, bound, row.Replicas, row.Predicted, row.Measured)
	}
	return b.String()
}
