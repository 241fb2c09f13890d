// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 5), built on the shared testbed of random
// topologies. Each driver returns a result struct whose String method
// renders the same rows/series the paper reports. Drivers are reached only
// through the scenario registry (register.go); cmd/ssbench regenerates
// everything from it and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/stats"
)

// setup configures the shared testbed and measurement substrate.
type setup struct {
	// Seed derives the testbed (paper: 50 random topologies).
	Seed uint64
	// Topologies is the testbed size (default 50).
	Topologies int
	// Sim configures the discrete-event measurements; the zero value uses
	// qsim defaults (exponential service, 40 simulated seconds).
	Sim qsim.Config
	// Topo configures topology generation; zero value uses the paper's
	// parameters.
	Topo randtopo.Config
}

func (s setup) withDefaults() setup {
	if s.Topologies <= 0 {
		s.Topologies = 50
	}
	if s.Topo.Seed == 0 {
		s.Topo.Seed = s.Seed
	}
	return s
}

// buildTestbed generates the testbed once.
func buildTestbed(s setup) ([]*randtopo.Generated, error) {
	return randtopo.Testbed(s.Topo, s.Topologies)
}

func (s setup) simConfig(i int) qsim.Config {
	cfg := s.Sim
	cfg.Seed = s.Seed*1_000_003 + uint64(i)
	return cfg
}

// Fig7Row is one topology's predicted-vs-measured throughput (Figure 7).
type Fig7Row struct {
	Topology  int
	Operators int
	Predicted float64
	Measured  float64
	RelErr    float64
}

// Fig7Result reproduces Figures 7a and 7b: accuracy of the backpressure
// model on the non-optimized testbed.
type Fig7Result struct {
	Rows    []Fig7Row
	ErrStat stats.Summary
}

// fig7 runs the steady-state prediction and the simulation for every
// testbed topology.
func fig7(s setup) (*Fig7Result, error) {
	s = s.withDefaults()
	bed, err := buildTestbed(s)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	errs := make([]float64, 0, len(bed))
	for i, g := range bed {
		a, err := core.SteadyState(g.Topology)
		if err != nil {
			return nil, fmt.Errorf("fig7 topology %d: %w", i+1, err)
		}
		sim, err := qsim.SimulateTopology(g.Topology, nil, s.simConfig(i))
		if err != nil {
			return nil, fmt.Errorf("fig7 topology %d: %w", i+1, err)
		}
		relErr := stats.RelErr(sim.Throughput, a.Throughput())
		res.Rows = append(res.Rows, Fig7Row{
			Topology:  i + 1,
			Operators: g.Topology.Len(),
			Predicted: a.Throughput(),
			Measured:  sim.Throughput,
			RelErr:    relErr,
		})
		errs = append(errs, relErr)
	}
	res.ErrStat = stats.Summarize(errs)
	return res, nil
}

// String renders the Figure 7 series.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 — accuracy of the backpressure model (per topology)\n")
	b.WriteString("topology  ops  predicted(t/s)  measured(t/s)  rel.err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %3d  %14.1f  %13.1f  %6.2f%%\n",
			row.Topology, row.Operators, row.Predicted, row.Measured, row.RelErr*100)
	}
	fmt.Fprintf(&b, "mean error %.2f%%  (stddev %.2f%%, max %.2f%%)\n",
		r.ErrStat.Mean*100, r.ErrStat.StdDev*100, r.ErrStat.Max*100)
	return b.String()
}

// Fig8Result reproduces Figure 8: the per-operator departure-rate
// prediction error over every operator of the testbed.
type Fig8Result struct {
	// Errors holds one relative error per operator across all topologies.
	Errors []float64
	// Operators counts them (paper: 678).
	Operators int
	// Above20 counts operators with error above 20% (paper: a few, all on
	// low-probability paths still far from steady state).
	Above20 int
	ErrStat stats.Summary
}

// fig8 compares predicted and measured departure rates operator by
// operator.
func fig8(s setup) (*Fig8Result, error) {
	s = s.withDefaults()
	bed, err := buildTestbed(s)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for i, g := range bed {
		a, err := core.SteadyState(g.Topology)
		if err != nil {
			return nil, fmt.Errorf("fig8 topology %d: %w", i+1, err)
		}
		sim, err := qsim.SimulateTopology(g.Topology, nil, s.simConfig(i))
		if err != nil {
			return nil, fmt.Errorf("fig8 topology %d: %w", i+1, err)
		}
		for op := 0; op < g.Topology.Len(); op++ {
			res.Errors = append(res.Errors, stats.RelErr(sim.Departure[op], a.Delta[op]))
		}
	}
	res.Operators = len(res.Errors)
	for _, e := range res.Errors {
		if e > 0.20 {
			res.Above20++
		}
	}
	res.ErrStat = stats.Summarize(res.Errors)
	return res, nil
}

// String renders the Figure 8 summary.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8 — per-operator departure-rate prediction error\n")
	fmt.Fprintf(&b, "operators: %d\n", r.Operators)
	fmt.Fprintf(&b, "mean error %.2f%%  stddev %.2f%%  p50 %.2f%%  p90 %.2f%%  p99 %.2f%%  max %.2f%%\n",
		r.ErrStat.Mean*100, r.ErrStat.StdDev*100, r.ErrStat.P50*100,
		r.ErrStat.P90*100, r.ErrStat.P99*100, r.ErrStat.Max*100)
	fmt.Fprintf(&b, "operators above 20%% error: %d\n", r.Above20)
	return b.String()
}
