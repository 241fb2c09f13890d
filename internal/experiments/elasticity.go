package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/plan"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
)

// ElasticStep records one reconfiguration round of the reactive baseline.
type ElasticStep struct {
	// Round is the reconfiguration index (0 = initial deployment).
	Round int
	// TotalReplicas after this round's scaling decisions.
	TotalReplicas int
	// Throughput measured during this round's observation interval.
	Throughput float64
}

// ElasticityResult compares the paper's static one-shot optimization
// against a reactive elastic controller — the "joint combination of static
// and dynamic optimizations" the paper leaves as future work (Section 7).
// The reactive baseline mimics threshold-based elasticity supports: deploy
// with one replica everywhere, observe an interval, add a replica to every
// saturated operator, repeat. The static tool reaches the same
// configuration in zero reconfigurations because the cost model predicts
// the optimum before deployment.
type ElasticityResult struct {
	// StaticThroughput is the simulator-measured throughput of the static
	// optimizer's one-shot configuration.
	StaticThroughput float64
	// StaticReplicas is the static configuration's total replica count.
	StaticReplicas int
	// Steps traces the reactive controller.
	Steps []ElasticStep
	// Reconfigurations counts the reactive rounds that changed the
	// topology (each implies an operator restart / state migration in a
	// real SPS).
	Reconfigurations int
	// ElasticThroughput is the reactive controller's final measured
	// throughput; ElasticReplicas its final replica count.
	ElasticThroughput float64
	ElasticReplicas   int
	// IntervalSeconds is the observation interval per round, so the
	// reactive time-to-converge is Reconfigurations * IntervalSeconds.
	IntervalSeconds float64
}

// elasticityOptions tunes the comparison.
type elasticityOptions struct {
	// Interval is the simulated observation window per reactive round
	// (default 10 s).
	Interval float64
	// MaxRounds bounds the reactive controller (default 50).
	MaxRounds int
}

// elasticHighWatermark is the per-replica busy fraction that triggers the
// reactive controller's scale-up.
const elasticHighWatermark = 0.9

// elasticity runs the comparison on the setup seed's random topology.
func elasticity(s setup, opts elasticityOptions) (*ElasticityResult, error) {
	s = s.withDefaults()
	if opts.Interval <= 0 {
		opts.Interval = 10
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 50
	}
	cfg := s.Topo
	cfg.Seed = s.Seed
	g, err := randtopo.Generate(cfg)
	if err != nil {
		return nil, err
	}
	t := g.Topology

	// Static: one-shot model-driven configuration.
	fis, err := core.EliminateBottlenecks(t, core.FissionOptions{})
	if err != nil {
		return nil, err
	}
	simCfg := s.simConfig(0)
	simCfg.Horizon = opts.Interval * 2
	static, err := qsim.SimulateTopology(t, fis.Analysis.Replicas, simCfg)
	if err != nil {
		return nil, err
	}
	res := &ElasticityResult{
		StaticThroughput: static.Throughput,
		StaticReplicas:   fis.TotalReplicas,
		IntervalSeconds:  opts.Interval,
	}

	// Reactive: threshold-based scale-up loop.
	replicas := make([]int, t.Len())
	for i := range replicas {
		replicas[i] = 1
	}
	for round := 0; round <= opts.MaxRounds; round++ {
		roundCfg := s.simConfig(round + 1)
		roundCfg.Horizon = opts.Interval
		roundCfg.Warmup = opts.Interval / 4
		sim, err := qsim.SimulateTopology(t, replicas, roundCfg)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, n := range replicas {
			total += n
		}
		res.Steps = append(res.Steps, ElasticStep{
			Round:         round,
			TotalReplicas: total,
			Throughput:    sim.Throughput,
		})
		res.ElasticThroughput = sim.Throughput
		res.ElasticReplicas = total

		// Scale every saturated replicable operator by one replica.
		hot := map[core.OpID]bool{}
		for _, st := range sim.Stations {
			if st.Role != plan.RoleWorker && st.Role != plan.RoleSource {
				continue
			}
			op := t.Op(st.Op)
			if op.Kind.CanReplicate() && st.BusyFrac >= elasticHighWatermark {
				hot[st.Op] = true
			}
		}
		if len(hot) == 0 {
			break
		}
		for id := range hot {
			replicas[id]++
		}
		res.Reconfigurations++
	}
	return res, nil
}

// String renders the comparison.
func (r *ElasticityResult) String() string {
	var b strings.Builder
	b.WriteString("Static one-shot optimization vs reactive elasticity\n")
	fmt.Fprintf(&b, "static: %d replicas, %.1f t/s, 0 reconfigurations\n",
		r.StaticReplicas, r.StaticThroughput)
	b.WriteString("reactive rounds:\n  round  replicas  throughput(t/s)\n")
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %5d  %8d  %15.1f\n", s.Round, s.TotalReplicas, s.Throughput)
	}
	fmt.Fprintf(&b, "reactive: %d replicas, %.1f t/s after %d reconfigurations (~%.0f s of adaptation)\n",
		r.ElasticReplicas, r.ElasticThroughput, r.Reconfigurations,
		float64(r.Reconfigurations)*r.IntervalSeconds)
	ratio := 0.0
	if r.StaticThroughput > 0 {
		ratio = r.ElasticThroughput / r.StaticThroughput
	}
	fmt.Fprintf(&b, "reactive/static throughput ratio: %.2f\n", ratio)
	return b.String()
}

// Header implements Tabular.
func (r *ElasticityResult) Header() []string {
	return []string{"round", "replicas", "throughput"}
}

// TableRows implements Tabular.
func (r *ElasticityResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Steps))
	for _, s := range r.Steps {
		rows = append(rows, []string{d(s.Round), d(s.TotalReplicas), f(s.Throughput)})
	}
	return rows
}
