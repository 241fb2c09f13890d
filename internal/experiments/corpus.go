package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/plan"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/stats"
)

// CorpusOptions tunes the Section 5 corpus runner.
type CorpusOptions struct {
	// Topologies is the corpus size (paper: 50).
	Topologies int
	// Workloads selects the traffic shapes (default steady, bursty,
	// diurnal, hotkey; see workloadByName).
	Workloads []string
	// Modes selects the optimization modes (default unopt, static,
	// autotune).
	Modes []string
	// Rounds bounds the autotune hill-climb (default 8 measurement
	// rounds beyond the initial deployment).
	Rounds int
	// Horizon is the simulated seconds per measurement (default 12; the
	// full-accuracy figures use 40, the corpus trades some variance for
	// a 3x larger scenario matrix).
	Horizon float64
}

func (o CorpusOptions) withDefaults() CorpusOptions {
	if o.Topologies <= 0 {
		o.Topologies = 50
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"steady", "bursty", "diurnal", "hotkey"}
	}
	if len(o.Modes) == 0 {
		o.Modes = []string{"unopt", "static", "autotune"}
	}
	if o.Rounds <= 0 {
		o.Rounds = 8
	}
	if o.Horizon <= 0 {
		o.Horizon = 12
	}
	return o
}

// CorpusRow is one (topology, workload, mode) measurement.
type CorpusRow struct {
	// Topology is the 1-based corpus index; Seed regenerates the exact
	// instance and Fingerprint (core.Topology.Fingerprint, hex) makes
	// reruns comparable without regenerating.
	Topology    int
	Seed        uint64
	Fingerprint string
	Operators   int
	Edges       int
	Workload    string
	// Mode is unopt (1 replica everywhere), static (Algorithm 2 on the
	// declared profiles) or autotune (measure/rescale feedback loop on
	// the deployed reality).
	Mode string
	// Replicas counts deployed worker stations (after any keypart
	// consolidation), the cost side of the comparison.
	Replicas int
	// Rounds is the number of adaptation measurements autotune consumed
	// (0 for the one-shot modes).
	Rounds int
	// Predicted is the model's throughput for this deployment under the
	// workload (predictThroughput); Measured is the simulated one.
	Predicted float64
	Measured  float64
	RelErr    float64
	// VsStatic is Measured divided by the static mode's Measured for the
	// same topology and workload — the static-vs-autotune (and
	// static-vs-unopt) comparison column. 1 on the static rows.
	VsStatic float64
}

// CorpusWorkloadSummary aggregates one workload across the corpus.
type CorpusWorkloadSummary struct {
	Workload string
	// StaticGEUnopt is the fraction of topologies where the statically
	// optimized deployment is at least as fast as the unoptimized one
	// (within 2% simulation noise) — the paper's ordering.
	StaticGEUnopt float64
	// AutotuneVsStatic is the mean autotune/static measured-throughput
	// ratio; AutotuneReplicaRatio the mean autotune/static replica-count
	// ratio (the elasticity cost axis).
	AutotuneVsStatic     float64
	AutotuneReplicaRatio float64
	// ModelErr is the mean |measured-predicted| relative error across
	// all modes of this workload.
	ModelErr float64
}

// CorpusResult is the full corpus run.
type CorpusResult struct {
	Options   CorpusOptions
	TestSeed  uint64
	Rows      []CorpusRow
	Summaries []CorpusWorkloadSummary
}

// corpusSeed derives a deterministic sub-seed from the run seed and a
// label, so every simulation is independently seeded yet reproducible.
func corpusSeed(base uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", base, label)
	return h.Sum64()
}

// countWorkers counts deployed worker stations — the replica cost of a
// configuration after any keypart consolidation.
func countWorkers(r *qsim.Result) int {
	n := 0
	for _, st := range r.Stations {
		if st.Role == plan.RoleWorker {
			n++
		}
	}
	return n
}

// corpus reproduces the paper's Section 5 testbed at scale: every seeded
// Algorithm 5 topology runs under every workload shape in every
// optimization mode, on the deterministic simulator.
func corpus(ctx context.Context, s setup, opts CorpusOptions) (*CorpusResult, error) {
	s = s.withDefaults()
	opts = opts.withDefaults()
	cfg := s.Topo
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	bed, err := randtopo.Testbed(cfg, opts.Topologies)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	workloads := make([]Workload, 0, len(opts.Workloads))
	for _, name := range opts.Workloads {
		w, err := workloadByName(name)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		workloads = append(workloads, w)
	}
	for _, m := range opts.Modes {
		switch m {
		case "unopt", "static", "autotune":
		default:
			return nil, fmt.Errorf("corpus: unknown mode %q (have unopt, static, autotune)", m)
		}
	}

	res := &CorpusResult{Options: opts, TestSeed: s.Seed}
	for ti, g := range bed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		declared := g.Topology
		fp := fmt.Sprintf("%016x", declared.Fingerprint())
		staticReplicas, err := staticPlan(declared)
		if err != nil {
			return nil, fmt.Errorf("corpus topology %d: %w", ti+1, err)
		}
		for _, w := range workloads {
			deployed := w.Apply(declared)
			simCfg := func(label string) qsim.Config {
				c := s.Sim
				c.Horizon = opts.Horizon
				c.Warmup = 0 // withDefaults picks Horizon/4
				c.Seed = corpusSeed(s.Seed, fmt.Sprintf("t%d|%s|%s", ti+1, w.Name, label))
				c.RateEnvelope = w.Envelope
				return c
			}
			measured := map[string]float64{}
			for _, mode := range opts.Modes {
				var (
					replicas []int
					rounds   int
					sim      *qsim.Result
				)
				switch mode {
				case "unopt":
					sim, err = qsim.SimulateTopology(deployed, nil, simCfg("unopt"))
				case "static":
					// The static tool plans on the declared profiles; the
					// workload's reality (skewed keys, modulated rates) is
					// invisible to it.
					replicas = staticReplicas
					sim, err = qsim.SimulateTopology(deployed, replicas, simCfg("static"))
				case "autotune":
					replicas, rounds, sim, err = autotuneCorpus(deployed, w, simCfg, opts.Rounds)
				}
				if err != nil {
					return nil, fmt.Errorf("corpus topology %d %s/%s: %w", ti+1, w.Name, mode, err)
				}
				predicted, err := predictThroughput(declared, replicas, w, simCfg("predict"))
				if err != nil {
					return nil, fmt.Errorf("corpus topology %d %s/%s predict: %w", ti+1, w.Name, mode, err)
				}
				res.Rows = append(res.Rows, CorpusRow{
					Topology:    ti + 1,
					Seed:        g.Seed,
					Fingerprint: fp,
					Operators:   declared.Len(),
					Edges:       declared.NumEdges(),
					Workload:    w.Name,
					Mode:        mode,
					Replicas:    countWorkers(sim),
					Rounds:      rounds,
					Predicted:   predicted,
					Measured:    sim.Throughput,
					RelErr:      stats.RelErr(sim.Throughput, predicted),
				})
				measured[mode] = sim.Throughput
			}
			// Fill the comparison column once the static reference exists.
			if ref, ok := measured["static"]; ok && ref > 0 {
				for i := len(res.Rows) - 1; i >= 0; i-- {
					row := &res.Rows[i]
					if row.Topology != ti+1 || row.Workload != w.Name {
						break
					}
					row.VsStatic = row.Measured / ref
				}
			}
		}
	}
	res.summarize()
	return res, nil
}

// staticPlan is the paper's one-shot static optimization: Algorithm 2 on
// the declared profiles.
func staticPlan(declared *core.Topology) ([]int, error) {
	fis, err := core.EliminateBottlenecks(declared, core.FissionOptions{})
	if err != nil {
		return nil, err
	}
	return fis.Analysis.Replicas, nil
}

// autotuneCorpus is the simulated analogue of the live
// runtime.Controller.Autotune loop: deploy with one replica everywhere,
// measure a window, scale up saturated replicable operators and release
// idle replicas, and keep a change only if the next window does not
// regress — a deterministic hill-climb on measured busy fractions that
// sees the deployed reality (hot keys, modulated arrivals) the static
// planner cannot.
func autotuneCorpus(deployed *core.Topology, w Workload, simCfg func(string) qsim.Config, rounds int) ([]int, int, *qsim.Result, error) {
	n := deployed.Len()
	cur := make([]int, n)
	for i := range cur {
		cur[i] = 1
	}
	curSim, err := qsim.SimulateTopology(deployed, cur, simCfg("autotune0"))
	if err != nil {
		return nil, 0, nil, err
	}
	used := 1
	frozen := make([]bool, n)
	const (
		saturated     = 0.95 // backpressure hides true demand: double
		highWatermark = 0.85
		lowWatermark  = 0.30
		target        = 0.7 // per-replica utilization the sizing aims at
		maxReplicas   = 64
	)
	for r := 1; r <= rounds; r++ {
		// Per-operator replica saturation: the busiest worker of the
		// operator (emitters/collectors pace routing, not service).
		busy := make([]float64, n)
		for _, st := range curSim.Stations {
			if st.Role != plan.RoleWorker {
				continue
			}
			if st.BusyFrac > busy[st.Op] {
				busy[st.Op] = st.BusyFrac
			}
		}
		next := append([]int(nil), cur...)
		var touched []int
		for i := 0; i < n; i++ {
			op := deployed.Op(core.OpID(i))
			if frozen[i] || op.Kind == core.KindSource || !op.Kind.CanReplicate() {
				continue
			}
			sized := int(math.Ceil(float64(cur[i]) * busy[i] / target))
			switch {
			case busy[i] >= saturated:
				// A saturated replica set measures busy ~= 1 whatever the
				// real demand, so grow multiplicatively (slow-start) until
				// a measurement shows headroom.
				next[i] = cur[i] * 2
			case busy[i] >= highWatermark && sized > cur[i]:
				next[i] = sized
			case busy[i] <= lowWatermark && cur[i] > 1:
				if sized < 1 {
					sized = 1
				}
				next[i] = sized
			}
			if next[i] > maxReplicas {
				next[i] = maxReplicas
			}
			if next[i] != cur[i] {
				touched = append(touched, i)
			}
		}
		if len(touched) == 0 {
			break
		}
		nextSim, err := qsim.SimulateTopology(deployed, next, simCfg(fmt.Sprintf("autotune%d", r)))
		if err != nil {
			return nil, 0, nil, err
		}
		used++
		if nextSim.Throughput >= curSim.Throughput*0.99 {
			cur, curSim = next, nextSim
		} else {
			// The change regressed (typically a pmax-bound hot key that
			// extra replicas cannot help): keep the old configuration and
			// stop touching those operators.
			for _, i := range touched {
				frozen[i] = true
			}
		}
	}
	return cur, used, curSim, nil
}

// summarize fills the per-workload aggregates from the rows.
func (r *CorpusResult) summarize() {
	type acc struct {
		topos                        map[int][3]float64 // mode -> throughput (unopt, static, autotune)
		modelErrSum                  float64
		modelErrN                    int
		replicasStatic, replicasAuto map[int]int
	}
	index := map[string]int{"unopt": 0, "static": 1, "autotune": 2}
	accs := map[string]*acc{}
	order := []string{}
	for _, row := range r.Rows {
		a, ok := accs[row.Workload]
		if !ok {
			a = &acc{topos: map[int][3]float64{}, replicasStatic: map[int]int{}, replicasAuto: map[int]int{}}
			accs[row.Workload] = a
			order = append(order, row.Workload)
		}
		t := a.topos[row.Topology]
		t[index[row.Mode]] = row.Measured
		a.topos[row.Topology] = t
		a.modelErrSum += row.RelErr
		a.modelErrN++
		switch row.Mode {
		case "static":
			a.replicasStatic[row.Topology] = row.Replicas
		case "autotune":
			a.replicasAuto[row.Topology] = row.Replicas
		}
	}
	for _, w := range order {
		a := accs[w]
		sum := CorpusWorkloadSummary{Workload: w}
		nOrder, nRatio, nReps := 0, 0, 0
		var ratioSum, repsSum float64
		for topo := 1; topo <= len(a.topos); topo++ {
			t, ok := a.topos[topo]
			if !ok {
				continue
			}
			unopt, static, auto := t[0], t[1], t[2]
			if unopt > 0 && static > 0 {
				nOrder++
				if static >= unopt*0.98 {
					sum.StaticGEUnopt++
				}
			}
			if static > 0 && auto > 0 {
				nRatio++
				ratioSum += auto / static
			}
			if rs, ra := a.replicasStatic[topo], a.replicasAuto[topo]; rs > 0 && ra > 0 {
				nReps++
				repsSum += float64(ra) / float64(rs)
			}
		}
		if nOrder > 0 {
			sum.StaticGEUnopt /= float64(nOrder)
		}
		if nRatio > 0 {
			sum.AutotuneVsStatic = ratioSum / float64(nRatio)
		}
		if nReps > 0 {
			sum.AutotuneReplicaRatio = repsSum / float64(nReps)
		}
		if a.modelErrN > 0 {
			sum.ModelErr = a.modelErrSum / float64(a.modelErrN)
		}
		r.Summaries = append(r.Summaries, sum)
	}
}

// String renders the corpus aggregates (the full matrix goes to CSV/JSON).
func (r *CorpusResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5 corpus — %d topologies x %d workloads x %d modes (seed %d, horizon %.0fs)\n",
		r.Options.Topologies, len(r.Options.Workloads), len(r.Options.Modes), r.TestSeed, r.Options.Horizon)
	b.WriteString("workload  static>=unopt  autotune/static(tps)  autotune/static(replicas)  model-err\n")
	for _, s := range r.Summaries {
		fmt.Fprintf(&b, "%-8s  %12.0f%%  %20.3f  %25.3f  %8.2f%%\n",
			s.Workload, s.StaticGEUnopt*100, s.AutotuneVsStatic, s.AutotuneReplicaRatio, s.ModelErr*100)
	}
	fmt.Fprintf(&b, "%d result rows\n", len(r.Rows))
	return b.String()
}

// Header implements Tabular.
func (r *CorpusResult) Header() []string {
	return []string{"topology", "seed", "fingerprint", "operators", "edges", "workload",
		"mode", "replicas", "rounds", "predicted", "measured", "rel_err", "vs_static"}
}

// TableRows implements Tabular.
func (r *CorpusResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(row.Topology), fmt.Sprintf("%d", row.Seed), row.Fingerprint,
			d(row.Operators), d(row.Edges), row.Workload, row.Mode,
			d(row.Replicas), d(row.Rounds), f(row.Predicted), f(row.Measured),
			f(row.RelErr), f(row.VsStatic),
		})
	}
	return rows
}

// checkCorpus asserts the paper's ordering on the corpus result: on the
// steady workload the statically optimized deployment must be at least
// as fast as the unoptimized one on >= 80% of the topologies, and every
// measurement must be live.
func checkCorpus(res Result) error {
	r, ok := res.(*CorpusResult)
	if !ok {
		return fmt.Errorf("corpus check: unexpected result type %T", res)
	}
	for _, row := range r.Rows {
		if row.Measured <= 0 {
			return fmt.Errorf("corpus check: topology %d %s/%s measured no throughput",
				row.Topology, row.Workload, row.Mode)
		}
	}
	for _, s := range r.Summaries {
		if s.Workload == "steady" && s.StaticGEUnopt < 0.8 {
			return fmt.Errorf("corpus check: static >= unopt on only %.0f%% of steady topologies, want >= 80%%",
				s.StaticGEUnopt*100)
		}
	}
	return nil
}
