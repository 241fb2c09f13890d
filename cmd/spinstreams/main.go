// Command spinstreams is the CLI front-end of the static optimization
// tool: the workflow the paper drives through its GUI (Section 4.1),
// exposed as subcommands over the XML topology formalism.
//
// Usage:
//
//	spinstreams analyze    -in topo.xml
//	spinstreams optimize   -in topo.xml [-out opt.xml] [-max-replicas N] [-fuse] [-trace-json trace.json] [-trace-dot trace.dot]
//	spinstreams candidates -in topo.xml
//	spinstreams fuse       -in topo.xml -members op3,op4,op5 [-name F] [-out fused.xml]
//	spinstreams generate   -in topo.xml -out main.go [-members ...]
//	spinstreams run        -in topo.xml [-duration 5s] [-replicas auto] [-drift] [-reoptimize]
//	spinstreams run        -in topo.xml -autotune [-autotune-rounds N] [-autotune-interval 2s] [-reconfig-stall-budget 1s]
//	spinstreams simulate   -in topo.xml [-horizon 40]
//	spinstreams vet        -in topo.xml [-members ...] [-trace trace.json] [-format text|json|sarif] [-o report]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"spinstreams/internal/codegen"
	"spinstreams/internal/core"
	"spinstreams/internal/dot"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/profiler"
	"spinstreams/internal/qsim"
	"spinstreams/internal/runtime"
	"spinstreams/internal/xmlio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spinstreams:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "analyze":
		return cmdAnalyze(args[1:])
	case "optimize":
		return cmdOptimize(args[1:])
	case "candidates":
		return cmdCandidates(args[1:])
	case "fuse":
		return cmdFuse(args[1:])
	case "autofuse":
		return cmdAutoFuse(args[1:])
	case "dot":
		return cmdDot(args[1:])
	case "generate":
		return cmdGenerate(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "vet":
		return cmdVet(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `spinstreams — static optimization tool for stream processing topologies

subcommands:
  analyze     steady-state throughput prediction under backpressure
  optimize    bottleneck elimination via operator fission
  candidates  ranked operator-fusion suggestions
  fuse        fuse a subgraph into a meta-operator and predict the outcome
  autofuse    repeatedly apply safe fusions automatically
  dot         render the topology (optionally annotated) as Graphviz DOT
  generate    emit a runnable Go program for the topology
  run         execute the topology on the goroutine runtime
  simulate    run the discrete-event simulation
  profile     measure the catalog operators (service time, selectivity)
  vet         statically verify a topology (structure, cost model, rewrite traces)
`)
}

func loadTopology(path string) (*core.Topology, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	return xmlio.ReadFile(path)
}

func printAnalysis(t *core.Topology, a *core.Analysis, replicas bool) {
	fmt.Printf("%-28s %-22s %12s %12s %10s", "operator", "kind", "arrive(t/s)", "depart(t/s)", "rho")
	if replicas {
		fmt.Printf(" %9s", "replicas")
	}
	fmt.Println()
	for i := 0; i < t.Len(); i++ {
		op := t.Op(core.OpID(i))
		fmt.Printf("%-28s %-22s %12.1f %12.1f %10.3f", op.Name, op.Kind, a.Lambda[i], a.Delta[i], a.Rho[i])
		if replicas {
			fmt.Printf(" %9d", a.Replicas[i])
		}
		fmt.Println()
	}
	fmt.Printf("predicted throughput: %.1f items/s\n", a.Throughput())
	if a.Bottlenecked() {
		names := make([]string, 0, len(a.Limiting))
		for _, id := range a.Limiting {
			names = append(names, t.Op(id).Name)
		}
		fmt.Printf("limiting operators: %s\n", strings.Join(names, ", "))
	}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	latency := fs.Bool("latency", false, "also estimate per-operator and end-to-end latency (M/M/1)")
	mailbox := fs.Int("mailbox", 64, "mailbox capacity assumed for saturated operators")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	a, err := core.SteadyState(t)
	if errors.Is(err, core.ErrCyclic) {
		fmt.Println("topology has feedback edges: using the cyclic traffic-equation analysis")
		a, err = core.SteadyStateCyclic(t)
	}
	if err != nil {
		return err
	}
	printAnalysis(t, a, false)
	if *latency {
		est, err := core.EstimateLatency(t, a, core.MM1, *mailbox)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s %14s %14s\n", "operator", "wait(ms)", "sojourn(ms)")
		for i := 0; i < t.Len(); i++ {
			fmt.Printf("%-28s %14.3f %14.3f\n",
				t.Op(core.OpID(i)).Name, est.Wait[i]*1e3, est.Sojourn[i]*1e3)
		}
		fmt.Printf("expected end-to-end latency: %.3f ms\n", est.EndToEnd*1e3)
		for _, v := range est.Saturated {
			fmt.Printf("saturated (buffer-bound delay): %s\n", t.Op(v).Name)
		}
	}
	return nil
}

// writeTrace exports a pipeline result's rewrite trace as JSON and/or a
// DOT overlay of the final topology.
func writeTrace(res *opt.Result, jsonPath, dotPath string) error {
	if jsonPath != "" {
		data, err := res.Trace.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (schema %s)\n", jsonPath, opt.TraceSchema)
	}
	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		if err := dot.WriteOverlay(f, res, dot.Options{Name: "rewrite-overlay", RankLR: true}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dotPath)
	}
	return nil
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "write the optimized topology XML here (replica degrees included)")
	maxReplicas := fs.Int("max-replicas", 0, "replica budget (0 = unbounded)")
	emitter := fs.Duration("emitter-cost", 0, "emitter/collector service time for the saturation check")
	fuse := fs.Bool("fuse", false, "also run the fusion pass after bottleneck elimination")
	traceJSON := fs.String("trace-json", "", "write the structured rewrite trace (JSON) here")
	traceDot := fs.String("trace-dot", "", "write the rewrite trace as an annotated DOT overlay here")
	vet := fs.Bool("vet", false, "print positioned vet diagnostics for the input before optimizing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *vet {
		if err := preVet(*in, false); err != nil {
			return err
		}
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	res, err := opt.Run(t, opt.Options{
		Fission: core.FissionOptions{
			MaxReplicas:        *maxReplicas,
			EmitterServiceTime: emitter.Seconds(),
		},
		DisableFusion: !*fuse,
	})
	if err != nil {
		return err
	}
	fis := res.Fission
	printAnalysis(t, fis.Analysis, true)
	fmt.Printf("total replicas: %d (%d additional)\n", fis.TotalReplicas, fis.AdditionalReplicas)
	if fis.Capped {
		fmt.Println("replica budget capped the parallelization")
	}
	for _, u := range fis.Unresolved {
		fmt.Printf("unresolved bottleneck: %s (%s)\n", t.Op(u).Name, t.Op(u).Kind)
	}
	if *fuse && res.Fusion != nil {
		for _, step := range res.Fusion.Steps {
			fmt.Printf("fused {%s} -> %s (T=%.3f ms, rho=%.2f)\n",
				strings.Join(step.MemberNames, ", "), step.FusedName, step.ServiceTime*1e3, step.Utilization)
		}
	}
	if *out != "" {
		if err := xmlio.WriteFileOptimized(*out, "optimized", res.Final.Topology(), res.Replicas()); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return writeTrace(res, *traceJSON, *traceDot)
}

func cmdCandidates(args []string) error {
	fs := flag.NewFlagSet("candidates", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	cands, err := core.FusionCandidates(t, nil)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		fmt.Println("no feasible fusion candidates")
		return nil
	}
	fmt.Printf("%-40s %12s %14s\n", "members", "fused rho", "fused T (ms)")
	for _, c := range cands {
		names := make([]string, 0, len(c.Members))
		for _, m := range c.Members {
			names = append(names, t.Op(m).Name)
		}
		fmt.Printf("%-40s %12.3f %14.3f\n", strings.Join(names, ","), c.FusedUtilization, c.ServiceTime*1e3)
	}
	return nil
}

func parseMembers(t *core.Topology, list string) ([]core.OpID, error) {
	if list == "" {
		return nil, fmt.Errorf("-members is required (comma-separated operator names)")
	}
	var members []core.OpID
	for _, name := range strings.Split(list, ",") {
		id, ok := t.Lookup(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", name)
		}
		members = append(members, id)
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	return members, nil
}

func cmdFuse(args []string) error {
	fs := flag.NewFlagSet("fuse", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "write the fused topology XML here")
	list := fs.String("members", "", "comma-separated names of the subgraph to fuse")
	name := fs.String("name", "", "meta-operator name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	members, err := parseMembers(t, *list)
	if err != nil {
		return err
	}
	fused, report, err := core.Fuse(t, members, *name)
	if err != nil {
		return err
	}
	fmt.Printf("fused service time: %.3f ms\n", report.ServiceTime*1e3)
	fmt.Printf("throughput: %.1f -> %.1f items/s (predicted)\n", report.ThroughputBefore, report.ThroughputAfter)
	if report.IntroducesBottleneck {
		fmt.Printf("ALERT: fusion introduces a bottleneck (%.0f%% degradation predicted)\n", report.Degradation()*100)
	} else {
		fmt.Println("fusion is feasible: no bottleneck introduced")
	}
	printAnalysis(fused, report.After, false)
	if *out != "" {
		if err := xmlio.WriteFile(*out, "fused", fused); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "output .dot file (default stdout)")
	annotate := fs.Bool("annotate", true, "color nodes by steady-state utilization")
	optimize := fs.Bool("optimize", false, "annotate with the bottleneck-elimination result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	opts := dot.Options{Name: "spinstreams", RankLR: true}
	if *optimize || *annotate {
		if _, opts.Analysis, err = planReplicas(t, *optimize); err != nil {
			return err
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dot.Write(w, t, opts)
}

func cmdAutoFuse(args []string) error {
	fs := flag.NewFlagSet("autofuse", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "write the fused topology XML here")
	maxRho := fs.Float64("max-utilization", 0.9, "reject fusions whose meta-operator exceeds this utilization")
	traceJSON := fs.String("trace-json", "", "write the structured rewrite trace (JSON) here")
	traceDot := fs.String("trace-dot", "", "write the rewrite trace as an annotated DOT overlay here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	pres, err := opt.Run(t, opt.Options{
		Fusion:         core.AutoFuseOptions{MaxUtilization: *maxRho},
		DisableFission: true,
	})
	if err != nil {
		return err
	}
	res := pres.Fusion
	for _, step := range res.Steps {
		fmt.Printf("fused {%s} -> %s (T=%.3f ms, rho=%.2f)\n",
			strings.Join(step.MemberNames, ", "), step.FusedName, step.ServiceTime*1e3, step.Utilization)
	}
	fmt.Printf("operators: %d -> %d; predicted throughput: %.1f -> %.1f items/s\n",
		res.OperatorsBefore, res.OperatorsAfter, res.ThroughputBefore, res.ThroughputAfter)
	if *out != "" {
		if err := xmlio.WriteFile(*out, "autofused", res.Topology); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return writeTrace(pres, *traceJSON, *traceDot)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	samples := fs.Int("samples", 20000, "sample items per operator")
	seed := fs.Uint64("seed", 1, "synthetic input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-18s %-22s %14s %10s %10s\n", "operator", "kind", "service(us)", "in-sel", "out-sel")
	for _, name := range operators.Catalog() {
		op, err := operators.Build(operators.Spec{Impl: name, WindowLen: 1000, Slide: 10, Seed: *seed})
		if err != nil {
			return err
		}
		prof, err := profiler.Measure(op, profiler.Config{Samples: *samples, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-22s %14.2f %10.2f %10.3f\n",
			name, op.Meta().Kind, prof.ServiceTime*1e6, prof.InputSelectivity, prof.OutputSelectivity)
	}
	return nil
}

// specsFromImpls derives operator specs from the topology's Impl fields.
func specsFromImpls(t *core.Topology) []operators.Spec {
	specs := make([]operators.Spec, t.Len())
	for i := 0; i < t.Len(); i++ {
		op := t.Op(core.OpID(i))
		impl := op.Impl
		if op.Kind == core.KindSource {
			impl = "source"
		}
		if impl == "" {
			impl = "identity"
		}
		spec := operators.Spec{Impl: impl}
		if op.Keys != nil {
			spec.NumKeys = len(op.Keys.Freq)
		}
		if op.InputSelectivity > 1 {
			spec.WindowLen = int(op.InputSelectivity) * 10
			spec.Slide = int(op.InputSelectivity)
		}
		specs[i] = spec
	}
	return specs
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "output .go file (default stdout)")
	list := fs.String("members", "", "optional subgraph to fuse in the generated program")
	optimize := fs.Bool("optimize", false, "embed the bottleneck-elimination replication degrees")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	input := codegen.Input{Topology: t, Specs: specsFromImpls(t)}
	if *list != "" {
		input.FuseMembers, err = parseMembers(t, *list)
		if err != nil {
			return err
		}
	}
	if *optimize {
		if input.Replicas, _, err = planReplicas(t, true); err != nil {
			return err
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return codegen.Generate(w, input)
}

// planReplicas returns the replication degrees to deploy — Algorithm 2's
// with optimize, nil (all ones) without — and the steady state the model
// predicts under them.
func planReplicas(t *core.Topology, optimize bool) ([]int, *core.Analysis, error) {
	if !optimize {
		a, err := core.SteadyState(t)
		return nil, a, err
	}
	fis, err := core.EliminateBottlenecks(t, core.FissionOptions{})
	if err != nil {
		return nil, nil, err
	}
	return fis.Analysis.Replicas, fis.Analysis, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	duration := fs.Duration("duration", 5*time.Second, "run length")
	mailbox := fs.Int("mailbox", 64, "mailbox capacity (tuples)")
	seed := fs.Uint64("seed", 1, "random seed")
	optimize := fs.Bool("optimize", false, "apply bottleneck elimination before running")
	nodes := fs.Int("nodes", 1, "partition the plan across N TCP-connected nodes")
	batch := fs.Int("batch", 0, "window size: most tuples a station takes or a source generates per cycle (0 = runtime default 32; 1 = per-tuple delivery)")
	linger := fs.Duration("linger", 0, "longest a paced source keeps a window open before delivering it; bounds nothing else (0 = runtime default 1ms)")
	warmup := fs.Duration("warmup", 0, "measurement warmup excluded from the window (0 = duration/4; must be < duration)")
	maxRestarts := fs.Int("max-restarts", 0, "restart a panicked operator up to N times, then degrade (0 = crash, <0 = unlimited)")
	retryBackoff := fs.Duration("retry-backoff", 0, "initial redial backoff for failed cross-node sends with -nodes > 1 (0 = default 2ms)")
	sendDeadline := fs.Duration("send-deadline", 0, "per-frame retry deadline for cross-node sends with -nodes > 1, after which the frame is shed (0 = default 2s)")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics over HTTP on this address (/metrics Prometheus text, /snapshot JSON, /debug/vars expvar)")
	drift := fs.Bool("drift", false, "after the run, compare the cost model's predictions against the measured rates and the estimator's profiles")
	reoptimize := fs.Bool("reoptimize", false, "after the run, re-run the optimizer on the estimator's measured profiles and print the delta plan")
	autotune := fs.Bool("autotune", false, "close the loop live: measure, re-optimize, and apply delta plans in-flight without a restart")
	autotuneRounds := fs.Int("autotune-rounds", 2, "measure/re-optimize/apply rounds with -autotune")
	autotuneInterval := fs.Duration("autotune-interval", 2*time.Second, "measurement window per autotune round")
	stallBudget := fs.Duration("reconfig-stall-budget", time.Second, "max pause a live reconfiguration may hold before it aborts")
	vet := fs.Bool("vet", false, "print positioned vet diagnostics for the input before running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *vet {
		if err := preVet(*in, false); err != nil {
			return err
		}
	}
	// Flag-level validation: the library treats zero as "use default",
	// so nonsense explicitly typed on the command line is rejected here.
	if *mailbox <= 0 {
		return fmt.Errorf("run: -mailbox %d, want > 0", *mailbox)
	}
	if *autotuneInterval <= 0 {
		return fmt.Errorf("run: -autotune-interval %v, want > 0", *autotuneInterval)
	}
	if *stallBudget <= 0 {
		return fmt.Errorf("run: -reconfig-stall-budget %v, want > 0", *stallBudget)
	}
	if *autotuneRounds <= 0 {
		return fmt.Errorf("run: -autotune-rounds %d, want > 0", *autotuneRounds)
	}
	if *autotune && *nodes > 1 {
		return fmt.Errorf("run: -autotune reconfigures the in-process engine and is incompatible with -nodes > 1")
	}
	if *sendDeadline < 0 {
		return fmt.Errorf("run: -send-deadline %v, want >= 0", *sendDeadline)
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	replicas, a, err := planReplicas(t, *optimize)
	if err != nil {
		return err
	}
	binding := &runtime.Binding{Ops: map[core.OpID]operators.Operator{}}
	for i, spec := range specsFromImpls(t) {
		if spec.Impl == "source" || spec.Impl == "" {
			continue
		}
		op, err := operators.Build(spec)
		if err != nil {
			return err
		}
		binding.Ops[core.OpID(i)] = op
	}
	runCfg := runtime.Config{
		Duration:            *duration,
		Warmup:              *warmup,
		MailboxSize:         *mailbox,
		Seed:                *seed,
		Batch:               *batch,
		Linger:              *linger,
		MaxRestarts:         *maxRestarts,
		ReconfigStallBudget: *stallBudget,
		AutotuneInterval:    *autotuneInterval,
		// The estimator is the only source of measured profiles.
		Estimator: *drift || *reoptimize || *autotune,
	}
	var reg *obs.Registry
	if *metricsAddr != "" || runCfg.Estimator {
		reg = obs.New()
		runCfg.Obs = reg
	}
	if *metricsAddr != "" {
		bound, shutdown, err := reg.Serve(*metricsAddr)
		if err != nil {
			return fmt.Errorf("run: metrics server: %w", err)
		}
		defer shutdown()
		fmt.Printf("metrics: http://%s/metrics\n", bound)
	}
	var m *runtime.Metrics
	if *autotune {
		c, err := runtime.StartTopology(t, replicas, binding, runCfg)
		if err != nil {
			return err
		}
		rep, aerr := c.Autotune(context.Background(), runtime.AutotuneOptions{
			Interval: *autotuneInterval,
			Rounds:   *autotuneRounds,
			OnRound: func(r runtime.AutotuneRound) {
				fmt.Printf("autotune round %d: measured %.1f items/s (model %.1f, err %+.1f%%)\n",
					r.Round, r.Drift.MeasuredThroughput, r.Drift.PredictedThroughput, 100*r.Drift.ThroughputErr)
				switch {
				case r.Apply != nil:
					fmt.Printf("  applied live (epoch %d, stall %s, %d keys migrated):\n", r.Apply.Epoch, r.Apply.Stall, r.Apply.MigratedKeys)
					fmt.Print(r.Delta.String())
				case r.Delta != nil && !r.Delta.Empty():
					fmt.Println("  delta proposed but not applied:")
					fmt.Print(r.Delta.String())
				default:
					fmt.Println("  deployment already optimal under the measured profiles")
				}
			},
		})
		replicas = c.Replicas()
		m, err = c.Stop()
		if aerr != nil {
			return aerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("autotune: applied %d delta plan(s) over %d round(s) without a restart\n", rep.Applied(), len(rep.Rounds))
	} else if *nodes > 1 {
		p, err := plan.Build(t, plan.Options{Replicas: replicas})
		if err != nil {
			return err
		}
		m, err = runtime.RunDistributed(context.Background(), p, binding, runtime.DistributedConfig{
			Config:       runCfg,
			Nodes:        *nodes,
			RetryBackoff: *retryBackoff,
			SendDeadline: *sendDeadline,
		})
		if err != nil {
			return err
		}
	} else {
		m, err = runtime.RunTopology(context.Background(), t, replicas, binding, runCfg)
		if err != nil {
			return err
		}
	}
	fmt.Printf("predicted throughput: %.1f items/s\n", a.Throughput())
	fmt.Printf("measured  throughput: %.1f items/s\n", m.Throughput)
	if m.Restarts > 0 || m.Degraded > 0 {
		fmt.Printf("operator restarts: %d (degraded stations: %d)\n", m.Restarts, m.Degraded)
	}
	for op, d := range m.Departure {
		fmt.Printf("  %-28s departure %10.1f items/s (arrival %10.1f)\n",
			t.Op(core.OpID(op)).Name, d, m.Arrival[op])
	}
	if *drift || *reoptimize {
		rep, err := obs.Drift(t, replicas, reg)
		if err != nil {
			return fmt.Errorf("run: drift: %w", err)
		}
		if *drift {
			fmt.Print(rep.String())
		}
		if *reoptimize {
			delta, err := opt.Reoptimize(opt.NewSnapshot(t), rep, opt.Options{})
			if err != nil {
				return fmt.Errorf("run: reoptimize: %w", err)
			}
			fmt.Println("re-optimization on measured profiles:")
			fmt.Print(delta.String())
		}
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	horizon := fs.Float64("horizon", 40, "simulated seconds")
	mailbox := fs.Int("mailbox", 64, "mailbox capacity")
	seed := fs.Uint64("seed", 1, "random seed")
	optimize := fs.Bool("optimize", false, "apply bottleneck elimination before simulating")
	shedding := fs.Bool("shedding", false, "use load-shedding semantics (drop on full mailboxes) instead of backpressure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadTopology(*in)
	if err != nil {
		return err
	}
	replicas, a, err := planReplicas(t, *optimize)
	if err != nil {
		return err
	}
	predicted := a.Throughput()
	if *shedding {
		shed, err := core.SteadyStateShedding(t)
		if err != nil {
			return err
		}
		predicted = shed.SinkRate
	}
	res, err := qsim.SimulateTopology(t, replicas, qsim.Config{
		Seed: *seed, Horizon: *horizon, BufferSize: *mailbox, Shedding: *shedding,
	})
	if err != nil {
		return err
	}
	if *shedding {
		fmt.Printf("predicted delivered throughput (shedding): %.1f items/s\n", predicted)
	} else {
		fmt.Printf("predicted throughput: %.1f items/s\n", predicted)
	}
	fmt.Printf("simulated throughput: %.1f items/s (%d events)\n", res.Throughput, res.Events)
	for op, d := range res.Departure {
		fmt.Printf("  %-28s departure %10.1f items/s (arrival %10.1f", t.Op(core.OpID(op)).Name, d, res.Arrival[op])
		if res.Dropped[op] > 0 {
			fmt.Printf(", dropped %10.1f", res.Dropped[op])
		}
		fmt.Printf(")\n")
	}
	return nil
}
