// Command spinstreams is the CLI front-end of the static optimization
// tool: the workflow the paper drives through its GUI (Section 4.1) over
// the XML topology formalism. optimize predicts a topology's throughput
// (Algorithm 1), rewrites it by fission and fusion (Algorithms 2-3) and
// writes the optimized document; every other subcommand reads a document
// as the deployment it declares, replica degrees included.
//
// Usage:
//
//	spinstreams optimize -in topo.xml [-passes fission,fusion|fuse=a+b+c,latency] [-out opt.xml] [-max-replicas N] [-trace-json trace.json] [-trace-dot trace.dot]
//	spinstreams dot      -in topo.xml [-out topo.dot] [-annotate=false]
//	spinstreams generate -in topo.xml [-out main.go] [-members op3,op4]
//	spinstreams run      -in topo.xml [-duration 5s] [-nodes N] [-adapt off|report|apply]
//	spinstreams simulate -in topo.xml [-horizon 40] [-shedding]
//	spinstreams profile  [-samples N]
//	spinstreams vet      -in topo.xml [-members ...] [-replica-budget N] [-trace trace.json] [-format text|json|sarif] [-o report]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	case "optimize":
		return cmdOptimize(args[1:])
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
  optimize    predict throughput, then rewrite by fission and fusion (-passes)
  dot         render the deployment (optionally annotated) as Graphviz DOT
  generate    emit a runnable Go program for the deployment
  run         execute the deployment on the goroutine runtime
  simulate    run the discrete-event simulation of the deployment
  profile     measure the catalog operators (service time, selectivity)
  vet         statically verify a topology (structure, cost model, rewrite traces)
`)
}

// load reads the deployment a document declares: the topology and one
// replication degree per operator (all ones for a plain document).
func load(path string) (*core.Topology, []int, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("-in is required")
	}
	return xmlio.ReadFileOptimized(path)
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
		if err := writeOut(dotPath, func(w io.Writer) error {
			return dot.WriteOverlay(w, res, dot.Options{Name: "rewrite-overlay", RankLR: true})
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dotPath)
	}
	return nil
}

// passList builds the pipeline -passes names: opt's passes after the
// mandatory analyze, in the pinned order whatever the list order.
func passList(list string) (*opt.Pipeline, error) {
	var fission, latency bool
	var fusion opt.Pass
	for _, name := range strings.Split(list, ",") {
		switch name = strings.TrimSpace(name); {
		case name == "":
		case name == "fission":
			fission = true
		case name == "latency":
			latency = true
		case name == "fusion" || strings.HasPrefix(name, "fuse="):
			if fusion != nil {
				return nil, fmt.Errorf("optimize: -passes: %s and %s both take the fusion slot", fusion.Name(), name)
			}
			fusion = opt.FusionPass{}
			if members, ok := strings.CutPrefix(name, "fuse="); ok {
				fusion = opt.FusePass{Members: strings.Split(members, "+")}
			}
		default:
			return nil, fmt.Errorf("optimize: -passes: unknown pass %q (want fission, fusion, fuse=a+b+c or latency)", name)
		}
	}
	p := &opt.Pipeline{Passes: []opt.Pass{opt.AnalyzePass{}}}
	if fission {
		p.Passes = append(p.Passes, opt.FissionPass{})
	}
	if fusion != nil {
		p.Passes = append(p.Passes, fusion)
	}
	if latency {
		p.Passes = append(p.Passes, opt.LatencyPass{})
	}
	return p, nil
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "write the optimized topology XML here (replica degrees included)")
	passes := fs.String("passes", "fission", "comma-separated passes after analyze: fission, fusion or fuse=a+b+c, latency (empty = analysis and ranked fusion candidates)")
	maxReplicas := fs.Int("max-replicas", 0, "replica budget (0 = unbounded)")
	emitter := fs.Duration("emitter-cost", 0, "emitter/collector service time for the saturation check")
	traceJSON := fs.String("trace-json", "", "write the structured rewrite trace (JSON) here")
	traceDot := fs.String("trace-dot", "", "write the rewrite trace as an annotated DOT overlay here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := passList(*passes)
	if err != nil {
		return err
	}
	t, _, err := load(*in)
	if err != nil {
		return err
	}
	p.Opts = opt.Options{
		Fission: core.FissionOptions{
			MaxReplicas:        *maxReplicas,
			EmitterServiceTime: emitter.Seconds(),
		},
		AllowCycles: true,
	}
	res, err := p.Run(t)
	if err != nil {
		return err
	}
	if res.Cyclic {
		// The restructuring passes skipped it; the trace says so.
		fmt.Println("topology has feedback edges: using the cyclic traffic-equation analysis")
	}
	if fis := res.Fission; fis != nil {
		printAnalysis(t, fis.Analysis, true)
		fmt.Printf("total replicas: %d (%d additional)\n", fis.TotalReplicas, fis.AdditionalReplicas)
		if fis.Capped {
			fmt.Println("replica budget capped the parallelization")
		}
		for _, u := range fis.Unresolved {
			fmt.Printf("unresolved bottleneck: %s (%s)\n", t.Op(u).Name, t.Op(u).Kind)
		}
	} else if res.Fusion == nil && res.Fuse == nil {
		printAnalysis(t, res.Baseline, false)
	}
	if f := res.Fusion; f != nil {
		for _, step := range f.Steps {
			fmt.Printf("fused {%s} -> %s (T=%.3f ms, rho=%.2f)\n",
				strings.Join(step.MemberNames, ", "), step.FusedName, step.ServiceTime*1e3, step.Utilization)
		}
		fmt.Printf("operators: %d -> %d; predicted throughput: %.1f -> %.1f items/s\n",
			f.OperatorsBefore, f.OperatorsAfter, f.ThroughputBefore, f.ThroughputAfter)
	}
	if r := res.Fuse; r != nil {
		fmt.Printf("fused service time: %.3f ms\n", r.ServiceTime*1e3)
		fmt.Printf("throughput: %.1f -> %.1f items/s (predicted)\n", r.ThroughputBefore, r.ThroughputAfter)
		if r.IntroducesBottleneck {
			fmt.Printf("ALERT: fusion introduces a bottleneck (%.0f%% degradation predicted)\n", r.Degradation()*100)
		} else {
			fmt.Println("fusion is feasible: no bottleneck introduced")
		}
		printAnalysis(res.Final.Topology(), r.After, false)
	}
	if est := res.Latency; est != nil {
		final := res.Final.Topology()
		fmt.Printf("%-28s %14s %14s\n", "operator", "wait(ms)", "sojourn(ms)")
		for i := 0; i < final.Len(); i++ {
			fmt.Printf("%-28s %14.3f %14.3f\n", final.Op(core.OpID(i)).Name, est.Wait[i]*1e3, est.Sojourn[i]*1e3)
		}
		fmt.Printf("expected end-to-end latency: %.3f ms\n", est.EndToEnd*1e3)
		for _, v := range est.Saturated {
			fmt.Printf("saturated (buffer-bound delay): %s\n", final.Op(v).Name)
		}
	}
	if len(p.Passes) == 1 && !res.Cyclic {
		if err := printCandidates(t, res.Baseline); err != nil {
			return err
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

// printCandidates prints the ranked fusion candidates (Section 3.3).
func printCandidates(t *core.Topology, a *core.Analysis) error {
	cands, err := core.FusionCandidates(t, a)
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

// writeOut runs write on the file at path, or on stdout when path is
// empty.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	out := fs.String("out", "", "output .dot file (default stdout)")
	annotate := fs.Bool("annotate", true, "color nodes by the deployment's steady-state utilization")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, replicas, err := load(*in)
	if err != nil {
		return err
	}
	opts := dot.Options{Name: "spinstreams", RankLR: true}
	if *annotate {
		if opts.Analysis, err = core.SteadyStateWithReplicas(t, replicas, nil); err != nil {
			return err
		}
	}
	return writeOut(*out, func(w io.Writer) error { return dot.Write(w, t, opts) })
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, replicas, err := load(*in)
	if err != nil {
		return err
	}
	input := codegen.Input{Topology: t, Specs: specsFromImpls(t)}
	for _, n := range replicas {
		if n > 1 {
			input.Replicas = replicas
			break
		}
	}
	if *list != "" {
		input.FuseMembers, err = parseMembers(t, *list)
		if err != nil {
			return err
		}
	}
	return writeOut(*out, func(w io.Writer) error { return codegen.Generate(w, input) })
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	duration := fs.Duration("duration", 5*time.Second, "run length")
	mailbox := fs.Int("mailbox", 64, "mailbox capacity (tuples)")
	seed := fs.Uint64("seed", 1, "random seed")
	nodes := fs.Int("nodes", 1, "partition the plan across N TCP-connected nodes")
	batch := fs.Int("batch", 0, "window size: most tuples a station takes or a source generates per cycle (0 = runtime default 32; 1 = per-tuple delivery)")
	linger := fs.Duration("linger", 0, "longest a paced source keeps a window open before delivering it; bounds nothing else (0 = runtime default 1ms)")
	warmup := fs.Duration("warmup", 0, "measurement warmup excluded from the window (0 = duration/4; must be < duration)")
	maxRestarts := fs.Int("max-restarts", 0, "restart a panicked operator up to N times, then degrade (0 = crash, <0 = unlimited)")
	retryBackoff := fs.Duration("retry-backoff", 0, "initial redial backoff for failed cross-node sends with -nodes > 1 (0 = default 2ms)")
	sendDeadline := fs.Duration("send-deadline", 0, "per-frame retry deadline for cross-node sends with -nodes > 1, after which the frame is shed (0 = default 2s)")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics over HTTP on this address (/metrics Prometheus text, /snapshot JSON, /debug/vars expvar)")
	adapt := fs.String("adapt", "off", "off; report (after the run: drift report, then the delta plan on measured profiles); apply (re-optimize and apply live, two rounds after warmup; single node)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag-level validation: the library treats zero as "use default",
	// so nonsense explicitly typed on the command line is rejected here.
	if *mailbox <= 0 {
		return fmt.Errorf("run: -mailbox %d, want > 0", *mailbox)
	}
	switch *adapt {
	case "off", "report", "apply":
	default:
		return fmt.Errorf("run: -adapt %q, want off, report or apply", *adapt)
	}
	if *adapt == "apply" && *nodes > 1 {
		return fmt.Errorf("run: -adapt apply reconfigures the in-process engine and is incompatible with -nodes > 1")
	}
	if *sendDeadline < 0 {
		return fmt.Errorf("run: -send-deadline %v, want >= 0", *sendDeadline)
	}
	t, replicas, err := load(*in)
	if err != nil {
		return err
	}
	a, err := core.SteadyStateWithReplicas(t, replicas, nil)
	if err != nil {
		return err
	}
	binding, err := runtime.Bind(t, specsFromImpls(t))
	if err != nil {
		return err
	}
	runCfg := runtime.Config{
		Duration:    *duration,
		Warmup:      *warmup,
		MailboxSize: *mailbox,
		Seed:        *seed,
		Batch:       *batch,
		Linger:      *linger,
		MaxRestarts: *maxRestarts,
		// The estimator is the only source of measured profiles.
		Estimator: *adapt != "off",
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
	if *adapt == "apply" {
		c, err := runtime.StartTopology(t, replicas, binding, runCfg)
		if err != nil {
			return err
		}
		// Warmup, then two measure/re-optimize/apply rounds: -duration
		// bounds the whole run.
		warm := *warmup
		if warm == 0 {
			warm = *duration / 4
		}
		rep, aerr := c.Autotune(context.Background(), runtime.AutotuneOptions{
			Interval: (*duration - warm) / 2,
			Rounds:   2,
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
	if *adapt == "report" {
		rep, err := obs.Drift(t, replicas, reg)
		if err != nil {
			return fmt.Errorf("run: drift: %w", err)
		}
		fmt.Print(rep.String())
		delta, err := opt.Reoptimize(opt.NewSnapshot(t), rep, opt.Options{})
		if err != nil {
			return fmt.Errorf("run: reoptimize: %w", err)
		}
		fmt.Println("re-optimization on measured profiles:")
		fmt.Print(delta.String())
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	horizon := fs.Float64("horizon", 40, "simulated seconds")
	mailbox := fs.Int("mailbox", 64, "mailbox capacity")
	seed := fs.Uint64("seed", 1, "random seed")
	shedding := fs.Bool("shedding", false, "use load-shedding semantics (drop on full mailboxes) instead of backpressure; unreplicated documents only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// As in run: the simulator treats zero as "use default", so explicit
	// nonsense is rejected here (and NaN with it).
	if !(*horizon > 0) {
		return fmt.Errorf("simulate: -horizon %v, want > 0", *horizon)
	}
	if *mailbox <= 0 {
		return fmt.Errorf("simulate: -mailbox %d, want > 0", *mailbox)
	}
	t, replicas, err := load(*in)
	if err != nil {
		return err
	}
	label, predicted := "predicted throughput", 0.0
	if *shedding {
		// The shedding model has no replicas: refuse rather than predict
		// a different deployment.
		for i, n := range replicas {
			if n > 1 {
				return fmt.Errorf("simulate: -shedding models unreplicated deployments, but %q has %d replicas", t.Op(core.OpID(i)).Name, n)
			}
		}
		shed, err := core.SteadyStateShedding(t)
		if err != nil {
			return err
		}
		label, predicted = "predicted delivered throughput (shedding)", shed.SinkRate
	} else {
		a, err := core.SteadyStateWithReplicas(t, replicas, nil)
		if err != nil {
			return err
		}
		predicted = a.Throughput()
	}
	res, err := qsim.SimulateTopology(t, replicas, qsim.Config{
		Seed: *seed, Horizon: *horizon, BufferSize: *mailbox, Shedding: *shedding,
	})
	if err != nil {
		return err
	}
	simLabel, simulated := "simulated throughput", res.Throughput
	if *shedding {
		// Delivered is what leaves the operators with no outputs, the
		// quantity SinkRate predicts; Throughput is the source departure.
		simLabel, simulated = "simulated delivered throughput", 0
		for op, d := range res.Departure {
			if len(t.Out(core.OpID(op))) == 0 {
				simulated += d
			}
		}
	}
	fmt.Printf("%s: %.1f items/s\n", label, predicted)
	fmt.Printf("%s: %.1f items/s (%d events)\n", simLabel, simulated, res.Events)
	for op, d := range res.Departure {
		fmt.Printf("  %-28s departure %10.1f items/s (arrival %10.1f", t.Op(core.OpID(op)).Name, d, res.Arrival[op])
		if res.Dropped[op] > 0 {
			fmt.Printf(", dropped %10.1f", res.Dropped[op])
		}
		fmt.Printf(")\n")
	}
	return nil
}
