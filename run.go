package spinstreams

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/runtime"
	"spinstreams/internal/xmlio"
)

// RunCommand is the run subcommand of the spinstreams tool: it parses
// args as run's flags, deploys a topology document on the goroutine
// runtime (locally, across -nodes TCP-connected nodes, or under -adapt)
// with catalog operators bound by each operator's impl, and writes the
// predicted and measured throughput to w. With document empty, the
// deployment is the file the -in flag names; otherwise document is the
// deployment and there is no -in flag, which is how a generated program
// runs the document it embeds.
func RunCommand(args []string, document string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var in *string
	if document == "" {
		in = fs.String("in", "", "input topology XML")
	}
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
	if *nodes < 1 {
		return fmt.Errorf("run: -nodes %d, want >= 1", *nodes)
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
	var t *core.Topology
	var replicas []int
	var err error
	switch {
	case in == nil:
		t, replicas, err = xmlio.ReadOptimized(strings.NewReader(document))
	case *in == "":
		err = fmt.Errorf("-in is required")
	default:
		t, replicas, err = xmlio.ReadFileOptimized(*in)
	}
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
		fmt.Fprintf(w, "metrics: http://%s/metrics\n", bound)
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
				fmt.Fprintf(w, "autotune round %d: measured %.1f items/s (model %.1f, err %+.1f%%)\n",
					r.Round, r.Drift.MeasuredThroughput, r.Drift.PredictedThroughput, 100*r.Drift.ThroughputErr)
				switch {
				case r.Apply != nil:
					fmt.Fprintf(w, "  applied live (epoch %d, stall %s, %d keys migrated):\n", r.Apply.Epoch, r.Apply.Stall, r.Apply.MigratedKeys)
					fmt.Fprint(w, r.Delta.String())
				case r.Delta != nil && !r.Delta.Empty():
					fmt.Fprintln(w, "  delta proposed but not applied:")
					fmt.Fprint(w, r.Delta.String())
				default:
					fmt.Fprintln(w, "  deployment already optimal under the measured profiles")
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
		fmt.Fprintf(w, "autotune: applied %d delta plan(s) over %d round(s) without a restart\n", rep.Applied(), len(rep.Rounds))
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
	fmt.Fprintf(w, "predicted throughput: %.1f items/s\n", a.Throughput())
	fmt.Fprintf(w, "measured  throughput: %.1f items/s\n", m.Throughput)
	if m.Restarts > 0 || m.Degraded > 0 {
		fmt.Fprintf(w, "operator restarts: %d (degraded stations: %d)\n", m.Restarts, m.Degraded)
	}
	for op, d := range m.Departure {
		fmt.Fprintf(w, "  %-28s departure %10.1f items/s (arrival %10.1f)\n",
			t.Op(core.OpID(op)).Name, d, m.Arrival[op])
	}
	if *adapt == "report" {
		rep, err := obs.Drift(t, replicas, reg)
		if err != nil {
			return fmt.Errorf("run: drift: %w", err)
		}
		fmt.Fprint(w, rep.String())
		delta, err := opt.Reoptimize(opt.NewSnapshot(t), rep, opt.Options{})
		if err != nil {
			return fmt.Errorf("run: reoptimize: %w", err)
		}
		fmt.Fprintln(w, "re-optimization on measured profiles:")
		fmt.Fprint(w, delta.String())
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
