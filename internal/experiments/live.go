package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/runtime"
	"spinstreams/internal/stats"
)

// LiveRow is one topology's predicted-vs-live-measured throughput.
type LiveRow struct {
	Topology  int
	Operators int
	Predicted float64
	Measured  float64
	RelErr    float64
}

// LiveResult is Figure 7 measured on the live goroutine runtime instead of
// the simulator: real actors, real bounded mailboxes, service times
// emulated by pacing. Wall-clock cost limits it to a subset of the testbed
// (each topology runs for LiveDuration of real time).
type LiveResult struct {
	Rows    []LiveRow
	ErrStat stats.Summary
}

// liveOptions tunes the live accuracy run.
type liveOptions struct {
	// Topologies caps how many testbed entries run live (default 8).
	Topologies int
	// Duration is the wall-clock run per topology (default 3s).
	Duration time.Duration
	// Batch is the window size (0 = runtime default, 1 = per-tuple
	// delivery); capacity stays tuple-accounted at every size, so
	// predictions must hold under all of them.
	Batch int
}

// liveMailbox is the bounded mailbox capacity of the live walkthroughs.
// Live runs last seconds, not simulated minutes: mailboxes must fill within
// the warmup for backpressure to engage, so they are kept small (the
// steady-state model is capacity-independent; see the buffer ablation).
const liveMailbox = 8

// fig7Live measures prediction accuracy against live execution.
func fig7Live(ctx context.Context, s setup, opts liveOptions) (*LiveResult, error) {
	s = s.withDefaults()
	if opts.Topologies <= 0 {
		opts.Topologies = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = 3 * time.Second
	}
	if s.Topologies > opts.Topologies {
		s.Topologies = opts.Topologies
	}
	// Live pacing is reliable for service times well above the sleep
	// quantum; regenerate the testbed with a 1 ms floor.
	s.Topo.ServiceTimeMin = 1e-3
	s.Topo.ServiceTimeMax = 20e-3
	bed, err := buildTestbed(s)
	if err != nil {
		return nil, err
	}
	res := &LiveResult{}
	errs := make([]float64, 0, len(bed))
	for i, g := range bed {
		a, err := core.SteadyState(g.Topology)
		if err != nil {
			return nil, fmt.Errorf("fig7live topology %d: %w", i+1, err)
		}
		// A nil binding runs every station in selectivity-emulation mode:
		// the live actors carry exactly the profiled rates, which is what
		// the cost model predicts (real windowed operators would need
		// minutes of warmup to reach their steady-state selectivity).
		m, err := runtime.RunTopology(ctx, g.Topology, nil, nil, runtime.Config{
			Seed:        uint64(i + 1),
			Duration:    opts.Duration,
			Warmup:      opts.Duration / 3,
			MailboxSize: liveMailbox,
			Batch:       opts.Batch,
		})
		if err != nil {
			return nil, fmt.Errorf("fig7live topology %d: %w", i+1, err)
		}
		relErr := stats.RelErr(m.Throughput, a.Throughput())
		res.Rows = append(res.Rows, LiveRow{
			Topology:  i + 1,
			Operators: g.Topology.Len(),
			Predicted: a.Throughput(),
			Measured:  m.Throughput,
			RelErr:    relErr,
		})
		errs = append(errs, relErr)
	}
	res.ErrStat = stats.Summarize(errs)
	return res, nil
}

// String renders the live series.
func (r *LiveResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 (live runtime) — accuracy against goroutine execution\n")
	b.WriteString("topology  ops  predicted(t/s)  measured(t/s)  rel.err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %3d  %14.1f  %13.1f  %6.2f%%\n",
			row.Topology, row.Operators, row.Predicted, row.Measured, row.RelErr*100)
	}
	fmt.Fprintf(&b, "mean error %.2f%%  (stddev %.2f%%, max %.2f%%)\n",
		r.ErrStat.Mean*100, r.ErrStat.StdDev*100, r.ErrStat.Max*100)
	return b.String()
}
