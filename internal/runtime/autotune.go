package runtime

import (
	"context"
	"errors"
	"time"

	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
)

// AutotuneOptions tunes the controller's autonomic loop.
type AutotuneOptions struct {
	// Interval is one round's measurement-window length (default
	// Config.AutotuneInterval).
	Interval time.Duration
	// Rounds is the number of measure/re-optimize/apply rounds (default 1).
	Rounds int
	// Opt configures the re-optimization (budgets, thresholds).
	Opt opt.Options
	// OnRound, when set, observes each completed round.
	OnRound func(AutotuneRound)
}

// AutotuneRound is one iteration of the loop: what was measured, what the
// optimizer proposed, and what the runtime did about it.
type AutotuneRound struct {
	// Round numbers the iteration, starting at 0.
	Round int
	// Drift compares the window's measured rates against the model.
	Drift *obs.DriftReport
	// Delta is the re-optimizer's proposal (empty when the deployment is
	// already optimal under the measured profiles).
	Delta *opt.DeltaPlan
	// Apply reports the live application of a non-empty delta.
	Apply *ApplyReport
	// Trace is the provenance trace of the applied delta, anchored at the
	// deployed topology (a live_apply step per spinstreams vet's replay).
	Trace *opt.Trace
}

// AutotuneReport collects the loop's rounds.
type AutotuneReport struct {
	Rounds []AutotuneRound
}

// Applied counts the rounds that applied a non-empty delta.
func (r *AutotuneReport) Applied() int {
	n := 0
	for _, round := range r.Rounds {
		if round.Apply != nil {
			n++
		}
	}
	return n
}

// Autotune runs the paper's autonomic loop on the live topology: measure
// a window, build the drift report, re-optimize on the measured profiles,
// and apply the resulting DeltaPlan in-flight — then measure again. Each
// applied delta is recorded as a live_apply step on the re-optimization's
// rewrite trace (and as a standalone trace in the round), so provenance
// replay covers live runs. The loop needs a controller started with
// StartTopology and Config.Estimator (the measured profiles it
// re-optimizes on come from the online estimator), and returns after
// Rounds iterations, a context cancel, or the first error; the topology
// keeps running either way (call Stop for metrics).
func (c *Controller) Autotune(ctx context.Context, o AutotuneOptions) (*AutotuneReport, error) {
	if c.topo == nil {
		return nil, errors.New("runtime: Autotune needs a controller started with StartTopology")
	}
	if !c.e.cfg.Estimator {
		return nil, errors.New("runtime: Autotune re-optimizes on estimator profiles; set Config.Estimator")
	}
	interval := o.Interval
	if interval <= 0 {
		interval = c.e.cfg.AutotuneInterval
	}
	rounds := o.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	sleepCtx(ctx, c.e.cfg.Warmup)
	rep := &AutotuneReport{}
	for r := 0; r < rounds; r++ {
		if ctx.Err() != nil {
			return rep, nil
		}
		c.beginWindow()
		sleepCtx(ctx, interval)
		c.e.reg.MarkWindowEnd()
		dr, err := obs.Drift(c.topo, c.Replicas(), c.e.reg)
		if err != nil {
			return rep, err
		}
		delta, err := opt.Reoptimize(opt.NewSnapshot(c.topo), dr, o.Opt)
		if err != nil {
			return rep, err
		}
		round := AutotuneRound{Round: r, Drift: dr, Delta: delta}
		if delta != nil && !delta.Empty() {
			ar, err := c.ApplyDelta(delta)
			round.Apply = ar
			if err != nil {
				rep.Rounds = append(rep.Rounds, round)
				return rep, err
			}
			round.Trace = opt.LiveTrace(c.topo, delta)
			if delta.Result != nil && delta.Result.Trace != nil {
				delta.Result.Trace.AppendLiveApply(delta)
			}
		}
		rep.Rounds = append(rep.Rounds, round)
		if o.OnRound != nil {
			o.OnRound(round)
		}
	}
	return rep, nil
}
