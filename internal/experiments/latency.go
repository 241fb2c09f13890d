package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
	"spinstreams/internal/stats"
)

// LatencyRow compares predicted and measured queueing delay at one load
// level.
type LatencyRow struct {
	Rho           float64
	PredictedWait float64
	MeasuredWait  float64
	RelErr        float64
}

// LatencyResult is the latency-model validation (an extension beyond the
// paper, which models throughput only): M/M/1 waiting times layered on the
// backpressure-corrected rates, checked against the simulator's measured
// mailbox delays across a load sweep.
type LatencyResult struct {
	Rows []LatencyRow
	// SaturatedWait is the measured wait at a saturated stage with the
	// given mailbox capacity, next to the buffer-bound prediction.
	BufferCapacity         int
	SaturatedPredictedWait float64
	SaturatedMeasuredWait  float64
}

// latency sweeps the utilization of a middle stage and compares waiting
// times; then saturates the stage to validate the buffer-bound regime.
func latency(s setup, rhos []float64) (*LatencyResult, error) {
	s = s.withDefaults()
	if len(rhos) == 0 {
		rhos = []float64{0.2, 0.4, 0.6, 0.8}
	}
	const (
		mu       = 1000.0 // middle stage capacity, items/s
		capacity = 64
	)
	res := &LatencyResult{BufferCapacity: capacity}
	for i, rho := range rhos {
		topo := core.NewTopology()
		src := topo.MustAddOperator(core.Operator{
			Name: "src", Kind: core.KindSource, ServiceTime: 1 / (mu * rho),
		})
		mid := topo.MustAddOperator(core.Operator{
			Name: "mid", Kind: core.KindStateless, ServiceTime: 1 / mu,
		})
		sink := topo.MustAddOperator(core.Operator{
			Name: "sink", Kind: core.KindSink, ServiceTime: 0.2 / mu,
		})
		topo.MustConnect(src, mid, 1)
		topo.MustConnect(mid, sink, 1)

		est, err := core.EstimateLatency(topo, nil, core.MM1, capacity)
		if err != nil {
			return nil, err
		}
		cfg := s.simConfig(i)
		cfg.BufferSize = capacity
		if cfg.Horizon < 60 {
			cfg.Horizon = 60 // waiting times need longer averaging
		}
		sim, err := qsim.SimulateTopology(topo, nil, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, LatencyRow{
			Rho:           rho,
			PredictedWait: est.Wait[mid],
			MeasuredWait:  sim.Wait[mid],
			RelErr:        stats.RelErr(sim.Wait[mid], est.Wait[mid]),
		})
	}

	// Saturated regime: source twice as fast as the stage.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.5 / mu})
	mid := topo.MustAddOperator(core.Operator{Name: "mid", Kind: core.KindStateful, ServiceTime: 1 / mu})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.2 / mu})
	topo.MustConnect(src, mid, 1)
	topo.MustConnect(mid, sink, 1)
	est, err := core.EstimateLatency(topo, nil, core.MM1, capacity)
	if err != nil {
		return nil, err
	}
	cfg := s.simConfig(99)
	cfg.BufferSize = capacity
	sim, err := qsim.SimulateTopology(topo, nil, cfg)
	if err != nil {
		return nil, err
	}
	res.SaturatedPredictedWait = est.Wait[mid]
	res.SaturatedMeasuredWait = sim.Wait[mid]
	return res, nil
}

// String renders the sweep.
func (r *LatencyResult) String() string {
	var b strings.Builder
	b.WriteString("Latency extension — M/M/1-on-steady-state vs simulation\n")
	b.WriteString("rho   predicted-wait(ms)  measured-wait(ms)  rel.err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%.2f  %18.3f  %17.3f  %6.1f%%\n",
			row.Rho, row.PredictedWait*1e3, row.MeasuredWait*1e3, row.RelErr*100)
	}
	fmt.Fprintf(&b, "saturated stage (capacity %d): predicted %.1f ms, measured %.1f ms\n",
		r.BufferCapacity, r.SaturatedPredictedWait*1e3, r.SaturatedMeasuredWait*1e3)
	return b.String()
}
