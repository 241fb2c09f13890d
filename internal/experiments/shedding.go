package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
	"spinstreams/internal/stats"
)

// SheddingRow compares the two communication semantics on one topology.
type SheddingRow struct {
	Topology int
	// BackpressureDelivered and SheddingDelivered are the measured sink
	// rates under each semantics.
	BackpressureDelivered float64
	SheddingDelivered     float64
	// PredictedLoss and MeasuredLoss are the end-to-end loss fractions
	// under shedding.
	PredictedLoss float64
	MeasuredLoss  float64
}

// SheddingResult reproduces the Section 2 trade-off quantitatively:
// backpressure preserves every item by throttling the source, load
// shedding keeps sources at full speed and pays with data loss. The
// shedding steady-state model (SteadyStateShedding) predicts the loss.
type SheddingResult struct {
	Rows []SheddingRow
	// LossErrStat summarizes |measured - predicted| loss across the
	// testbed (absolute, in fraction points).
	LossErrStat stats.Summary
}

// shedding runs both semantics across the testbed.
func shedding(s setup) (*SheddingResult, error) {
	s = s.withDefaults()
	bed, err := buildTestbed(s)
	if err != nil {
		return nil, err
	}
	res := &SheddingResult{}
	var lossErrs []float64
	for i, g := range bed {
		model, err := core.SteadyStateShedding(g.Topology)
		if err != nil {
			return nil, fmt.Errorf("shedding topology %d: %w", i+1, err)
		}
		bp, err := qsim.SimulateTopology(g.Topology, nil, s.simConfig(i))
		if err != nil {
			return nil, err
		}
		shedCfg := s.simConfig(i)
		shedCfg.Shedding = true
		shed, err := qsim.SimulateTopology(g.Topology, nil, shedCfg)
		if err != nil {
			return nil, err
		}
		bpDelivered, shedDelivered := 0.0, 0.0
		for _, sink := range g.Topology.Sinks() {
			bpDelivered += bp.Departure[sink]
			shedDelivered += shed.Departure[sink]
		}
		// Measured loss: compare the shedding run's delivered flow to the
		// loss-free reference (delivered / would-be-delivered).
		measuredLoss := 0.0
		if ideal := model.SinkRate / (1 - model.LossFraction + 1e-12); ideal > 0 {
			measuredLoss = 1 - shedDelivered/ideal
			if measuredLoss < 0 {
				measuredLoss = 0
			}
		}
		row := SheddingRow{
			Topology:              i + 1,
			BackpressureDelivered: bpDelivered,
			SheddingDelivered:     shedDelivered,
			PredictedLoss:         model.LossFraction,
			MeasuredLoss:          measuredLoss,
		}
		res.Rows = append(res.Rows, row)
		diff := row.MeasuredLoss - row.PredictedLoss
		if diff < 0 {
			diff = -diff
		}
		lossErrs = append(lossErrs, diff)
	}
	res.LossErrStat = stats.Summarize(lossErrs)
	return res, nil
}

// String renders the comparison.
func (r *SheddingResult) String() string {
	var b strings.Builder
	b.WriteString("Backpressure vs load shedding (Section 2 trade-off)\n")
	b.WriteString("topology  bp-delivered(t/s)  shed-delivered(t/s)  predicted-loss  measured-loss\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %17.1f  %19.1f  %13.1f%%  %12.1f%%\n",
			row.Topology, row.BackpressureDelivered, row.SheddingDelivered,
			row.PredictedLoss*100, row.MeasuredLoss*100)
	}
	fmt.Fprintf(&b, "mean |measured-predicted| loss: %.2f points (max %.2f)\n",
		r.LossErrStat.Mean*100, r.LossErrStat.Max*100)
	return b.String()
}

// Header implements Tabular.
func (r *SheddingResult) Header() []string {
	return []string{"topology", "bp_delivered", "shed_delivered", "predicted_loss", "measured_loss"}
}

// TableRows implements Tabular.
func (r *SheddingResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(row.Topology), f(row.BackpressureDelivered), f(row.SheddingDelivered),
			f(row.PredictedLoss), f(row.MeasuredLoss),
		})
	}
	return rows
}
