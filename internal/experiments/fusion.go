package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
)

// TableRow is one operator's row in the Table 1/2 reproduction.
type TableRow struct {
	Name string
	// MuInv is the service time in ms (the tables' mu^-1 row).
	MuInv float64
	// DeltaInv is the predicted inter-departure time in ms.
	DeltaInv float64
	// Rho is the predicted utilization factor.
	Rho float64
}

// TableResult reproduces Table 1 or Table 2: the fusion walk-through on
// the six-operator topology of Figure 11, reporting per-operator figures
// before and after the fusion plus predicted and measured throughputs.
type TableResult struct {
	Variant core.PaperExampleVariant
	// Before and After are the per-operator rows of the two halves.
	Before, After []TableRow
	// FusedServiceMs is the meta-operator's predicted service time in ms
	// (paper: 2.80 for Table 1, 4.42 for Table 2).
	FusedServiceMs float64
	// Predicted/Measured topology throughputs, tuples/s.
	PredictedBefore, MeasuredBefore float64
	PredictedAfter, MeasuredAfter   float64
	// IntroducesBottleneck is the tool's alert (false for Table 1, true
	// for Table 2).
	IntroducesBottleneck bool
}

// table runs the walk-through for the chosen variant; measurements come
// from the simulator configured by s.Sim.
func table(s setup, variant core.PaperExampleVariant) (*TableResult, error) {
	s = s.withDefaults()
	topo, sub := core.PaperExampleTopology(variant)
	fused, report, err := core.Fuse(topo, sub, "F")
	if err != nil {
		return nil, err
	}
	simBefore, err := qsim.SimulateTopology(topo, nil, s.simConfig(0))
	if err != nil {
		return nil, err
	}
	simAfter, err := qsim.SimulateTopology(fused, nil, s.simConfig(1))
	if err != nil {
		return nil, err
	}
	res := &TableResult{
		Variant:              variant,
		FusedServiceMs:       report.ServiceTime * 1e3,
		PredictedBefore:      report.ThroughputBefore,
		MeasuredBefore:       simBefore.Throughput,
		PredictedAfter:       report.ThroughputAfter,
		MeasuredAfter:        simAfter.Throughput,
		IntroducesBottleneck: report.IntroducesBottleneck,
	}
	res.Before = tableRows(topo, report.Before)
	res.After = tableRows(fused, report.After)
	return res, nil
}

func tableRows(t *core.Topology, a *core.Analysis) []TableRow {
	rows := make([]TableRow, 0, t.Len())
	for i := 0; i < t.Len(); i++ {
		deltaInv := 0.0
		if a.Delta[i] > 0 {
			deltaInv = 1e3 / a.Delta[i]
		}
		rows = append(rows, TableRow{
			Name:     t.Op(core.OpID(i)).Name,
			MuInv:    t.Op(core.OpID(i)).ServiceTime * 1e3,
			DeltaInv: deltaInv,
			Rho:      a.Rho[i],
		})
	}
	return rows
}

// String renders the table in the paper's layout.
func (r *TableResult) String() string {
	var b strings.Builder
	name := "Table 1 (fusion feasible)"
	if r.Variant == core.PaperExampleTable2 {
		name = "Table 2 (fusion introduces a bottleneck)"
	}
	fmt.Fprintf(&b, "%s — fused service time %.2f ms, alert=%v\n", name, r.FusedServiceMs, r.IntroducesBottleneck)
	render := func(title string, rows []TableRow, predicted, measured float64) {
		fmt.Fprintf(&b, "%s\n", title)
		b.WriteString("  metric    ")
		for _, row := range rows {
			fmt.Fprintf(&b, "%10s", row.Name)
		}
		b.WriteString("\n  mu^-1(ms) ")
		for _, row := range rows {
			fmt.Fprintf(&b, "%10.2f", row.MuInv)
		}
		b.WriteString("\n  d^-1(ms)  ")
		for _, row := range rows {
			fmt.Fprintf(&b, "%10.2f", row.DeltaInv)
		}
		b.WriteString("\n  rho       ")
		for _, row := range rows {
			fmt.Fprintf(&b, "%10.2f", row.Rho)
		}
		fmt.Fprintf(&b, "\n  throughput: %.0f predicted, %.0f measured (tuples/s)\n", predicted, measured)
	}
	render("original topology", r.Before, r.PredictedBefore, r.MeasuredBefore)
	render("topology after fusion", r.After, r.PredictedAfter, r.MeasuredAfter)
	return b.String()
}
