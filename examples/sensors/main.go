// Environmental monitoring: a multi-branch DAG with underutilized tail
// operators — the scenario where operator *fusion* pays off (Section 2 of
// the paper). The tool ranks fusion candidates, fuses the best subgraph,
// verifies that no bottleneck appears, and cross-checks the prediction in
// the simulator and on the live runtime (meta-operator actor, Algorithm 4).
//
//	go run ./examples/sensors
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"spinstreams"
	"spinstreams/internal/operators"
	"spinstreams/internal/runtime"
)

const ms = 1e-3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensors:", err)
		os.Exit(1)
	}
}

func run() error {
	// Readings fan out to a cleaning branch and a calibration branch; the
	// calibration tail (normalize -> band-check -> spatial summary) is
	// fine-grained and mostly idle.
	t := spinstreams.NewTopology()
	src := t.MustAddOperator(spinstreams.Operator{
		Name: "sensors", Kind: spinstreams.KindSource, ServiceTime: 1.2 * ms, Impl: "source",
	})
	clean := t.MustAddOperator(spinstreams.Operator{
		Name: "clean", Kind: spinstreams.KindStateless, ServiceTime: 1.0 * ms, Impl: "range-filter",
		OutputSelectivity: 0.8,
	})
	calibrate := t.MustAddOperator(spinstreams.Operator{
		Name: "calibrate", Kind: spinstreams.KindStateless, ServiceTime: 0.6 * ms, Impl: "affine",
	})
	normalize := t.MustAddOperator(spinstreams.Operator{
		Name: "normalize", Kind: spinstreams.KindStateless, ServiceTime: 0.5 * ms, Impl: "normalize",
	})
	summary := t.MustAddOperator(spinstreams.Operator{
		Name: "skyline-summary", Kind: spinstreams.KindStateful, ServiceTime: 1.4 * ms, Impl: "skyline",
		InputSelectivity: 8,
	})
	archive := t.MustAddOperator(spinstreams.Operator{
		Name: "archive", Kind: spinstreams.KindSink, ServiceTime: 0.2 * ms, Impl: "projection",
	})
	t.MustConnect(src, clean, 0.6)
	t.MustConnect(src, calibrate, 0.4)
	t.MustConnect(clean, archive, 1)
	t.MustConnect(calibrate, normalize, 1)
	t.MustConnect(normalize, summary, 1)
	t.MustConnect(summary, archive, 1)

	a, err := spinstreams.Analyze(t)
	if err != nil {
		return err
	}
	fmt.Printf("initial design: %.0f readings/s predicted\n", a.Throughput())
	for i := 0; i < t.Len(); i++ {
		fmt.Printf("  %-18s utilization %.2f\n", t.Op(spinstreams.OpID(i)).Name, a.Rho[i])
	}

	// Ask the tool for fusion candidates (ranked, most underutilized
	// first) — the automation of the GUI's suggestion list.
	cands, err := spinstreams.Candidates(t)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		return fmt.Errorf("no feasible fusion candidate")
	}
	best := cands[0]
	names := make([]string, 0, len(best.Members))
	for _, m := range best.Members {
		names = append(names, t.Op(m).Name)
	}
	fmt.Printf("best fusion candidate: {%s} (fused utilization %.2f, T=%.2f ms)\n",
		strings.Join(names, ", "), best.FusedUtilization, best.ServiceTime/ms)

	fused, report, err := spinstreams.Fuse(t, best.Members, "calibration-unit")
	if err != nil {
		return err
	}
	if report.IntroducesBottleneck {
		fmt.Printf("ALERT: fusion would degrade throughput by %.0f%%\n", report.Degradation()*100)
		return nil
	}
	fmt.Printf("fusion accepted: %.0f -> %.0f readings/s predicted (%d -> %d operators)\n",
		report.ThroughputBefore, report.ThroughputAfter, t.Len(), fused.Len())

	// Cross-check in the simulator.
	sim, err := spinstreams.Simulate(fused, nil, spinstreams.SimConfig{Horizon: 30})
	if err != nil {
		return err
	}
	fmt.Printf("simulated fused topology: %.0f readings/s\n", sim.Throughput)

	// And live: the fused subgraph executes inside one meta-operator
	// actor applying the member functions along each item's path.
	protos := map[spinstreams.OpID]operators.Operator{
		calibrate: operators.MustBuild(operators.Spec{Impl: "affine", Param: 1.02}),
		normalize: operators.MustBuild(operators.Spec{Impl: "normalize"}),
		summary:   operators.MustBuild(operators.Spec{Impl: "skyline", WindowLen: 64, Slide: 8, K: 2}),
	}
	metaProtos := map[spinstreams.OpID]operators.Operator{}
	for _, m := range report.Members {
		if p, ok := protos[m]; ok {
			metaProtos[m] = p
		} else {
			metaProtos[m] = operators.MustBuild(operators.Spec{Impl: "identity"})
		}
	}
	meta, err := runtime.NewMetaOperator(t, report, metaProtos, 3)
	if err != nil {
		return err
	}
	binding := &spinstreams.Binding{
		Ops: map[spinstreams.OpID]operators.Operator{
			report.SurvivorIDs[clean]: operators.MustBuild(operators.Spec{Impl: "range-filter", Param: 0.8}),
		},
		Meta: map[spinstreams.OpID]*runtime.MetaOperator{report.FusedID: meta},
	}
	m, err := spinstreams.Run(context.Background(), fused, nil, binding, spinstreams.RunConfig{
		Duration: 3 * time.Second,
		Seed:     11,
	})
	if err != nil {
		return err
	}
	fmt.Printf("live fused topology: %.0f readings/s measured\n", m.Throughput)
	return nil
}
