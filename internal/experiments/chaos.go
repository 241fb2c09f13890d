package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/runtime"
)

// The soak runs chaosSchedules escalating fault schedules of chaosDuration
// each; the most aggressive one injects per-tuple panics and slowdowns at
// chaosPanicProb and chaosSlowdownProb, milder ones scale them down.
const (
	chaosSchedules    = 3
	chaosDuration     = 600 * time.Millisecond
	chaosPanicProb    = 0.002
	chaosSlowdownProb = 0.01
)

// ChaosRow is one fault schedule's tuple accounting.
type ChaosRow struct {
	Schedule  int
	PanicProb float64
	SlowProb  float64
	Generated uint64
	Delivered uint64
	Shed      uint64
	Failed    uint64
	Drained   uint64
	Abandoned uint64
	Restarts  uint64
	Panics    uint64
	Slowdowns uint64
	// Conserved reports the exact identity
	// Generated == Delivered+Shed+Failed+Drained+Abandoned.
	Conserved bool
}

// ChaosResult is the soak outcome across schedules.
type ChaosResult struct {
	Rows []ChaosRow
}

// chaosPipeline is a unit-gain pipeline (every stage forwards each input
// exactly once), the topology class for which the conservation identity
// holds exactly even under injected panics.
func chaosPipeline(times ...float64) *core.Topology {
	topo := core.NewTopology()
	var prev core.OpID
	for i, st := range times {
		kind := core.KindStateless
		switch i {
		case 0:
			kind = core.KindSource
		case len(times) - 1:
			kind = core.KindSink
		}
		id := topo.MustAddOperator(core.Operator{
			Name: "s" + string(rune('A'+i)), Kind: kind, ServiceTime: st,
		})
		if i > 0 {
			topo.MustConnect(prev, id, 1)
		}
		prev = id
	}
	return topo
}

// chaos soaks the live runtime under escalating deterministic fault
// schedules and verifies the lifetime tuple-conservation identity: no
// generated tuple is ever double-counted or silently lost, whatever the
// panic/slowdown mix.
func chaos(ctx context.Context, seed uint64) (*ChaosResult, error) {
	res := &ChaosResult{}
	for i := 1; i <= chaosSchedules; i++ {
		scale := float64(i) / chaosSchedules
		fcfg := faultinject.Config{
			Seed:          seed*1_000_003 + uint64(i),
			PanicProb:     chaosPanicProb * scale,
			SlowdownProb:  chaosSlowdownProb * scale,
			SendDelayProb: 0.01 * scale,
		}
		inj := faultinject.New(fcfg)
		topo := chaosPipeline(0.0002, 0.0002, 0.0001, 0.0001)
		m, err := runtime.RunTopology(ctx, topo, nil, nil, runtime.Config{
			Seed:        seed + uint64(i),
			Duration:    chaosDuration,
			Warmup:      chaosDuration / 4,
			MailboxSize: 32,
			SendTimeout: 200 * time.Microsecond,
			MaxRestarts: -1,
			Faults:      inj,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos schedule %d: %w", i, err)
		}
		tt := m.Totals
		c := inj.Counts()
		res.Rows = append(res.Rows, ChaosRow{
			Schedule:  i,
			PanicProb: fcfg.PanicProb,
			SlowProb:  fcfg.SlowdownProb,
			Generated: tt.Generated,
			Delivered: tt.Delivered,
			Shed:      tt.Shed,
			Failed:    tt.Failed,
			Drained:   tt.Drained,
			Abandoned: tt.Abandoned,
			Restarts:  m.Restarts,
			Panics:    c.Panics,
			Slowdowns: c.Slowdowns,
			Conserved: tt.Generated == tt.Delivered+tt.Shed+tt.Failed+tt.Drained+tt.Abandoned,
		})
	}
	return res, nil
}

// String renders the soak table.
func (r *ChaosResult) String() string {
	var b strings.Builder
	b.WriteString("Chaos soak — tuple conservation under injected faults (live runtime)\n")
	b.WriteString("schedule  panic-p  generated  delivered  failed  restarts  conserved\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %7.4f  %9d  %9d  %6d  %8d  %9v\n",
			row.Schedule, row.PanicProb, row.Generated, row.Delivered,
			row.Failed, row.Restarts, row.Conserved)
	}
	return b.String()
}

// Header implements Tabular.
func (r *ChaosResult) Header() []string {
	return []string{"schedule", "panic_prob", "slowdown_prob", "generated", "delivered",
		"shed", "failed", "drained", "abandoned", "restarts", "panics", "slowdowns", "conserved"}
}

// TableRows implements Tabular.
func (r *ChaosResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(row.Schedule), f(row.PanicProb), f(row.SlowProb),
			fmt.Sprintf("%d", row.Generated), fmt.Sprintf("%d", row.Delivered),
			fmt.Sprintf("%d", row.Shed), fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%d", row.Drained), fmt.Sprintf("%d", row.Abandoned),
			fmt.Sprintf("%d", row.Restarts), fmt.Sprintf("%d", row.Panics),
			fmt.Sprintf("%d", row.Slowdowns), fmt.Sprintf("%v", row.Conserved),
		})
	}
	return rows
}

// checkChaos asserts every schedule conserved tuples and made progress.
func checkChaos(res Result) error {
	r, ok := res.(*ChaosResult)
	if !ok {
		return fmt.Errorf("chaos check: unexpected result type %T", res)
	}
	for _, row := range r.Rows {
		if !row.Conserved {
			return fmt.Errorf("chaos check: schedule %d violated tuple conservation", row.Schedule)
		}
		if row.Delivered == 0 {
			return fmt.Errorf("chaos check: schedule %d delivered nothing", row.Schedule)
		}
		if row.Panics > 0 && row.Restarts == 0 {
			return fmt.Errorf("chaos check: schedule %d injected %d panics but saw no restarts",
				row.Schedule, row.Panics)
		}
	}
	return nil
}
