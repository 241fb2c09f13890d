package lint

import (
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/xmlio"
)

// loop builds the retry shape src -> work -> {sink, retry} with retry
// feeding back into work.
func loop(t *testing.T, workService, retryProb float64) *core.Topology {
	t.Helper()
	top := core.NewTopology()
	src := top.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 1e-3})
	work := top.MustAddOperator(core.Operator{Name: "work", Kind: core.KindStateless, ServiceTime: workService})
	retry := top.MustAddOperator(core.Operator{Name: "retry", Kind: core.KindStateless, ServiceTime: 1e-4})
	sink := top.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 1e-4})
	top.MustConnect(src, work, 1)
	top.MustConnect(work, sink, 1-retryProb)
	top.MustConnect(work, retry, retryProb)
	top.MustConnect(retry, work, 1)
	return top
}

func codesOf(rep *Report) []string {
	var codes []string
	for _, d := range rep.Diagnostics {
		codes = append(codes, d.Code)
	}
	return codes
}

func TestVerifyPlanNoopWithoutCycleOrBurst(t *testing.T) {
	rep := VerifyPlan(chain(t, core.KindStateless, 1e-4), Config{})
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("acyclic plan with no burst envelope must verify silently, got %v", rep.Diagnostics)
	}
}

func TestVerifyPlanBurstOverflow(t *testing.T) {
	// mid runs at rho 0.8: fine in steady state, but a 2x burst arrives at
	// 2000/s against 1250/s service — the default 64-slot ring fills in
	// 64/750 s, far inside the declared 1 s envelope.
	top := chain(t, core.KindStateless, 8e-4)
	rep := VerifyPlan(top, Config{BurstFactor: 2, BurstSeconds: 1})
	if codes := codesOf(rep); len(codes) != 1 || codes[0] != CodeBurstCapacity {
		t.Fatalf("want one SS3002, got %v", rep.Diagnostics)
	}
	if msg := rep.Diagnostics[0].Message; !strings.Contains(msg, "mid") || !strings.Contains(msg, ">= 750") {
		t.Errorf("SS3002 should name the station and the required capacity: %s", msg)
	}

	// The suggested capacity is exactly the fix.
	rep = VerifyPlan(top, Config{BurstFactor: 2, BurstSeconds: 1, MailboxCapacity: 750})
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("sized-up mailbox still flagged: %v", rep.Diagnostics)
	}
}

func TestVerifyPlanBurstCleanWhenHeadroom(t *testing.T) {
	// mid at rho 0.2 absorbs a 2x burst without queueing at all.
	rep := VerifyPlan(chain(t, core.KindStateless, 2e-4), Config{BurstFactor: 2, BurstSeconds: 1})
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("burst within service headroom flagged: %v", rep.Diagnostics)
	}
}

func TestBlockingCycleOnOverloadedLoop(t *testing.T) {
	// work demands 1000/(1-0.3) ~= 1429/s against 500/s of service: the
	// loop's mailbox pins at capacity and SS3001 must fire.
	rep := VerifyPlan(loop(t, 2e-3, 0.3), Config{AllowCycles: true})
	if codes := codesOf(rep); len(codes) != 1 || codes[0] != CodeBlockingCycle {
		t.Fatalf("want one SS3001, got %v", rep.Diagnostics)
	}
	if msg := rep.Diagnostics[0].Message; !strings.Contains(msg, "work -> retry") {
		t.Errorf("SS3001 should name the loop members: %s", msg)
	}
}

func TestBlockingCycleCleanOnHealthyLoop(t *testing.T) {
	// Same shape at rho ~0.71: the fixpoint leaves slack in every loop
	// mailbox, so the bounded-queue interpretation stays quiet.
	rep := VerifyPlan(loop(t, 5e-4, 0.3), Config{AllowCycles: true})
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("healthy feedback loop flagged: %v", rep.Diagnostics)
	}
}

func TestBlockingCycleSuppressedByDivergence(t *testing.T) {
	// A divergent loop already wedges in the fluid model (SS1101); the
	// bounded-queue restatement must stay out of the report.
	top, err := xmlio.ReadFile("../../testdata/lint/SS1101-divergent-loop.xml")
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(top, Config{AllowCycles: true})
	codes := codesOf(rep)
	sawDivergent := false
	for _, c := range codes {
		if c == CodeNonConvergent {
			sawDivergent = true
		}
		if c == CodeBlockingCycle {
			t.Fatalf("SS3001 restates SS1101: %v", rep.Diagnostics)
		}
	}
	if !sawDivergent {
		t.Fatalf("corpus divergent loop no longer yields SS1101: %v", rep.Diagnostics)
	}
}
