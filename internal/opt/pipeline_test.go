package opt

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/randtopo"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// equivalenceInputs are the topologies the equivalence harness covers:
// the paper example in both service-time variants plus the randtopo
// golden-fingerprint seeds pinned in randtopo's own tests.
func equivalenceInputs(t *testing.T) map[string]*core.Topology {
	t.Helper()
	in := map[string]*core.Topology{}
	for name, v := range map[string]core.PaperExampleVariant{
		"paper-table1": core.PaperExampleTable1,
		"paper-table2": core.PaperExampleTable2,
	} {
		topo, _ := core.PaperExampleTopology(v)
		in[name] = topo
	}
	for name, seed := range map[string]uint64{
		"randtopo-seed1":    1,
		"randtopo-seed7":    7,
		"randtopo-seed42":   42,
		"randtopo-seed1234": 1234,
	} {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatalf("generate seed topology %s: %v", name, err)
		}
		in[name] = g.Topology
	}
	return in
}

func sameAnalysis(t *testing.T, label string, want, got *core.Analysis) {
	t.Helper()
	if want.Throughput() != got.Throughput() {
		t.Errorf("%s: throughput %v != %v", label, got.Throughput(), want.Throughput())
	}
	for i := range want.Lambda {
		if want.Lambda[i] != got.Lambda[i] || want.Rho[i] != got.Rho[i] || want.Delta[i] != got.Delta[i] {
			t.Errorf("%s: operator %d differs: lambda %v/%v rho %v/%v delta %v/%v",
				label, i, got.Lambda[i], want.Lambda[i], got.Rho[i], want.Rho[i], got.Delta[i], want.Delta[i])
		}
		if want.Replicas[i] != got.Replicas[i] {
			t.Errorf("%s: operator %d replicas %d != %d", label, i, got.Replicas[i], want.Replicas[i])
		}
	}
}

// TestPipelineEquivalence is the acceptance harness: the pipeline must
// reproduce the classic entry points' decisions exactly — identical
// Analysis, fission degrees, fusion accept/reject sequence, and final
// predicted throughput — on the paper example (both tables) and the
// randtopo golden-fingerprint seeds.
func TestPipelineEquivalence(t *testing.T) {
	for name, topo := range equivalenceInputs(t) {
		t.Run(name, func(t *testing.T) {
			seedAnalysis, err := core.SteadyState(topo)
			if err != nil {
				t.Fatalf("seed steady state: %v", err)
			}
			seedFission, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
			if err != nil {
				t.Fatalf("seed fission: %v", err)
			}
			seedFusion, err := core.AutoFuse(topo, core.AutoFuseOptions{})
			if err != nil {
				t.Fatalf("seed autofuse: %v", err)
			}

			res, err := Run(topo, Options{})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}

			sameAnalysis(t, "baseline", seedAnalysis, res.Baseline)

			if res.Fission == nil {
				t.Fatal("pipeline dropped the fission result")
			}
			sameAnalysis(t, "fission", seedFission.Analysis, res.Fission.Analysis)
			if res.Fission.TotalReplicas != seedFission.TotalReplicas ||
				res.Fission.AdditionalReplicas != seedFission.AdditionalReplicas ||
				res.Fission.Capped != seedFission.Capped {
				t.Errorf("fission summary differs: %+v vs %+v", res.Fission, seedFission)
			}

			if res.Fusion == nil {
				t.Fatal("pipeline dropped the fusion result")
			}
			if len(res.Fusion.Steps) != len(seedFusion.Steps) {
				t.Fatalf("fusion applied %d steps, seed applied %d", len(res.Fusion.Steps), len(seedFusion.Steps))
			}
			for i, step := range res.Fusion.Steps {
				want := seedFusion.Steps[i]
				if step.FusedName != want.FusedName || step.ServiceTime != want.ServiceTime ||
					step.Utilization != want.Utilization {
					t.Errorf("fusion step %d differs: %+v vs %+v", i, step, want)
				}
				for j := range want.MemberNames {
					if step.MemberNames[j] != want.MemberNames[j] {
						t.Errorf("fusion step %d member %d: %s != %s", i, j, step.MemberNames[j], want.MemberNames[j])
					}
				}
			}
			if res.Fusion.ThroughputAfter != seedFusion.ThroughputAfter {
				t.Errorf("fusion throughput %v != %v", res.Fusion.ThroughputAfter, seedFusion.ThroughputAfter)
			}
			if got := res.Final.Topology().Fingerprint(); got != seedFusion.Topology.Fingerprint() {
				t.Errorf("final topology fingerprint %016x != seed %016x", got, seedFusion.Topology.Fingerprint())
			}
		})
	}
}

// TestPipelineReplicasMapping checks that fission degrees survive the
// fusion rewrite: survivors keep their degree (matched by name), fused
// meta-operators get one.
func TestPipelineReplicasMapping(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	res, err := Run(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final.Topology()
	reps := res.Replicas()
	if len(reps) != final.Len() {
		t.Fatalf("replicas cover %d of %d operators", len(reps), final.Len())
	}
	input := res.Input.Topology()
	for i := 0; i < final.Len(); i++ {
		op := final.Op(core.OpID(i))
		if len(op.Fused) > 0 {
			if reps[i] != 1 {
				t.Errorf("meta-operator %s has %d replicas, want 1", op.Name, reps[i])
			}
			continue
		}
		id, ok := input.Lookup(op.Name)
		if !ok {
			t.Fatalf("survivor %s missing from input topology", op.Name)
		}
		if want := res.Fission.Analysis.Replicas[id]; reps[i] != want {
			t.Errorf("survivor %s has %d replicas, want %d", op.Name, reps[i], want)
		}
	}
	if res.Analysis == nil || res.Analysis.Throughput() <= 0 {
		t.Fatal("final analysis missing")
	}
}

// TestPipelineDisabledPasses pins pass selection by pass list: a
// Pipeline literal without a pass does not run it.
func TestPipelineDisabledPasses(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable2)

	fissionOnly, err := (&Pipeline{Passes: []Pass{AnalyzePass{}, FissionPass{}}}).Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	if fissionOnly.Fusion != nil {
		t.Error("fusion ran without a fusion pass")
	}
	if fissionOnly.Final != fissionOnly.Input {
		t.Error("fission-only run rewrote the topology")
	}
	seed, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fissionOnly.Analysis.Throughput(), seed.Analysis.Throughput(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("fission-only throughput %v, seed %v", got, want)
	}

	fusionOnly, err := (&Pipeline{Passes: []Pass{AnalyzePass{}, FusionPass{}}}).Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	if fusionOnly.Fission != nil {
		t.Error("fission ran without a fission pass")
	}
	for i, n := range fusionOnly.Replicas() {
		if n != 1 {
			t.Errorf("fusion-only run replicated operator %d to %d", i, n)
		}
	}
}

// TestPipelineEvaluationPasses covers the latency pass and the manual
// fuse pass: the latency pass runs only when listed, whatever the model;
// fuse applies Algorithm 3 without accept/reject and records the same
// fuse step the fusion pass records.
func TestPipelineEvaluationPasses(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	if res, err := Run(topo, Options{LatencyModel: core.MM1}); err != nil || res.Latency != nil {
		t.Fatalf("latency model alone added a pass (err %v)", err)
	}
	res, err := (&Pipeline{Passes: []Pass{AnalyzePass{}, LatencyPass{}}}).Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil || res.Latency.EndToEnd <= 0 {
		t.Error("latency pass produced no estimate")
	}

	// Table 2's op3-op5 fusion is the paper's alert case: fuse applies it
	// anyway and reports the degradation.
	t2, _ := core.PaperExampleTopology(core.PaperExampleTable2)
	members := []string{"op5", "op3", "op4"}
	res, err = (&Pipeline{Passes: []Pass{AnalyzePass{}, FusePass{Members: members}}}).Run(t2)
	if err != nil {
		t.Fatal(err)
	}
	ids := []core.OpID{}
	for _, name := range []string{"op3", "op4", "op5"} {
		id, _ := t2.Lookup(name)
		ids = append(ids, id)
	}
	_, want, err := core.Fuse(t2, ids, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Fuse == nil || !res.Fuse.IntroducesBottleneck || res.Fuse.ThroughputAfter != want.ThroughputAfter {
		t.Fatalf("fuse report %+v, want the alert with throughput %v", res.Fuse, want.ThroughputAfter)
	}
	final := res.Final.Topology()
	if final.Len() != t2.Len()-2 {
		t.Errorf("fuse left %d operators, want %d", final.Len(), t2.Len()-2)
	}
	p := res.Trace.Passes[len(res.Trace.Passes)-1]
	if p.Pass != "fuse" || len(p.Steps) != 1 || p.Steps[0].Action != StepFuse ||
		p.Steps[0].Operator != "fused(op3+op4+op5)" || strings.Join(p.Steps[0].Members, ",") != "op3,op4,op5" {
		t.Errorf("fuse trace %+v", p)
	}
	if _, err := (&Pipeline{Passes: []Pass{AnalyzePass{}, FusePass{Members: []string{"ghost"}}}}).Run(t2); err == nil {
		t.Error("fuse of an unknown operator accepted")
	}
}

// TestPipelineCyclic runs a retry-loop topology through the pipeline:
// the analysis must match the fixed-point solver exactly and the
// restructuring passes must skip with a recorded reason.
func TestPipelineCyclic(t *testing.T) {
	topo := retryLoopTopology(t)
	res, err := Run(topo, Options{AllowCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cyclic || !res.Trace.Cyclic {
		t.Fatal("cyclic run not marked cyclic")
	}
	want, err := core.SteadyStateCyclic(topo)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, "cyclic", want, res.Analysis)
	skips := 0
	for _, p := range res.Trace.Passes {
		if p.Skipped != "" {
			skips++
		}
	}
	if skips != 2 {
		t.Errorf("expected fission+fusion to skip, got %d skips", skips)
	}
	if res.Fission != nil || res.Fusion != nil {
		t.Error("restructuring results present on cyclic run")
	}

	// Without AllowCycles the pipeline must refuse.
	if _, err := Run(topo, Options{}); err == nil {
		t.Error("cyclic topology accepted without AllowCycles")
	}
}

func retryLoopTopology(t *testing.T) *core.Topology {
	t.Helper()
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 1e-3})
	work := topo.MustAddOperator(core.Operator{Name: "work", Kind: core.KindStateless, ServiceTime: 0.6e-3})
	check := topo.MustAddOperator(core.Operator{Name: "check", Kind: core.KindStateless, ServiceTime: 0.2e-3})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.1e-3})
	topo.MustConnect(src, work, 1)
	topo.MustConnect(work, check, 1)
	topo.MustConnect(check, work, 0.3) // retry loop
	topo.MustConnect(check, sink, 0.7)
	return topo
}

// TestPipelineDeterminism: two runs over the same input must produce
// byte-identical traces (the golden files depend on it).
func TestPipelineDeterminism(t *testing.T) {
	g, err := randtopo.Generate(randtopo.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Run(g.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(g.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := res1.Trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := res2.Trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Error("traces differ between identical runs")
	}
}

// TestGoldenTraces pins the full rewrite traces for the paper example
// and three randtopo fingerprint seeds. Regenerate with `go test
// ./internal/opt -run TestGoldenTraces -update`.
func TestGoldenTraces(t *testing.T) {
	cases := []struct {
		name string
		topo *core.Topology
	}{}
	table1, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	table2, _ := core.PaperExampleTopology(core.PaperExampleTable2)
	cases = append(cases,
		struct {
			name string
			topo *core.Topology
		}{"paper-table1", table1},
		struct {
			name string
			topo *core.Topology
		}{"paper-table2", table2},
	)
	for _, seed := range []uint64{1, 7, 42} {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			topo *core.Topology
		}{name: "randtopo-seed" + itoa(seed), topo: g.Topology})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.topo, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Trace.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "trace-"+tc.name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if string(want) != string(got) {
				t.Errorf("trace drifted from golden %s;\ngot:\n%s", path, got)
			}
		})
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestSnapshotImmutability: mutating the original topology after taking
// a snapshot must not change the snapshot.
func TestSnapshotImmutability(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	s := NewSnapshot(topo)
	fp := s.Fingerprint()
	topo.Op(1).ServiceTime *= 2
	if s.Fingerprint() != fp || s.Topology().Fingerprint() != fp {
		t.Error("snapshot changed when the original topology was mutated")
	}
	if topo.Fingerprint() == fp {
		t.Error("fingerprint ignored a service-time change")
	}
}
