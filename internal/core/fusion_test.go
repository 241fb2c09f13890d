package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFusionServiceTimePaperTable1(t *testing.T) {
	topo, sub := PaperExampleTopology(PaperExampleTable1)
	front, err := ValidateSubgraph(topo, sub)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Op(front).Name != "op3" {
		t.Fatalf("front-end = %s, want op3", topo.Op(front).Name)
	}
	st, exits, err := FusionServiceTime(topo, sub, front)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2.80 ms (our exact reconstruction gives 2.7833 ms).
	approx(t, "fused service time", st*1e3, 2.7833, 1e-3)
	// Unit selectivity: exactly one item leaves per item entering.
	total := 0.0
	for _, w := range exits {
		total += w
	}
	approx(t, "exit volume", total, 1, 1e-12)
	// Both exit flows head to op6 (0.5 via op4, 0.5 via op5).
	if len(exits) != 1 {
		t.Fatalf("exits = %v, want a single target", exits)
	}
}

func TestFusionServiceTimePaperTable2(t *testing.T) {
	topo, sub := PaperExampleTopology(PaperExampleTable2)
	front, _ := ValidateSubgraph(topo, sub)
	st, _, err := FusionServiceTime(topo, sub, front)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 4.42 ms (exact reconstruction: 4.40 ms).
	approx(t, "fused service time", st*1e3, 4.40, 1e-3)
}

func TestFusePaperTable1(t *testing.T) {
	topo, sub := PaperExampleTopology(PaperExampleTable1)
	fused, report, err := Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	if report.IntroducesBottleneck {
		t.Error("Table 1 fusion flagged as bottleneck, want feasible")
	}
	approx(t, "throughput before", report.ThroughputBefore, 1000, 1e-6)
	approx(t, "throughput after", report.ThroughputAfter, 1000, 1e-6)
	// Fused topology has 4 operators: op1, op2, F, op6.
	if fused.Len() != 4 {
		t.Fatalf("fused topology has %d operators, want 4", fused.Len())
	}
	fid, ok := fused.Lookup("F")
	if !ok {
		t.Fatal("fused operator not found")
	}
	// Table 1: rho_F = 0.84 (ours: 0.835).
	approx(t, "rho F", report.After.Rho[fid], 0.835, 1e-3)
	if got := fused.Op(fid).Kind; got != KindStateful {
		t.Errorf("fused kind = %v, want stateful", got)
	}
	if len(fused.Op(fid).Fused) != 3 {
		t.Errorf("Fused members = %v, want 3 names", fused.Op(fid).Fused)
	}
	if report.Degradation() != 0 {
		t.Errorf("Degradation = %v, want 0", report.Degradation())
	}
	if err := fused.Validate(); err != nil {
		t.Fatalf("fused topology invalid: %v", err)
	}
}

func TestFusePaperTable2(t *testing.T) {
	topo, sub := PaperExampleTopology(PaperExampleTable2)
	_, report, err := Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	if !report.IntroducesBottleneck {
		t.Error("Table 2 fusion not flagged as bottleneck")
	}
	approx(t, "throughput before", report.ThroughputBefore, 1000, 1e-6)
	// Paper predicts 760 tuples/s (exact reconstruction: 757.6).
	approx(t, "throughput after", report.ThroughputAfter, 757.6, 0.5)
	// ~24% predicted degradation (paper reports 20% with its rounding).
	if d := report.Degradation(); d < 0.15 || d > 0.30 {
		t.Errorf("Degradation = %v, want ~0.2-0.25", d)
	}
}

func TestFusePaperTable2Rates(t *testing.T) {
	// Check the After rows of Table 2: delta^-1 = [1.33, 1.90, 4.42, 0.2->1.33].
	topo, sub := PaperExampleTopology(PaperExampleTable2)
	fused, report, err := Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) OpID {
		id, ok := fused.Lookup(name)
		if !ok {
			t.Fatalf("operator %s missing", name)
		}
		return id
	}
	a := report.After
	approx(t, "delta op1 (ms^-1)", 1e3/a.Delta[get("op1")], 1.32, 0.02)
	approx(t, "delta op2 (ms^-1)", 1e3/a.Delta[get("op2")], 1.886, 0.02)
	approx(t, "delta F (ms^-1)", 1e3/a.Delta[get("F")], 4.40, 0.02)
	approx(t, "delta op6 (ms^-1)", 1e3/a.Delta[get("op6")], 1.32, 0.02)
}

func TestFusionPathsMatchesDP(t *testing.T) {
	// The paper-literal path enumeration and the DP must agree on
	// unit-selectivity subgraphs.
	topo, sub := PaperExampleTopology(PaperExampleTable1)
	front, _ := ValidateSubgraph(topo, sub)
	dp, _, err := FusionServiceTime(topo, sub, front)
	if err != nil {
		t.Fatal(err)
	}
	paths := FusionServiceTimeByPaths(topo, sub, front)
	approx(t, "paths vs dp", paths, dp, 1e-12)
}

func TestFusionPathsMatchesDPRandom(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed + 9000))
		topo := randomDAG(rng, 14)
		for i := 0; i < topo.Len(); i++ {
			topo.Op(OpID(i)).OutputSelectivity = 0 // unit selectivity
			topo.Op(OpID(i)).InputSelectivity = 0
		}
		dom, err := dominators(topo)
		if err != nil {
			t.Fatal(err)
		}
		src := topo.Source()
		for f := 0; f < topo.Len(); f++ {
			if OpID(f) == src {
				continue
			}
			members := dominatedSet(dom, OpID(f))
			if len(members) < 2 {
				continue
			}
			front, err := ValidateSubgraph(topo, members)
			if err != nil {
				continue
			}
			dp, _, err := FusionServiceTime(topo, members, front)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			paths := FusionServiceTimeByPaths(topo, members, front)
			if math.Abs(dp-paths) > 1e-9*math.Max(dp, paths) {
				t.Fatalf("seed %d front %d: dp %v != paths %v", seed, f, dp, paths)
			}
		}
	}
}

func TestValidateSubgraphErrors(t *testing.T) {
	topo, sub := PaperExampleTopology(PaperExampleTable1)
	op2, _ := topo.Lookup("op2")
	op4, _ := topo.Lookup("op4")
	op5, _ := topo.Lookup("op5")
	op6, _ := topo.Lookup("op6")
	src, _ := topo.Lookup("op1")

	t.Run("too small", func(t *testing.T) {
		if _, err := ValidateSubgraph(topo, []OpID{op4}); !errors.Is(err, ErrFusionTooSmall) {
			t.Errorf("got %v, want ErrFusionTooSmall", err)
		}
	})
	t.Run("contains source", func(t *testing.T) {
		if _, err := ValidateSubgraph(topo, []OpID{src, op2}); !errors.Is(err, ErrFusionSource) {
			t.Errorf("got %v, want ErrFusionSource", err)
		}
	})
	t.Run("two front ends", func(t *testing.T) {
		// op2 and op4 both receive external input and neither feeds the other.
		if _, err := ValidateSubgraph(topo, []OpID{op2, op4}); !errors.Is(err, ErrFusionFrontEnd) {
			t.Errorf("got %v, want ErrFusionFrontEnd", err)
		}
	})
	t.Run("two front ends via shared downstream", func(t *testing.T) {
		// op5 receives from op3 outside the pair, op4 from op1 via op3:
		// both members have external inputs.
		if _, err := ValidateSubgraph(topo, []OpID{op4, op5}); !errors.Is(err, ErrFusionFrontEnd) {
			t.Errorf("got %v, want ErrFusionFrontEnd", err)
		}
	})
	t.Run("valid pair", func(t *testing.T) {
		op3, _ := topo.Lookup("op3")
		front, err := ValidateSubgraph(topo, []OpID{op3, op4})
		if err != nil || front != op3 {
			t.Errorf("got front %v, err %v; want op3, nil", front, err)
		}
	})
	t.Run("ok including sink", func(t *testing.T) {
		front, err := ValidateSubgraph(topo, []OpID{op5, op6})
		// op6 receives from op2 and op4 outside the subgraph: two external
		// feeders but on two members -> two front-ends -> invalid.
		if err == nil {
			t.Errorf("got front %v, want error (op6 also receives external input)", front)
		}
	})
	_ = sub
}

func TestValidateSubgraphNonContiguous(t *testing.T) {
	// Fusing {b, d} with b -> c -> d outside would contract to F -> c -> F;
	// the front-end constraint already rejects it (d receives external
	// input from c), which is why contraction acyclicity is implied for
	// subgraphs that pass the other checks on a valid DAG.
	topo := NewTopology()
	a := topo.MustAddOperator(Operator{Name: "a", Kind: KindSource, ServiceTime: 1})
	b := topo.MustAddOperator(Operator{Name: "b", Kind: KindStateless, ServiceTime: 1})
	c := topo.MustAddOperator(Operator{Name: "c", Kind: KindStateless, ServiceTime: 1})
	d := topo.MustAddOperator(Operator{Name: "d", Kind: KindSink, ServiceTime: 1})
	topo.MustConnect(a, b, 1)
	topo.MustConnect(b, c, 0.5)
	topo.MustConnect(b, d, 0.5)
	topo.MustConnect(c, d, 1)
	if _, err := ValidateSubgraph(topo, []OpID{b, d}); err == nil {
		t.Error("non-contiguous subgraph accepted")
	}
}

func TestFuseWholeTailIntoSink(t *testing.T) {
	// Fusing a subgraph that includes all sinks yields a sink meta-operator.
	topo, _ := mustPipeline(t, 0.01, 0.001, 0.001)
	ids := []OpID{1, 2}
	fused, report, err := Fuse(topo, nil, ids, "tail")
	if err != nil {
		t.Fatal(err)
	}
	fid, _ := fused.Lookup("tail")
	if got := fused.Op(fid).Kind; got != KindSink {
		t.Errorf("fused kind = %v, want sink", got)
	}
	approx(t, "fused service time", report.ServiceTime, 0.002, 1e-12)
	if err := fused.Validate(); err != nil {
		t.Fatal(err)
	}
	approx(t, "throughput preserved", report.ThroughputAfter, 100, 1e-9)
}

func TestFuseWithSelectivity(t *testing.T) {
	// A filter (out-sel 0.5) followed by a map: the meta-operator's output
	// selectivity is 0.5 and the map runs only for surviving items.
	topo := NewTopology()
	src := topo.MustAddOperator(Operator{Name: "src", Kind: KindSource, ServiceTime: 0.001})
	fil := topo.MustAddOperator(Operator{
		Name: "filter", Kind: KindStateless, ServiceTime: 0.0002, OutputSelectivity: 0.5,
	})
	mp := topo.MustAddOperator(Operator{Name: "map", Kind: KindStateless, ServiceTime: 0.0004})
	sink := topo.MustAddOperator(Operator{Name: "sink", Kind: KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, fil, 1)
	topo.MustConnect(fil, mp, 1)
	topo.MustConnect(mp, sink, 1)

	fused, report, err := Fuse(topo, nil, []OpID{fil, mp}, "FM")
	if err != nil {
		t.Fatal(err)
	}
	// Service: 0.0002 + 0.5*0.0004 = 0.0004 per input item.
	approx(t, "fused service time", report.ServiceTime, 0.0004, 1e-12)
	approx(t, "fused out selectivity", report.OutputSelectivity, 0.5, 1e-12)
	fid, _ := fused.Lookup("FM")
	if got := fused.Op(fid).OutputSelectivity; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("stored selectivity = %v, want 0.5", got)
	}
	a, err := SteadyState(fused)
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := fused.Lookup("sink")
	approx(t, "sink arrival", a.Lambda[sid], 500, 1e-9)
}

func TestFusionCandidatesPaper(t *testing.T) {
	topo, sub := PaperExampleTopology(PaperExampleTable1)
	cands, err := FusionCandidates(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no fusion candidates found")
	}
	// The {op3, op4, op5} subgraph must be among the candidates.
	found := false
	for _, c := range cands {
		if len(c.Members) == len(sub) {
			same := true
			for i := range sub {
				if c.Members[i] != sub[i] {
					same = false
				}
			}
			if same {
				found = true
				if c.FusedUtilization > 1 {
					t.Errorf("candidate utilization = %v, want <= 1", c.FusedUtilization)
				}
			}
		}
	}
	if !found {
		t.Errorf("paper subgraph not suggested; candidates = %+v", cands)
	}
	// Ranking is ascending by utilization.
	for i := 1; i < len(cands); i++ {
		if cands[i].FusedUtilization < cands[i-1].FusedUtilization {
			t.Errorf("candidates not sorted at %d", i)
		}
	}
}

func TestFusionCandidatesSkipBottleneck(t *testing.T) {
	// In the Table 2 variant the {3,4,5} fusion would saturate: it must
	// not be suggested.
	topo, sub := PaperExampleTopology(PaperExampleTable2)
	cands, err := FusionCandidates(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if len(c.Members) == 3 && c.Members[0] == sub[0] {
			t.Errorf("bottleneck-introducing candidate suggested: %+v", c)
		}
	}
}

func TestFuseInvalidInputs(t *testing.T) {
	topo, _ := PaperExampleTopology(PaperExampleTable1)
	if _, _, err := Fuse(topo, nil, []OpID{1}, "x"); err == nil {
		t.Error("Fuse with one member succeeded")
	}
	if _, _, err := Fuse(topo, nil, []OpID{0, 1}, "x"); err == nil {
		t.Error("Fuse including the source succeeded")
	}
}
