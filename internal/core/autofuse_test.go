package core

import (
	"math/rand"
	"testing"
)

func TestAutoFusePaperExample(t *testing.T) {
	topo, _ := PaperExampleTopology(PaperExampleTable1)
	res, err := AutoFuse(topo, nil, AutoFuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no fusion applied on a topology with underutilized operators")
	}
	if res.OperatorsAfter >= res.OperatorsBefore {
		t.Errorf("operators %d -> %d, want a reduction", res.OperatorsBefore, res.OperatorsAfter)
	}
	if res.ThroughputAfter < res.ThroughputBefore*(1-1e-9) {
		t.Errorf("throughput degraded %v -> %v", res.ThroughputBefore, res.ThroughputAfter)
	}
	if err := res.Topology.Validate(); err != nil {
		t.Fatalf("final topology invalid: %v", err)
	}
}

func TestAutoFuseTable2RejectsBottleneck(t *testing.T) {
	// In the slow variant the {3,4,5} fusion would saturate: AutoFuse must
	// not apply it (it may still apply other, safe fusions).
	topo, _ := PaperExampleTopology(PaperExampleTable2)
	res, err := AutoFuse(topo, nil, AutoFuseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputAfter < res.ThroughputBefore*(1-1e-9) {
		t.Errorf("throughput degraded %v -> %v", res.ThroughputBefore, res.ThroughputAfter)
	}
	for _, step := range res.Steps {
		if step.Utilization > 1 {
			t.Errorf("step %v saturates: rho %v", step.MemberNames, step.Utilization)
		}
	}
}

func TestAutoFuseMaxRounds(t *testing.T) {
	topo, _ := PaperExampleTopology(PaperExampleTable1)
	res, err := AutoFuse(topo, nil, AutoFuseOptions{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) > 1 {
		t.Errorf("applied %d rounds, want <= 1", len(res.Steps))
	}
}

func TestAutoFuseNoCandidates(t *testing.T) {
	// A saturated pipeline has no safe fusion; AutoFuse must be a no-op.
	topo, ids := mustPipeline(t, 0.001, 0.001, 0.001)
	res, err := AutoFuse(topo, nil, AutoFuseOptions{MaxUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Errorf("steps = %v, want none", res.Steps)
	}
	if res.OperatorsAfter != len(ids) {
		t.Errorf("operator count changed without fusions")
	}
}

// TestAutoFuseNeverDegrades: on random topologies, automatic fusion must
// preserve the predicted throughput and keep the topology valid.
func TestAutoFuseNeverDegrades(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed + 31000))
		topo := randomDAG(rng, 15)
		base, err := SteadyState(topo)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := AutoFuse(topo, nil, AutoFuseOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.ThroughputAfter < base.Throughput()*(1-1e-6) {
			t.Fatalf("seed %d: throughput %v -> %v", seed, base.Throughput(), res.ThroughputAfter)
		}
		if err := res.Topology.Validate(); err != nil {
			t.Fatalf("seed %d: invalid result: %v", seed, err)
		}
		if res.OperatorsAfter > res.OperatorsBefore {
			t.Fatalf("seed %d: operators grew", seed)
		}
	}
}

// TestOptimizeThenAutoFuse: composing the two optimizations — fission to
// remove bottlenecks, then fusion to coarsen the underutilized remainder —
// must preserve the optimized predicted throughput.
func TestOptimizeThenAutoFuse(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 64000))
		topo := randomDAG(rng, 14)
		fis, err := EliminateBottlenecks(topo, FissionOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := AutoFuse(topo, nil, AutoFuseOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Re-optimize the fused topology: fission must still reach at
		// least the throughput of the original fission pass minus the
		// capacity lost by freezing fused members as stateful.
		fis2, err := EliminateBottlenecks(res.Topology, FissionOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// AutoFuse only merges operators whose fused utilization stays
		// below 0.9 at the *unoptimized* rates; after fission raises the
		// rates the meta-operator may bind, but never below the plain
		// topology's throughput.
		base, err := SteadyState(topo)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fis2.Analysis.Throughput() < base.Throughput()*(1-1e-6) {
			t.Fatalf("seed %d: fused+fissioned %v below unoptimized %v",
				seed, fis2.Analysis.Throughput(), base.Throughput())
		}
		_ = fis
	}
}
