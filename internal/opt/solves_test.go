package opt

import (
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/randtopo"
)

// fusionGraphs generates 50-operator underutilized randtopo graphs to run
// autofuse over. SourceFactor < 1 slows the source below the other
// operators so fusion candidates exist (the paper's bottlenecked 1.33
// setup leaves nothing to fuse).
func fusionGraphs(tb testing.TB, n int) []*core.Topology {
	tb.Helper()
	graphs := make([]*core.Topology, 0, n)
	for seed := uint64(1); len(graphs) < n; seed++ {
		g, err := randtopo.Generate(randtopo.Config{
			Seed:         seed,
			MinOps:       50,
			MaxOps:       50,
			SourceFactor: 0.25,
		})
		if err != nil {
			tb.Fatalf("generate seed %d: %v", seed, err)
		}
		graphs = append(graphs, g.Topology)
	}
	return graphs
}

// TestAutoFuseSolvesEachTopologyOnce pins autofuse's steady-state solves
// on five 50-operator graphs to the number of distinct topologies it
// builds: the input plus one per candidate evaluated (1 + C). 56 is what a
// fingerprint-keyed memo of every solve counted as misses on these
// graphs, so a driver that handed no analysis forward would exceed it.
func TestAutoFuseSolvesEachTopologyOnce(t *testing.T) {
	total, steps := 0, 0
	for _, topo := range fusionGraphs(t, 5) {
		res, err := core.AutoFuse(topo, nil, core.AutoFuseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total += res.Solves
		steps += len(res.Steps)
	}
	if total != 56 {
		t.Errorf("autofuse ran %d solves over 5 graphs (%d fusions), want 56", total, steps)
	}
}

// TestPipelineHandsAnalysesForward: an analyze + fusion pipeline solves
// the input once (the vet pre-pass's dry-run, which the analyze pass
// takes over) plus autofuse's candidates, and its final analysis is the
// one the last accepted fusion produced.
func TestPipelineHandsAnalysesForward(t *testing.T) {
	p := &Pipeline{Passes: []Pass{AnalyzePass{}, FusionPass{}}}
	for i, topo := range fusionGraphs(t, 2) {
		res, err := p.Run(topo)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fusion.Steps) == 0 {
			t.Fatalf("graph %d: no fusion applied", i)
		}
		if want := 1 + res.Fusion.Solves; res.CacheStats.Misses != want || res.CacheStats.Lookups != want {
			t.Errorf("graph %d: %+v, want %d solves (1 + autofuse's %d)", i, res.CacheStats, want, res.Fusion.Solves)
		}
		if res.Analysis != res.Fusion.Analysis {
			t.Errorf("graph %d: final analysis was solved again instead of handed forward", i)
		}
	}
}
