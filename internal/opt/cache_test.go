package opt

import (
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/randtopo"
)

// benchGraphs generates the 50-operator underutilized randtopo graphs
// the solver-cache benchmark runs autofuse over. SourceFactor < 1 slows
// the source below the other operators so fusion candidates exist (the
// paper's bottlenecked 1.33 setup leaves nothing to fuse).
func benchGraphs(tb testing.TB, n int) []*core.Topology {
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

// TestSolverCacheAgreesWithDirect: the cache must be observationally
// identical to the direct solver on autofuse.
func TestSolverCacheAgreesWithDirect(t *testing.T) {
	for _, topo := range benchGraphs(t, 3) {
		direct, err := core.AutoFuse(topo, core.AutoFuseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSolverCache()
		cached, err := core.AutoFuseWith(topo, core.AutoFuseOptions{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Steps) != len(cached.Steps) {
			t.Fatalf("cache changed the fusion outcome: %d vs %d steps", len(cached.Steps), len(direct.Steps))
		}
		for i := range direct.Steps {
			if direct.Steps[i].FusedName != cached.Steps[i].FusedName ||
				direct.Steps[i].ServiceTime != cached.Steps[i].ServiceTime {
				t.Errorf("step %d differs: %+v vs %+v", i, cached.Steps[i], direct.Steps[i])
			}
		}
		if direct.ThroughputAfter != cached.ThroughputAfter {
			t.Errorf("throughput %v vs %v", cached.ThroughputAfter, direct.ThroughputAfter)
		}
	}
}

// TestSolverCacheRatio is the solver-cache gate: on 50-operator randtopo
// graphs the cache must at least halve the number of steady-state solves
// autofuse performs. The ratio is structural (it depends on the candidate
// count, not on wall clock), so a test holds it exactly.
func TestSolverCacheRatio(t *testing.T) {
	var total CacheStats
	for _, topo := range benchGraphs(t, 5) {
		cache := NewSolverCache()
		if _, err := core.AutoFuseWith(topo, core.AutoFuseOptions{}, cache); err != nil {
			t.Fatal(err)
		}
		s := cache.Stats()
		if s.Lookups != s.Hits+s.Misses {
			t.Fatalf("inconsistent stats: %+v", s)
		}
		total.Lookups += s.Lookups
		total.Hits += s.Hits
		total.Misses += s.Misses
	}
	if r := total.Ratio(); r < 2 {
		t.Errorf("solve-reduction ratio %.2f < 2 (stats %+v)", r, total)
	}
}

// BenchmarkSolverCacheAutoFuse measures autofuse over 50-operator
// randtopo graphs with the memoizing solver and reports the
// solve-reduction ratio vs the direct solver (direct solves = cache
// lookups, since the cache sees exactly the demand a direct solver would
// execute).
func BenchmarkSolverCacheAutoFuse(b *testing.B) {
	graphs := benchGraphs(b, 5)
	var total CacheStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = CacheStats{}
		for _, topo := range graphs {
			cache := NewSolverCache()
			if _, err := core.AutoFuseWith(topo, core.AutoFuseOptions{}, cache); err != nil {
				b.Fatal(err)
			}
			s := cache.Stats()
			total.Lookups += s.Lookups
			total.Hits += s.Hits
			total.Misses += s.Misses
		}
	}
	b.StopTimer()
	b.ReportMetric(total.Ratio(), "solves/cached-solve")
}
