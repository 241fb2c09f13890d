package operators

import (
	"math"
	"testing"
	"testing/quick"

	"spinstreams/internal/core"
)

// TestStatelessOperatorsAreDeterministic: every stateless operator except
// the sampler must produce identical output for identical input, on both
// the original and a clone.
func TestStatelessOperatorsAreDeterministic(t *testing.T) {
	for _, name := range []string{"identity", "scale", "affine", "magnitude",
		"normalize", "threshold-filter", "range-filter", "splitter", "projection", "keyby"} {
		t.Run(name, func(t *testing.T) {
			f := func(fields []float64, key uint64) bool {
				if len(fields) > 16 {
					fields = fields[:16]
				}
				in := Tuple{Key: key, Fields: fields}
				a := MustBuild(Spec{Impl: name})
				b := a.Clone()
				outA := collect(a, in)
				outB := collect(b, in)
				if len(outA) != len(outB) {
					return false
				}
				for i := range outA {
					if len(outA[i].Fields) != len(outB[i].Fields) {
						return false
					}
					for j := range outA[i].Fields {
						va, vb := outA[i].Fields[j], outB[i].Fields[j]
						if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFiltersNeverModifyTuples: filters either pass the tuple unchanged or
// drop it — they never alter fields.
func TestFiltersNeverModifyTuples(t *testing.T) {
	for _, name := range []string{"threshold-filter", "range-filter", "sampler"} {
		t.Run(name, func(t *testing.T) {
			op := MustBuild(Spec{Impl: name, Param: 0.5, Seed: 9})
			f := func(v float64, key uint64) bool {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0.25
				}
				in := Tuple{Key: key, Fields: []float64{v, 7}}
				outs := collect(op, in)
				if len(outs) > 1 {
					return false
				}
				if len(outs) == 1 {
					o := outs[0]
					return o.Key == key && o.Field(0) == v && o.Field(1) == 7
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSplitterAlwaysEmitsK: the splitter's output count is exactly its
// configured fan-out, matching its declared selectivity.
func TestSplitterAlwaysEmitsK(t *testing.T) {
	f := func(kRaw uint8, v float64) bool {
		k := 1 + int(kRaw)%6
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		op := MustBuild(Spec{Impl: "splitter", K: k})
		outs := collect(op, Tuple{Fields: []float64{v}})
		return len(outs) == k && op.Meta().OutputSelectivity == float64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatesFireAtDeclaredCadence: every windowed aggregate fires
// exactly once per slide items (per key) at steady state.
func TestAggregatesFireAtDeclaredCadence(t *testing.T) {
	for _, name := range []string{"wma", "wsum", "wmax", "wmin", "wquantile"} {
		t.Run(name, func(t *testing.T) {
			f := func(lenRaw, slideRaw uint8) bool {
				length := 2 + int(lenRaw)%30
				slide := 1 + int(slideRaw)%10
				op := MustBuild(Spec{Impl: name, WindowLen: length, Slide: slide, NumKeys: 4})
				n := length + slide*20
				fires := 0
				for i := 0; i < n; i++ {
					op.Process(Tuple{Key: 1, Fields: []float64{float64(i)}},
						func(Tuple) { fires++ })
				}
				want := 1 + (n-length)/slide
				return fires == want
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAggregateResultsWithinWindowRange: windowed min/max/quantile results
// are always values that appeared in the window.
func TestAggregateResultsWithinWindowRange(t *testing.T) {
	for _, name := range []string{"wmax", "wmin", "wquantile"} {
		op := MustBuild(Spec{Impl: name, WindowLen: 8, Slide: 2, NumKeys: 2})
		seen := map[float64]bool{}
		ok := true
		for i := 0; i < 200; i++ {
			v := float64((i*37)%101) / 10
			seen[v] = true
			op.Process(Tuple{Key: 0, Fields: []float64{v}}, func(out Tuple) {
				if !seen[out.Field(0)] {
					ok = false
				}
			})
		}
		if !ok {
			t.Errorf("%s emitted a value never fed to it", name)
		}
	}
}

// TestMetaKindsMatchCatalogClasses: the catalog's state classes are
// consistent with the optimizer's expectations.
func TestMetaKindsMatchCatalogClasses(t *testing.T) {
	wantKinds := map[string]core.Kind{
		"identity": core.KindStateless, "scale": core.KindStateless,
		"affine": core.KindStateless, "magnitude": core.KindStateless,
		"normalize": core.KindStateless, "threshold-filter": core.KindStateless,
		"range-filter": core.KindStateless, "sampler": core.KindStateless,
		"splitter": core.KindStateless, "projection": core.KindStateless,
		"keyby": core.KindStateless,
		"wma":   core.KindPartitionedStateful, "wsum": core.KindPartitionedStateful,
		"wmax": core.KindPartitionedStateful, "wmin": core.KindPartitionedStateful,
		"wquantile": core.KindPartitionedStateful, "dedup": core.KindPartitionedStateful,
		"skyline": core.KindStateful, "topk": core.KindStateful,
		"bandjoin": core.KindStateful,
	}
	for name, want := range wantKinds {
		op := MustBuild(Spec{Impl: name})
		if got := op.Meta().Kind; got != want {
			t.Errorf("%s: kind %v, want %v", name, got, want)
		}
	}
	if len(wantKinds) != len(Catalog()) {
		t.Errorf("test covers %d operators, catalog has %d", len(wantKinds), len(Catalog()))
	}
}
