package operators

import (
	"math"
	"testing"

	"spinstreams/internal/core"
)

// collect runs op on the inputs and returns everything it emits.
func collect(op Operator, inputs ...Tuple) []Tuple {
	var out []Tuple
	for _, in := range inputs {
		op.Process(in, func(t Tuple) { out = append(out, t) })
	}
	return out
}

func tup(fields ...float64) Tuple { return Tuple{Fields: fields} }

func TestCatalogComplete(t *testing.T) {
	names := Catalog()
	if len(names) != 20 {
		t.Fatalf("catalog has %d operators, want 20: %v", len(names), names)
	}
	for _, name := range names {
		op, err := Build(Spec{Impl: name})
		if err != nil {
			t.Errorf("Build(%s): %v", name, err)
			continue
		}
		if op.Name() != name {
			t.Errorf("Build(%s).Name() = %s", name, op.Name())
		}
		meta := op.Meta()
		if meta.Kind < core.KindSource || meta.Kind > core.KindSink {
			t.Errorf("%s: invalid kind %v", name, meta.Kind)
		}
		clone := op.Clone()
		if clone == nil || clone.Name() != name {
			t.Errorf("%s: bad clone", name)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build(Spec{Impl: "nope"}); err == nil {
		t.Fatal("unknown impl accepted")
	}
}

func TestIdentity(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "identity"}), tup(1, 2))
	if len(out) != 1 || out[0].Field(0) != 1 || out[0].Field(1) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestScale(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "scale", Param: 3}), tup(1, -2))
	if out[0].Field(0) != 3 || out[0].Field(1) != -6 {
		t.Fatalf("out = %v", out[0].Fields)
	}
}

func TestScaleDoesNotAliasInput(t *testing.T) {
	in := tup(1, 2)
	out := collect(MustBuild(Spec{Impl: "scale", Param: 2}), in)
	if in.Fields[0] != 1 {
		t.Fatal("scale mutated its input")
	}
	out[0].Fields[0] = 99
	if in.Fields[0] != 1 {
		t.Fatal("output aliases input")
	}
}

func TestAffine(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "affine", Param: 2}), tup(3))
	if out[0].Field(0) != 7 { // 2*3+1
		t.Fatalf("affine(3) = %v, want 7", out[0].Field(0))
	}
}

func TestMagnitude(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "magnitude"}), tup(3, 4))
	fields := out[0].Fields
	if len(fields) != 3 || math.Abs(fields[2]-5) > 1e-12 {
		t.Fatalf("magnitude(3,4) = %v", fields)
	}
}

func TestNormalize(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "normalize"}), tup(3, 4), tup(0, 0))
	if math.Abs(out[0].Field(0)-0.6) > 1e-12 || math.Abs(out[0].Field(1)-0.8) > 1e-12 {
		t.Fatalf("normalize(3,4) = %v", out[0].Fields)
	}
	if out[1].Field(0) != 0 {
		t.Fatalf("normalize(0,0) = %v", out[1].Fields)
	}
}

func TestThresholdFilter(t *testing.T) {
	op := MustBuild(Spec{Impl: "threshold-filter", Param: 0.5})
	out := collect(op, tup(0.4), tup(0.6), tup(0.5))
	if len(out) != 1 || out[0].Field(0) != 0.6 {
		t.Fatalf("out = %v", out)
	}
	if sel := op.Meta().OutputSelectivity; math.Abs(sel-0.5) > 1e-12 {
		t.Errorf("selectivity = %v, want 0.5", sel)
	}
}

func TestRangeFilter(t *testing.T) {
	op := MustBuild(Spec{Impl: "range-filter", Param: 0.6}) // [0.2, 0.8)
	out := collect(op, tup(0.1), tup(0.2), tup(0.5), tup(0.8))
	if len(out) != 2 {
		t.Fatalf("passed %d tuples, want 2", len(out))
	}
}

func TestSamplerRate(t *testing.T) {
	op := MustBuild(Spec{Impl: "sampler", Param: 0.25, Seed: 9})
	n := 0
	const total = 100000
	for i := 0; i < total; i++ {
		op.Process(Tuple{Seq: uint64(i + 1), Key: uint64(i % 7)}, func(Tuple) { n++ })
	}
	if rate := float64(n) / total; math.Abs(rate-0.25) > 0.01 {
		t.Errorf("pass rate = %v, want ~0.25", rate)
	}
	// The decision is the tuple's: the same tuples pass again.
	again := 0
	for i := 0; i < total; i++ {
		op.Process(Tuple{Seq: uint64(i + 1), Key: uint64(i % 7)}, func(Tuple) { again++ })
	}
	if again != n {
		t.Errorf("second pass over the same tuples passed %d, first %d", again, n)
	}
}

// TestCatalogCensus runs every catalog operator, and a clone taken before
// its first input, over one input stream: every output carries the Seq of
// the input whose call emitted it (routing hashes it), and the clone emits
// exactly what its prototype does, so a fissioned replica computes what
// the unreplicated operator would on the same inputs.
func TestCatalogCensus(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 5, NumKeys: 4})
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]Tuple, 600)
	for i := range ins {
		ins[i] = gen.Next()
		ins[i].Port = int(ins[i].Seq % 2) // both sides of a join
	}
	for _, name := range Catalog() {
		proto := MustBuild(Spec{Impl: name, WindowLen: 16, Slide: 4, K: 3, Param: 0.5, NumKeys: 8, Seed: 3})
		clone := proto.Clone()
		var a, b []Tuple
		outputs := 0
		for _, in := range ins {
			proto.Process(in, func(o Tuple) {
				outputs++
				if o.Seq != in.Seq {
					t.Errorf("%s: output Seq %d from input Seq %d", name, o.Seq, in.Seq)
				}
				a = append(a, o)
			})
			clone.Process(in, func(o Tuple) { b = append(b, o) })
		}
		if outputs == 0 {
			t.Errorf("%s: no output from %d inputs", name, len(ins))
		}
		if len(a) != len(b) {
			t.Errorf("%s: prototype emitted %d, clone %d", name, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Key != b[i].Key || !sameFields(a[i].Fields, b[i].Fields) {
				t.Errorf("%s: output %d differs: prototype %+v, clone %+v", name, i, a[i], b[i])
				break
			}
		}
	}
}

// sameFields compares payloads bit for bit (NaN equals NaN).
func sameFields(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func TestSplitter(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "splitter", K: 4}), tup(7))
	if len(out) != 4 {
		t.Fatalf("emitted %d, want 4", len(out))
	}
	for i, o := range out {
		if o.Field(1) != float64(i) {
			t.Errorf("shard %d tagged %v", i, o.Field(1))
		}
	}
}

func TestProjection(t *testing.T) {
	out := collect(MustBuild(Spec{Impl: "projection", K: 2}), tup(1, 2, 3, 4))
	if len(out[0].Fields) != 2 {
		t.Fatalf("fields = %v", out[0].Fields)
	}
	// Wider than the tuple: keep everything.
	out = collect(MustBuild(Spec{Impl: "projection", K: 9}), tup(1))
	if len(out[0].Fields) != 1 {
		t.Fatalf("fields = %v", out[0].Fields)
	}
}

func TestKeyBy(t *testing.T) {
	op := MustBuild(Spec{Impl: "keyby", NumKeys: 8})
	out := collect(op, tup(0.123), tup(0.123), tup(0.999))
	if out[0].Key != out[1].Key {
		t.Error("equal fields produced different keys")
	}
	if out[0].Key >= 8 || out[2].Key >= 8 {
		t.Errorf("keys out of domain: %d, %d", out[0].Key, out[2].Key)
	}
}

func TestWindowedSum(t *testing.T) {
	op := MustBuild(Spec{Impl: "wsum", WindowLen: 3, Slide: 3, NumKeys: 4})
	var outs []Tuple
	for i := 1; i <= 6; i++ {
		op.Process(Tuple{Key: 1, Fields: []float64{float64(i)}}, func(t Tuple) { outs = append(outs, t) })
	}
	if len(outs) != 2 {
		t.Fatalf("fired %d times, want 2", len(outs))
	}
	if outs[0].Field(0) != 6 || outs[1].Field(0) != 15 {
		t.Fatalf("sums = %v, %v; want 6, 15", outs[0].Field(0), outs[1].Field(0))
	}
}

func TestWindowedSumPerKeyIsolation(t *testing.T) {
	op := MustBuild(Spec{Impl: "wsum", WindowLen: 2, Slide: 2})
	var outs []Tuple
	feed := func(key uint64, v float64) {
		op.Process(Tuple{Key: key, Fields: []float64{v}}, func(t Tuple) { outs = append(outs, t) })
	}
	feed(1, 10)
	feed(2, 100)
	feed(1, 20)  // key 1 fires: 30
	feed(2, 200) // key 2 fires: 300
	if len(outs) != 2 || outs[0].Field(0) != 30 || outs[1].Field(0) != 300 {
		t.Fatalf("outs = %v", outs)
	}
}

func TestWMA(t *testing.T) {
	op := MustBuild(Spec{Impl: "wma", WindowLen: 2, Slide: 2})
	var got float64
	op.Process(Tuple{Key: 1, Fields: []float64{1}}, func(Tuple) {})
	op.Process(Tuple{Key: 1, Fields: []float64{4}}, func(t Tuple) { got = t.Field(0) })
	want := (1.0*1 + 2.0*4) / 3.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("wma = %v, want %v", got, want)
	}
}

func TestWindowedMaxMin(t *testing.T) {
	max := MustBuild(Spec{Impl: "wmax", WindowLen: 3, Slide: 3})
	min := MustBuild(Spec{Impl: "wmin", WindowLen: 3, Slide: 3})
	var gotMax, gotMin float64
	for _, v := range []float64{5, -2, 3} {
		max.Process(Tuple{Fields: []float64{v}}, func(t Tuple) { gotMax = t.Field(0) })
		min.Process(Tuple{Fields: []float64{v}}, func(t Tuple) { gotMin = t.Field(0) })
	}
	if gotMax != 5 || gotMin != -2 {
		t.Fatalf("max = %v, min = %v", gotMax, gotMin)
	}
}

func TestWindowedQuantile(t *testing.T) {
	op := MustBuild(Spec{Impl: "wquantile", WindowLen: 5, Slide: 5, Param: 0.5})
	var got float64
	for _, v := range []float64{9, 1, 5, 3, 7} {
		op.Process(Tuple{Fields: []float64{v}}, func(t Tuple) { got = t.Field(0) })
	}
	if got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
}

func TestSkyline(t *testing.T) {
	op := MustBuild(Spec{Impl: "skyline", WindowLen: 4, Slide: 4, K: 2})
	points := [][]float64{{1, 1}, {2, 2}, {0.5, 3}, {1.5, 1.5}}
	var got float64
	for _, p := range points {
		op.Process(Tuple{Fields: p}, func(t Tuple) { got = t.Field(0) })
	}
	// Frontier: (2,2) and (0.5,3). (1,1) and (1.5,1.5) dominated by (2,2).
	if got != 2 {
		t.Fatalf("frontier size = %v, want 2", got)
	}
}

func TestDominates(t *testing.T) {
	tests := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{2, 2}, []float64{1, 1}, true},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{2, 1}, []float64{1, 2}, false},
		{[]float64{2, 2}, []float64{2, 1}, true},
	}
	for _, tc := range tests {
		if got := dominates(tc.a, tc.b); got != tc.want {
			t.Errorf("dominates(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTopK(t *testing.T) {
	op := MustBuild(Spec{Impl: "topk", WindowLen: 5, Slide: 5, K: 3})
	var got []float64
	for _, v := range []float64{1, 9, 4, 7, 2} {
		op.Process(Tuple{Fields: []float64{v}}, func(t Tuple) { got = t.Fields })
	}
	want := []float64{9, 7, 4}
	if len(got) != 3 {
		t.Fatalf("topk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topk = %v, want %v", got, want)
		}
	}
}

func TestBandJoinMatches(t *testing.T) {
	op := MustBuild(Spec{Impl: "bandjoin", WindowLen: 10, Param: 0.1})
	var outs []Tuple
	emit := func(t Tuple) { outs = append(outs, t) }
	// Left side: 0.50; right side probes with 0.55 (match) and 0.90 (miss).
	op.Process(Tuple{Port: 0, Fields: []float64{0.50}}, emit)
	op.Process(Tuple{Port: 1, Fields: []float64{0.55}}, emit)
	op.Process(Tuple{Port: 1, Fields: []float64{0.90}}, emit)
	if len(outs) != 1 {
		t.Fatalf("matches = %d, want 1", len(outs))
	}
	if math.Abs(outs[0].Field(2)-0.05) > 1e-12 {
		t.Fatalf("distance = %v, want 0.05", outs[0].Field(2))
	}
}

func TestBandJoinSidesByKeyParity(t *testing.T) {
	op := MustBuild(Spec{Impl: "bandjoin", WindowLen: 10, Param: 0.2})
	var outs []Tuple
	emit := func(t Tuple) { outs = append(outs, t) }
	op.Process(Tuple{Key: 2, Fields: []float64{0.5}}, emit) // even -> left
	op.Process(Tuple{Key: 3, Fields: []float64{0.6}}, emit) // odd -> right, matches
	if len(outs) != 1 {
		t.Fatalf("matches = %d, want 1", len(outs))
	}
}

func TestDedup(t *testing.T) {
	op := MustBuild(Spec{Impl: "dedup", WindowLen: 2, NumKeys: 8})
	var outs []Tuple
	emit := func(t Tuple) { outs = append(outs, t) }
	op.Process(Tuple{Key: 1, Seq: 1}, emit) // new -> pass
	op.Process(Tuple{Key: 1, Seq: 2}, emit) // dup within horizon -> drop
	op.Process(Tuple{Key: 2, Seq: 3}, emit) // new -> pass
	op.Process(Tuple{Key: 3, Seq: 4}, emit) // new -> pass
	op.Process(Tuple{Key: 1, Seq: 5}, emit) // horizon expired -> pass
	if len(outs) != 4 {
		t.Fatalf("passed %d, want 4", len(outs))
	}
}

func TestClonesShareNoState(t *testing.T) {
	stateful := []string{"wsum", "wma", "wmax", "wmin", "wquantile", "skyline", "topk", "bandjoin", "dedup"}
	for _, name := range stateful {
		op := MustBuild(Spec{Impl: name, WindowLen: 2, Slide: 2})
		// Warm the original's state.
		for i := 0; i < 5; i++ {
			op.Process(Tuple{Key: 1, Fields: []float64{1, 1}}, func(Tuple) {})
		}
		clone := op.Clone()
		fired := false
		// A fresh clone must not fire on its first input (empty windows).
		clone.Process(Tuple{Key: 1, Fields: []float64{1, 1}}, func(Tuple) { fired = true })
		if fired && name != "dedup" && name != "bandjoin" {
			t.Errorf("%s: clone fired on first input; state shared?", name)
		}
	}
}

func TestTupleField(t *testing.T) {
	tp := tup(1, 2)
	if tp.Field(0) != 1 || tp.Field(1) != 2 || tp.Field(2) != 0 || tp.Field(-1) != 0 {
		t.Fatal("Field bounds handling broken")
	}
}

func TestGenerator(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{Seed: 11, NumKeys: 16, NumFields: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		tp := g.Next()
		if tp.Key >= 16 {
			t.Fatalf("key %d out of domain", tp.Key)
		}
		if len(tp.Fields) != 2 {
			t.Fatalf("fields = %v", tp.Fields)
		}
		if tp.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", tp.Seq, i+1)
		}
		seen[tp.Key]++
	}
	// ZipF skew: key 0 must be the most frequent.
	for k, c := range seen {
		if k != 0 && c > seen[0] {
			t.Errorf("key %d more frequent than key 0 (%d > %d)", k, c, seen[0])
		}
	}
	freqs := g.KeyFrequencies()
	sum := 0.0
	for _, f := range freqs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("frequencies sum to %v", sum)
	}
	// Determinism.
	g2, _ := NewGenerator(GeneratorConfig{Seed: 11, NumKeys: 16, NumFields: 2})
	g1, _ := NewGenerator(GeneratorConfig{Seed: 11, NumKeys: 16, NumFields: 2})
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Key != b.Key || a.Field(0) != b.Field(0) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestMetaSelectivityConsistency(t *testing.T) {
	// Windowed aggregates: input selectivity equals the slide.
	op := MustBuild(Spec{Impl: "wsum", WindowLen: 100, Slide: 7})
	if got := op.Meta().InputSelectivity; got != 7 {
		t.Errorf("wsum input selectivity = %v, want 7", got)
	}
	// Splitter: output selectivity equals the fan-out.
	op = MustBuild(Spec{Impl: "splitter", K: 5})
	if got := op.Meta().OutputSelectivity; got != 5 {
		t.Errorf("splitter output selectivity = %v, want 5", got)
	}
}
