package operators

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"spinstreams/internal/window"
)

// quadraticSkyline is the reference skyline: it buffers the window's points
// and, on every fire, counts the non-dominated ones with a quadratic scan.
type quadraticSkyline struct {
	dims int
	win  *window.Count[[]float64]
}

func newQuadraticSkyline(dims, length, slide int) *quadraticSkyline {
	return &quadraticSkyline{dims: dims, win: window.MustCount[[]float64](length, slide)}
}

func (s *quadraticSkyline) Process(in Tuple, emit Emit) {
	point := make([]float64, s.dims)
	for i := range point {
		point[i] = in.Field(i)
	}
	if !s.win.Add(point) {
		return
	}
	out := in
	out.Fields = []float64{float64(frontierSize(s.win.Snapshot(nil)))}
	emit(out)
}

// frontierSize counts the points no other point dominates.
func frontierSize(points [][]float64) int {
	count := 0
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			count++
		}
	}
	return count
}

// specials are the coordinates that stress dominance: NaN (ignored by every
// comparison), infinities, and a negative zero equal to zero.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}

// skylineStream draws points from a small grid so that ties, duplicates and
// dominance chains are common, with a share of special coordinates and of
// tuples narrower than dims (missing fields read as 0).
func skylineStream(rng *rand.Rand, n, dims int, specialShare float64) []Tuple {
	stream := make([]Tuple, n)
	for i := range stream {
		width := dims
		if rng.Intn(10) == 0 {
			width = rng.Intn(dims + 1)
		}
		fields := make([]float64, width)
		for d := range fields {
			if rng.Float64() < specialShare {
				fields[d] = specials[rng.Intn(len(specials))]
			} else {
				fields[d] = float64(rng.Intn(6))
			}
		}
		stream[i] = Tuple{Key: uint64(i), Seq: uint64(i), Fields: fields}
	}
	return stream
}

// processor is what a reference implementation shares with Operator.
type processor interface{ Process(Tuple, Emit) }

// sameOutputs feeds stream to got and want and reports the first tuple on
// which their emissions differ (count, metadata or any field's bits), or -1.
func sameOutputs(got, want processor, stream []Tuple) int {
	var a, b []Tuple
	for i, in := range stream {
		a, b = a[:0], b[:0]
		got.Process(in, func(t Tuple) { a = append(a, t) })
		want.Process(in, func(t Tuple) { b = append(b, t) })
		if !tuplesBitIdentical(a, b) {
			return i
		}
	}
	return -1
}

func tuplesBitIdentical(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Seq != b[i].Seq || a[i].Port != b[i].Port ||
			len(a[i].Fields) != len(b[i].Fields) {
			return false
		}
		for j := range a[i].Fields {
			if math.Float64bits(a[i].Fields[j]) != math.Float64bits(b[i].Fields[j]) {
				return false
			}
		}
	}
	return true
}

// TestSkylineMatchesQuadratic: the candidate-set skyline emits exactly what
// the quadratic reference emits, for slides below, equal to and above the
// window length, dims 1-4, with NaN, ±Inf, −0, duplicates and narrow
// tuples, and for a Clone taken mid-stream (fresh state, original intact).
func TestSkylineMatchesQuadratic(t *testing.T) {
	configs := []struct{ dims, length, slide int }{
		{2, 64, 1}, {2, 16, 3}, {3, 8, 20}, {1, 5, 1}, {4, 32, 1},
		{2, 1, 1}, {3, 10, 10}, {1, 7, 9}, {4, 6, 2},
	}
	for _, cfg := range configs {
		for _, share := range []float64{0, 0.05, 0.3} {
			rng := rand.New(rand.NewSource(int64(cfg.dims*1000 + cfg.length*10 + cfg.slide)))
			stream := skylineStream(rng, 4000, cfg.dims, share)
			spec := Spec{Impl: "skyline", K: cfg.dims, WindowLen: cfg.length, Slide: cfg.slide}
			op := MustBuild(spec)
			ref := newQuadraticSkyline(cfg.dims, cfg.length, cfg.slide)
			half := len(stream) / 2
			if i := sameOutputs(op, ref, stream[:half]); i >= 0 {
				t.Fatalf("%+v share %v: differs from the quadratic scan at tuple %d", cfg, share, i)
			}
			clone := op.Clone()
			if i := sameOutputs(op, ref, stream[half:]); i >= 0 {
				t.Fatalf("%+v share %v: differs after cloning at tuple %d", cfg, share, half+i)
			}
			fresh := newQuadraticSkyline(cfg.dims, cfg.length, cfg.slide)
			if i := sameOutputs(clone, fresh, stream[half:]); i >= 0 {
				t.Fatalf("%+v share %v: mid-stream clone differs at tuple %d", cfg, share, half+i)
			}
		}
	}
}

// TestSkylineNaNBreaksTransitivity: (NaN,2) dominates (3,1), which dominates
// the older (2,NaN), yet (NaN,2) does not dominate (2,NaN). Dropping (3,1)
// on (NaN,2)'s arrival would put (2,NaN) on the frontier while (3,1) is
// still in the window.
func TestSkylineNaNBreaksTransitivity(t *testing.T) {
	nan := math.NaN()
	stream := []Tuple{tup(3, 1), tup(2, nan), tup(nan, 2), tup(0, 0), tup(0, 0)}
	op := MustBuild(Spec{Impl: "skyline", K: 2, WindowLen: 3, Slide: 1})
	if i := sameOutputs(op, newQuadraticSkyline(2, 3, 1), stream); i >= 0 {
		t.Fatalf("differs from the quadratic scan at tuple %d", i)
	}
}

// FuzzSkylineMatchesQuadratic: the skyline equals the quadratic reference on
// arbitrary point streams. The first three bytes choose dims, window length
// and slide; each following byte is one coordinate (or, when its top bits
// say so, ends the tuple early).
func FuzzSkylineMatchesQuadratic(f *testing.F) {
	f.Add([]byte{1, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{3, 20, 2, 250, 1, 2, 3, 251, 4, 0xff, 9, 8, 7, 6, 252, 253, 254, 1, 1, 1, 1})
	f.Add([]byte{1, 3, 0, 250, 2, 3, 1, 2, 250, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dims, length, slide := 1+int(data[0])%4, 1+int(data[1])%24, 1+int(data[2])%30
		var stream []Tuple
		var fields []float64
		for _, b := range data[3:] {
			switch {
			case b == 0xff:
				stream = append(stream, Tuple{Fields: fields})
				fields = nil
				continue
			case b >= 250:
				fields = append(fields, specials[int(b)-250])
			default:
				fields = append(fields, float64(b%8))
			}
			if len(fields) == dims {
				stream = append(stream, Tuple{Fields: fields})
				fields = nil
			}
		}
		op := MustBuild(Spec{Impl: "skyline", K: dims, WindowLen: length, Slide: slide})
		if i := sameOutputs(op, newQuadraticSkyline(dims, length, slide), stream); i >= 0 {
			t.Fatalf("dims %d length %d slide %d: differs from the quadratic scan at tuple %d of %v",
				dims, length, slide, i, stream)
		}
	})
}

// snapshotAggregate is the reference windowed aggregation: one count window
// per key, reduced from a Snapshot copy on every fire.
type snapshotAggregate struct {
	length, slide int
	byKey         map[uint64]*window.Count[float64]
	reduce        func([]float64) float64
}

func (a *snapshotAggregate) Process(in Tuple, emit Emit) {
	w, ok := a.byKey[in.Key]
	if !ok {
		w = window.MustCount[float64](a.length, a.slide)
		a.byKey[in.Key] = w
	}
	if !w.Add(in.Field(0)) {
		return
	}
	out := in
	out.Fields = []float64{a.reduce(w.Snapshot(nil))}
	emit(out)
}

// referenceReductions are the window reductions written as plain scans of
// a copied window, element by element in window order.
var referenceReductions = map[string]func([]float64) float64{
	"wma": func(xs []float64) float64 {
		num, den := 0.0, 0.0
		for i, x := range xs {
			w := float64(i + 1)
			num += w * x
			den += w
		}
		if den == 0 {
			return 0
		}
		return num / den
	},
	"wsum": func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	},
	"wmax": func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs[1:] {
			if x > m {
				m = x
			}
		}
		return m
	},
	"wmin": func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return m
	},
	"wquantile": func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[int(0.5*float64(len(xs)-1))]
	},
}

// snapshotTopK is the reference top-k: sort a Snapshot copy on every fire.
type snapshotTopK struct {
	k   int
	win *window.Count[float64]
}

func (r *snapshotTopK) Process(in Tuple, emit Emit) {
	if !r.win.Add(in.Field(0)) {
		return
	}
	xs := r.win.Snapshot(nil)
	sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	out := in
	out.Fields = xs[:min(r.k, len(xs))]
	emit(out)
}

// snapshotBandJoin is the reference band-join: probe a Snapshot copy of the
// opposite window, oldest first.
type snapshotBandJoin struct {
	band        float64
	left, right *window.Count[float64]
}

func (r *snapshotBandJoin) Process(in Tuple, emit Emit) {
	v := in.Field(0)
	mine, other := r.left, r.right
	if in.Port != 0 || in.Key%2 == 1 {
		mine, other = r.right, r.left
	}
	mine.Add(v)
	for _, w := range other.Snapshot(nil) {
		d := v - w
		if d < 0 {
			d = -d
		}
		if d <= r.band {
			out := in
			out.Fields = []float64{v, w, d}
			emit(out)
		}
	}
}

// windowStream is keyed, two-port input over values with ties, signed
// zeros, infinities and NaN.
func windowStream(rng *rand.Rand, n, keys int) []Tuple {
	stream := make([]Tuple, n)
	for i := range stream {
		v := rng.NormFloat64() * 3
		switch r := rng.Intn(40); {
		case r < len(specials):
			v = specials[r]
		case r < 12:
			v = float64(rng.Intn(3))
		}
		stream[i] = Tuple{Key: uint64(rng.Intn(keys)), Seq: uint64(i), Port: rng.Intn(2), Fields: []float64{v}}
	}
	return stream
}

// TestWindowOperatorsBitIdentical: every window operator reduces the
// two-segment window view to exactly what a reduction over a Snapshot copy
// gives, bit for bit, including across a mid-stream KeyedState migration of
// every key into a fresh replica (partial windows included).
func TestWindowOperatorsBitIdentical(t *testing.T) {
	for _, shape := range []struct{ length, slide int }{{64, 1}, {7, 3}, {5, 9}, {1, 1}} {
		for name, reduce := range referenceReductions {
			rng := rand.New(rand.NewSource(int64(shape.length*100 + shape.slide)))
			stream := windowStream(rng, 6000, 5)
			op := MustBuild(Spec{Impl: name, WindowLen: shape.length, Slide: shape.slide, Param: 0.5})
			ref := &snapshotAggregate{length: shape.length, slide: shape.slide,
				byKey: map[uint64]*window.Count[float64]{}, reduce: reduce}
			half := len(stream) / 2
			if i := sameOutputs(op, ref, stream[:half]); i >= 0 {
				t.Fatalf("%s %+v: differs at tuple %d", name, shape, i)
			}
			moved := op.Clone()
			from, to := op.(KeyedState), moved.(KeyedState)
			for _, key := range from.StateKeys() {
				to.ImportKey(key, from.ExportKey(key))
			}
			if i := sameOutputs(moved, ref, stream[half:]); i >= 0 {
				t.Fatalf("%s %+v: differs after migrating every key at tuple %d", name, shape, half+i)
			}
		}
		rng := rand.New(rand.NewSource(int64(shape.length)))
		stream := windowStream(rng, 6000, 5)
		topk := MustBuild(Spec{Impl: "topk", WindowLen: shape.length, Slide: shape.slide, K: 4})
		refTopK := &snapshotTopK{k: 4, win: window.MustCount[float64](shape.length, shape.slide)}
		if i := sameOutputs(topk, refTopK, stream); i >= 0 {
			t.Fatalf("topk %+v: differs at tuple %d", shape, i)
		}
		join := MustBuild(Spec{Impl: "bandjoin", WindowLen: shape.length, Param: 0.5})
		refJoin := &snapshotBandJoin{band: 0.5,
			left:  window.MustCount[float64](shape.length, 1),
			right: window.MustCount[float64](shape.length, 1)}
		if i := sameOutputs(join, refJoin, stream); i >= 0 {
			t.Fatalf("bandjoin %+v: differs at tuple %d", shape, i)
		}
	}
}

// TestKeyByNonFiniteKeys: keys do not depend on how the platform converts
// out-of-range floats. NaN and ±Inf take key 0, every finite magnitude in
// millionths is reduced exactly (checked against big-integer arithmetic),
// and values the conversion handles keep today's uint64(v) % n.
func TestKeyByNonFiniteKeys(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		op := MustBuild(Spec{Impl: "keyby", NumKeys: n})
		key := func(x float64) uint64 {
			out := collect(op, Tuple{Key: 12345, Fields: []float64{x}})
			return out[0].Key
		}
		// MaxFloat64 counts in millionths as +Inf.
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
			if got := key(x); got != 0 {
				t.Errorf("n=%d: key(%v) = %d, want 0", n, x, got)
			}
		}
		for _, x := range []float64{1e300, -1e300, 2e13, 1.7e302, 9.3e12, 1 << 60} {
			v, _ := new(big.Float).SetFloat64(math.Abs(x) * 1e6).Int(nil)
			want := new(big.Int).Mod(v, big.NewInt(int64(n))).Uint64()
			if got := key(x); got != want {
				t.Errorf("n=%d: key(%v) = %d, want %d", n, x, got, want)
			}
		}
		for _, x := range []float64{0, math.Copysign(0, -1), 0.5, -0.25, 123.456789, 9.2e12, -4e12} {
			want := uint64(math.Abs(x)*1e6) % uint64(n)
			if got := key(x); got != want {
				t.Errorf("n=%d: key(%v) = %d, want %d", n, x, got, want)
			}
		}
	}
}
