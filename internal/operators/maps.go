package operators

import (
	"math"

	"spinstreams/internal/core"
	"spinstreams/internal/stats"
)

// statelessMeta is the shared profile of tuple-by-tuple operators.
func statelessMeta(outSel float64) Meta {
	return Meta{Kind: core.KindStateless, OutputSelectivity: outSel}
}

// identity forwards tuples unchanged; the cheapest possible map, useful to
// model relay/routing stages.
type identity struct{}

func newIdentity(Spec) (Operator, error) { return identity{}, nil }

func (identity) Name() string                { return "identity" }
func (identity) Meta() Meta                  { return statelessMeta(1) }
func (identity) Clone() Operator             { return identity{} }
func (identity) Process(in Tuple, emit Emit) { emit(in) }

// scale multiplies every field by a constant factor.
type scale struct{ factor float64 }

func newScale(spec Spec) (Operator, error) {
	f := spec.Param
	if f == 0 {
		f = 2
	}
	return &scale{factor: f}, nil
}

func (s *scale) Name() string    { return "scale" }
func (s *scale) Meta() Meta      { return statelessMeta(1) }
func (s *scale) Clone() Operator { c := *s; return &c }
func (s *scale) Process(in Tuple, emit Emit) {
	out := in
	out.Fields = make([]float64, len(in.Fields))
	for i, f := range in.Fields {
		out.Fields[i] = f * s.factor
	}
	emit(out)
}

// affine applies a*x + b to every field; models unit conversions and
// calibration stages.
type affine struct{ a, b float64 }

func newAffine(spec Spec) (Operator, error) {
	a := spec.Param
	if a == 0 {
		a = 1.5
	}
	return &affine{a: a, b: 1}, nil
}

func (op *affine) Name() string    { return "affine" }
func (op *affine) Meta() Meta      { return statelessMeta(1) }
func (op *affine) Clone() Operator { c := *op; return &c }
func (op *affine) Process(in Tuple, emit Emit) {
	out := in
	out.Fields = make([]float64, len(in.Fields))
	for i, f := range in.Fields {
		out.Fields[i] = op.a*f + op.b
	}
	emit(out)
}

// magnitude appends the Euclidean norm of the fields as a derived
// attribute; a typical feature-extraction map.
type magnitude struct{}

func newMagnitude(Spec) (Operator, error) { return magnitude{}, nil }

func (magnitude) Name() string    { return "magnitude" }
func (magnitude) Meta() Meta      { return statelessMeta(1) }
func (magnitude) Clone() Operator { return magnitude{} }
func (magnitude) Process(in Tuple, emit Emit) {
	sum := 0.0
	for _, f := range in.Fields {
		sum += f * f
	}
	out := in
	out.Fields = append(append([]float64(nil), in.Fields...), math.Sqrt(sum))
	emit(out)
}

// normalize rescales the fields to unit norm; zero vectors pass unchanged.
type normalize struct{}

func newNormalize(Spec) (Operator, error) { return normalize{}, nil }

func (normalize) Name() string    { return "normalize" }
func (normalize) Meta() Meta      { return statelessMeta(1) }
func (normalize) Clone() Operator { return normalize{} }
func (normalize) Process(in Tuple, emit Emit) {
	sum := 0.0
	for _, f := range in.Fields {
		sum += f * f
	}
	if sum == 0 {
		emit(in)
		return
	}
	norm := math.Sqrt(sum)
	out := in
	out.Fields = make([]float64, len(in.Fields))
	for i, f := range in.Fields {
		out.Fields[i] = f / norm
	}
	emit(out)
}

// thresholdFilter passes tuples whose first field exceeds the threshold.
// Its output selectivity is the expected pass rate, which the profiler
// measures; the default assumes a uniform [0,1) field and threshold 0.5.
type thresholdFilter struct {
	threshold float64
	passRate  float64
}

func newThresholdFilter(spec Spec) (Operator, error) {
	th := spec.Param
	if th == 0 {
		th = 0.5
	}
	pass := 1 - th
	if pass <= 0 || pass > 1 {
		pass = 0.5
	}
	return &thresholdFilter{threshold: th, passRate: pass}, nil
}

func (f *thresholdFilter) Name() string    { return "threshold-filter" }
func (f *thresholdFilter) Meta() Meta      { return statelessMeta(f.passRate) }
func (f *thresholdFilter) Clone() Operator { c := *f; return &c }
func (f *thresholdFilter) Process(in Tuple, emit Emit) {
	if in.Field(0) > f.threshold {
		emit(in)
	}
}

// rangeFilter passes tuples whose first field lies in [lo, hi).
type rangeFilter struct {
	lo, hi   float64
	passRate float64
}

func newRangeFilter(spec Spec) (Operator, error) {
	width := spec.Param
	if width <= 0 || width > 1 {
		width = 0.6
	}
	lo := (1 - width) / 2
	return &rangeFilter{lo: lo, hi: lo + width, passRate: width}, nil
}

func (f *rangeFilter) Name() string    { return "range-filter" }
func (f *rangeFilter) Meta() Meta      { return statelessMeta(f.passRate) }
func (f *rangeFilter) Clone() Operator { c := *f; return &c }
func (f *rangeFilter) Process(in Tuple, emit Emit) {
	if v := in.Field(0); v >= f.lo && v < f.hi {
		emit(in)
	}
}

// sampler passes each tuple with probability rate; a load-shedding-style
// probabilistic filter. The decision hashes the tuple's identity (Seq,
// Key) with the seed, so every replica, and every re-run, passes the same
// tuples.
type sampler struct {
	rate float64
	seed uint64
}

func newSampler(spec Spec) (Operator, error) {
	rate := spec.Param
	if rate <= 0 || rate > 1 {
		rate = 0.25
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &sampler{rate: rate, seed: seed}, nil
}

func (s *sampler) Name() string    { return "sampler" }
func (s *sampler) Meta() Meta      { return statelessMeta(s.rate) }
func (s *sampler) Clone() Operator { c := *s; return &c }
func (s *sampler) Process(in Tuple, emit Emit) {
	h := stats.Mix64(stats.Mix64(in.Seq^s.seed) + in.Key)
	if float64(h>>11)/(1<<53) < s.rate {
		emit(in)
	}
}

// splitter emits k copies of each input, each tagged with a distinct shard
// field; models flatmap-style record expansion (output selectivity > 1).
type splitter struct{ k int }

func newSplitter(spec Spec) (Operator, error) {
	k := spec.K
	if k <= 0 {
		k = 3
	}
	return &splitter{k: k}, nil
}

func (s *splitter) Name() string    { return "splitter" }
func (s *splitter) Meta() Meta      { return statelessMeta(float64(s.k)) }
func (s *splitter) Clone() Operator { c := *s; return &c }
func (s *splitter) Process(in Tuple, emit Emit) {
	for i := 0; i < s.k; i++ {
		out := in
		out.Fields = append(append([]float64(nil), in.Fields...), float64(i))
		emit(out)
	}
}

// projection keeps only the first k fields; models column pruning.
type projection struct{ k int }

func newProjection(spec Spec) (Operator, error) {
	k := spec.K
	if k <= 0 {
		k = 1
	}
	return &projection{k: k}, nil
}

func (p *projection) Name() string    { return "projection" }
func (p *projection) Meta() Meta      { return statelessMeta(1) }
func (p *projection) Clone() Operator { c := *p; return &c }
func (p *projection) Process(in Tuple, emit Emit) {
	k := p.k
	if k > len(in.Fields) {
		k = len(in.Fields)
	}
	out := in
	out.Fields = append([]float64(nil), in.Fields[:k]...)
	emit(out)
}

// keyBy re-keys tuples by hashing the first field into a key domain of
// NumKeys values; the standard preparation stage ahead of keyed state.
type keyBy struct{ numKeys int }

func newKeyBy(spec Spec) (Operator, error) {
	n := spec.NumKeys
	if n <= 0 {
		n = 64
	}
	return &keyBy{numKeys: n}, nil
}

func (k *keyBy) Name() string    { return "keyby" }
func (k *keyBy) Meta() Meta      { return statelessMeta(1) }
func (k *keyBy) Clone() Operator { c := *k; return &c }
func (k *keyBy) Process(in Tuple, emit Emit) {
	out := in
	out.Key = keyOf(in.Field(0), k.numKeys)
	emit(out)
}

// keyOf maps x to one of n keys by its magnitude in millionths, the same
// on every platform. Converting a float to an integer is only defined when
// the value fits, so larger magnitudes (integers already) are reduced in
// floating point, exactly, and NaN and ±Inf get key 0.
func keyOf(x float64, n int) uint64 {
	v := math.Abs(x) * 1e6
	switch {
	case v < 1<<63:
		return uint64(v) % uint64(n)
	case math.IsNaN(v) || math.IsInf(v, 0):
		return 0
	default:
		return uint64(math.Mod(v, float64(n)))
	}
}
