package operators

import (
	"sort"

	"spinstreams/internal/core"
	"spinstreams/internal/window"
)

// reduction folds a window's content, given as its two oldest-first
// segments (window.Count.Segments), into one value.
type reduction func(older, newer []float64) float64

// aggregate is the shared machinery of the windowed aggregation operators:
// a partitioned-stateful count window per key, created on the key's first
// tuple, plus a reduction applied to the window content on every fire.
type aggregate struct {
	name    string
	length  int
	slide   int
	numKeys int
	// newReduce builds a fresh reduction closure; Clone re-invokes it so
	// replicas never share reduction scratch state.
	newReduce func() reduction
	reduce    reduction
	byKey     map[uint64]*window.Count[float64]
}

func newAggregate(name string, spec Spec, newReduce func() reduction) *aggregate {
	length, slide := windowOf(spec)
	numKeys := spec.NumKeys
	if numKeys <= 0 {
		numKeys = 64
	}
	return &aggregate{
		name:      name,
		length:    length,
		slide:     slide,
		numKeys:   numKeys,
		newReduce: newReduce,
		reduce:    newReduce(),
		byKey:     make(map[uint64]*window.Count[float64]),
	}
}

func (a *aggregate) Name() string { return a.name }

func (a *aggregate) Meta() Meta {
	return Meta{
		Kind:             core.KindPartitionedStateful,
		InputSelectivity: float64(a.slide),
		NumKeys:          a.numKeys,
	}
}

func (a *aggregate) Clone() Operator {
	c := *a
	c.byKey = make(map[uint64]*window.Count[float64])
	c.reduce = a.newReduce()
	return &c
}

func (a *aggregate) Process(in Tuple, emit Emit) {
	w, ok := a.byKey[in.Key]
	if !ok {
		w = window.MustCount[float64](a.length, a.slide)
		a.byKey[in.Key] = w
	}
	if !w.Add(in.Field(0)) {
		return
	}
	out := in
	out.Fields = []float64{a.reduce(w.Segments())}
	emit(out)
}

// statelessReduce adapts a pure reduction to the factory contract.
func statelessReduce(f reduction) func() reduction {
	return func() reduction { return f }
}

// newWMA builds the weighted moving average aggregation: recent items weigh
// linearly more than old ones.
func newWMA(spec Spec) (Operator, error) {
	return newAggregate("wma", spec, statelessReduce(func(older, newer []float64) float64 {
		num, den, i := 0.0, 0.0, 0
		for _, seg := range [2][]float64{older, newer} {
			for _, x := range seg {
				i++
				w := float64(i)
				num += w * x
				den += w
			}
		}
		if den == 0 {
			return 0
		}
		return num / den
	})), nil
}

// newWindowedSum sums the window content.
func newWindowedSum(spec Spec) (Operator, error) {
	return newAggregate("wsum", spec, statelessReduce(func(older, newer []float64) float64 {
		s := 0.0
		for _, seg := range [2][]float64{older, newer} {
			for _, x := range seg {
				s += x
			}
		}
		return s
	})), nil
}

// extreme scans the window oldest first, keeping the running element unless
// a later one beats it; a NaN is the result only when it is the oldest.
func extreme(beats func(x, m float64) bool) reduction {
	return func(older, newer []float64) float64 {
		if len(older) == 0 {
			return 0
		}
		m := older[0]
		for _, seg := range [2][]float64{older[1:], newer} {
			for _, x := range seg {
				if beats(x, m) {
					m = x
				}
			}
		}
		return m
	}
}

// newWindowedMax reduces the window to its maximum.
func newWindowedMax(spec Spec) (Operator, error) {
	return newAggregate("wmax", spec, statelessReduce(extreme(func(x, m float64) bool { return x > m }))), nil
}

// newWindowedMin reduces the window to its minimum.
func newWindowedMin(spec Spec) (Operator, error) {
	return newAggregate("wmin", spec, statelessReduce(extreme(func(x, m float64) bool { return x < m }))), nil
}

// newWindowedQuantile computes the q-quantile (Param, default median) of
// the window by sorting a per-replica scratch copy.
func newWindowedQuantile(spec Spec) (Operator, error) {
	q := quantileOf(spec)
	return newAggregate("wquantile", spec, func() reduction {
		var buf []float64
		return func(older, newer []float64) float64 {
			buf = append(append(buf[:0], older...), newer...)
			sort.Float64s(buf)
			if len(buf) == 0 {
				return 0
			}
			idx := int(q * float64(len(buf)-1))
			return buf[idx]
		}
	}), nil
}
