package operators

import (
	"math"
	"sort"

	"spinstreams/internal/core"
	"spinstreams/internal/window"
)

// skyline computes the Pareto frontier (maximization on every dimension) of
// the points in a count window and emits its size: a point is on the
// frontier if no other point in the window dominates it on all dimensions.
// The state is a single window over the whole stream, so the operator is
// monolithically stateful — it cannot be replicated (Section 5.3 uses such
// operators to create unresolvable bottlenecks).
//
// Instead of the window's points it keeps the eager candidate set of Tao and
// Papadias ("Maintaining Sliding Window Skylines on Data Streams", IEEE TKDE
// 2006): the window points that no newer window point dominates. A point
// dominated by a newer one can never rejoin the frontier, because the newer
// point outlives it, so it is dropped on the dominator's arrival. Each
// candidate counts the candidates that dominate it; the frontier is the
// candidates with a zero count. Dropping relies on dominance being
// transitive, which fails once a coordinate is NaN (a NaN dimension is
// ignored by the comparison), so a point with a NaN never drops a candidate
// and is never dropped: it only takes part in the counts.
type skyline struct {
	dims     int
	fire     window.Trigger
	arrivals uint64
	cands    []candidate // oldest first
	coords   []float64   // dims coordinates per candidate, in cands order
}

type candidate struct {
	born      uint64 // arrival number
	dominated int    // candidates that dominate this one
	nan       bool   // some coordinate is NaN
	gone      bool   // expired or dropped; removed by the next compaction
}

func newSkyline(spec Spec) (Operator, error) {
	length, slide := windowOf(spec)
	return &skyline{dims: dims(spec), fire: window.MustTrigger(length, slide)}, nil
}

func (s *skyline) Name() string { return "skyline" }

func (s *skyline) Meta() Meta {
	return Meta{Kind: core.KindStateful, InputSelectivity: float64(s.fire.Slide())}
}

func (s *skyline) Clone() Operator {
	return &skyline{dims: s.dims, fire: window.MustTrigger(s.fire.Length(), s.fire.Slide())}
}

func (s *skyline) Process(in Tuple, emit Emit) {
	s.arrive(in)
	if !s.fire.Arrive() {
		return
	}
	frontier := 0
	for _, c := range s.cands {
		if c.dominated == 0 {
			frontier++
		}
	}
	out := in
	out.Fields = []float64{float64(frontier)}
	emit(out)
}

// arrive moves the window one point forward: the oldest point leaves once
// the window is full, and the tuple's point joins as the newest candidate.
func (s *skyline) arrive(in Tuple) {
	n, d := len(s.cands), s.dims
	if n > 0 && s.cands[0].born+uint64(s.fire.Length()) == s.arrivals {
		s.cands[0].gone = true
	}
	p := candidate{born: s.arrivals}
	s.arrivals++
	for i := 0; i < d; i++ {
		v := in.Field(i)
		p.nan = p.nan || math.IsNaN(v)
		s.coords = append(s.coords, v)
	}
	pc := s.coords[n*d:]
	removed := n > 0 && s.cands[0].gone
	for i := range s.cands {
		c := &s.cands[i]
		if c.gone {
			continue
		}
		q := s.coords[i*d : (i+1)*d]
		switch {
		case dominates(pc, q):
			if p.nan || c.nan {
				c.dominated++
			} else {
				c.gone, removed = true, true
			}
		case dominates(q, pc):
			p.dominated++
		}
	}
	s.cands = append(s.cands, p)
	if removed {
		s.compact(n)
	}
}

// compact removes the gone candidates, which are among the first n, first
// taking each out of the counts of the older candidates it dominates. The
// new point's count already leaves them out: arrive skipped the expired
// point, and a dropped point never dominates the point that dropped it.
func (s *skyline) compact(n int) {
	d := s.dims
	for i, c := range s.cands[:n] {
		if !c.gone {
			continue
		}
		x := s.coords[i*d : (i+1)*d]
		for j := range s.cands[:n] {
			if !s.cands[j].gone && dominates(x, s.coords[j*d:(j+1)*d]) {
				s.cands[j].dominated--
			}
		}
	}
	kept := 0
	for i, c := range s.cands {
		if c.gone {
			continue
		}
		s.cands[kept] = c
		copy(s.coords[kept*d:(kept+1)*d], s.coords[i*d:(i+1)*d])
		kept++
	}
	s.cands, s.coords = s.cands[:kept], s.coords[:kept*d]
}

// dominates reports whether a >= b on every dimension and a > b on at
// least one.
func dominates(a, b []float64) bool {
	strict := false
	for d := range a {
		if a[d] < b[d] {
			return false
		}
		if a[d] > b[d] {
			strict = true
		}
	}
	return strict
}

// topK maintains the k largest scores (first field) in a count window and
// emits the k-th best on every fire; a window-based top-k query as in
// Upsortable. Like skyline, its single global window makes it stateful.
type topK struct {
	k       int
	win     *window.Count[float64]
	scratch []float64
}

func newTopK(spec Spec) (Operator, error) {
	length, slide := windowOf(spec)
	k := spec.K
	if k <= 0 {
		k = 10
	}
	return &topK{k: k, win: window.MustCount[float64](length, slide)}, nil
}

func (t *topK) Name() string { return "topk" }

func (t *topK) Meta() Meta {
	return Meta{Kind: core.KindStateful, InputSelectivity: float64(t.win.Slide())}
}

func (t *topK) Clone() Operator {
	return &topK{k: t.k, win: window.MustCount[float64](t.win.Length(), t.win.Slide())}
}

func (t *topK) Process(in Tuple, emit Emit) {
	if !t.win.Add(in.Field(0)) {
		return
	}
	t.scratch = t.win.Snapshot(t.scratch[:0])
	sort.Sort(sort.Reverse(sort.Float64Slice(t.scratch)))
	k := t.k
	if k > len(t.scratch) {
		k = len(t.scratch)
	}
	out := in
	out.Fields = append([]float64(nil), t.scratch[:k]...)
	emit(out)
}
