package runtime

import (
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// routeTuples is how many tuples each routing gate routes.
const routeTuples = 100_000

// chiSquare is Pearson's statistic of counts against the probabilities
// of their cells.
func chiSquare(counts []int, probs []float64) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	x := 0.0
	for i, c := range counts {
		want := probs[i] * float64(n)
		x += (float64(c) - want) * (float64(c) - want) / want
	}
	return x
}

// chiCritical holds the chi-square 0.999 quantile by degrees of freedom:
// a fair split's statistic exceeds it with probability 1/1000. The hash
// is deterministic, so a gate either always passes or always fails.
var chiCritical = map[int]float64{2: 13.816, 3: 16.266, 8: 26.124}

// splitRig plans a topology built from probabilistic splits and routes
// tuples through the stations' own outboxes, one output at a time.
type splitRig struct {
	t   *core.Topology
	p   *plan.Plan
	box map[string]*outbox
}

func newSplitRig(tb testing.TB, ops []string, edges []core.Edge) *splitRig {
	tb.Helper()
	t := core.NewTopology()
	for i, name := range ops {
		kind := core.KindStateless
		if i == 0 {
			kind = core.KindSource
		}
		t.MustAddOperator(core.Operator{Name: name, Kind: kind, ServiceTime: 0.001})
	}
	for _, e := range edges {
		t.MustConnect(e.From, e.To, e.Prob)
	}
	p, err := plan.Build(t, plan.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	r := &splitRig{t: t, p: p, box: make(map[string]*outbox)}
	e := &engine{cfg: Config{Batch: 8}}
	for i := range p.Stations {
		r.box[p.Stations[i].Name] = e.newOutbox(&tables{p: p}, &p.Stations[i])
	}
	return r
}

// route runs one output of one call at station from and returns the
// index of the edge it took.
func (r *splitRig) route(from string, tup operators.Tuple) int {
	out := r.box[from]
	out.emits = 0
	out.add(&tup, -1)
	for i, buf := range out.bufs {
		if len(buf) > 0 {
			out.bufs[i] = buf[:0]
			return i
		}
	}
	return -1
}

// next names the station edge i of station from leads to.
func (r *splitRig) next(from string, i int) string {
	st := &r.p.Stations[r.p.EntryOf[r.mustLookup(from)]]
	return r.p.Stations[st.Out[i].To].Name
}

func (r *splitRig) mustLookup(name string) core.OpID {
	id, ok := r.t.Lookup(name)
	if !ok {
		panic("no operator " + name)
	}
	return id
}

// gate fails the test when counts do not fit probs.
func gate(t *testing.T, what string, counts []int, probs []float64) {
	t.Helper()
	df := len(counts) - 1
	if x := chiSquare(counts, probs); x > chiCritical[df] {
		t.Errorf("%s: chi-square %.1f over %d degrees of freedom exceeds %.1f; counts %v, probabilities %v",
			what, x, df, chiCritical[df], counts, probs)
	}
}

// tuples yields the generator's first routeTuples tuples.
func tuples(t *testing.T, yield func(operators.Tuple)) {
	t.Helper()
	gen, err := operators.NewGenerator(operators.GeneratorConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < routeTuples; i++ {
		yield(gen.Next())
	}
}

// TestRouteSplitsMatchDeclaredProbabilities is Algorithm 1's premise for
// tuple-hash routing: each probabilistic split sends its declared share
// of the tuples down each edge, and successive splits decide
// independently. A split right after a split, and the join of a diamond,
// see the same tuple (Seq, Key) the first split saw; only the producing
// operator's identity in the hash keeps their choices independent. The k
// outputs a splitter emits for one input share Seq and Key; only their
// emit index keeps them from taking one edge together.
func TestRouteSplitsMatchDeclaredProbabilities(t *testing.T) {
	t.Run("3-way", func(t *testing.T) {
		r := newSplitRig(t, []string{"src", "a", "b", "c"}, []core.Edge{
			{From: 0, To: 1, Prob: 0.5}, {From: 0, To: 2, Prob: 0.3}, {From: 0, To: 3, Prob: 0.2},
		})
		counts := make([]int, 3)
		tuples(t, func(tup operators.Tuple) { counts[r.route("src", tup)]++ })
		gate(t, "src split", counts, []float64{0.5, 0.3, 0.2})
	})
	t.Run("split after split", func(t *testing.T) {
		// src -> a; a splits to b/c; b splits to d/e.
		r := newSplitRig(t, []string{"src", "a", "b", "c", "d", "e"}, []core.Edge{
			{From: 0, To: 1, Prob: 1},
			{From: 1, To: 2, Prob: 0.6}, {From: 1, To: 3, Prob: 0.4},
			{From: 2, To: 4, Prob: 0.7}, {From: 2, To: 5, Prob: 0.3},
		})
		paths := make([]int, 3) // b then d, b then e, c
		tuples(t, func(tup operators.Tuple) {
			if r.next("a", r.route("a", tup)) != "b" {
				paths[2]++
				return
			}
			paths[r.route("b", tup)]++
		})
		gate(t, "a then b", paths, []float64{0.6 * 0.7, 0.6 * 0.3, 0.4})
	})
	t.Run("diamond", func(t *testing.T) {
		// src -> a; a splits to b/c; both feed d; d splits to e/f.
		r := newSplitRig(t, []string{"src", "a", "b", "c", "d", "e", "f"}, []core.Edge{
			{From: 0, To: 1, Prob: 1},
			{From: 1, To: 2, Prob: 0.5}, {From: 1, To: 3, Prob: 0.5},
			{From: 2, To: 4, Prob: 1}, {From: 3, To: 4, Prob: 1},
			{From: 4, To: 5, Prob: 0.25}, {From: 4, To: 6, Prob: 0.75},
		})
		joint := make([]int, 4) // 2*(a's edge) + d's edge
		tuples(t, func(tup operators.Tuple) {
			joint[2*r.route("a", tup)+r.route("d", tup)]++
		})
		gate(t, "a's branch against d's split", joint, []float64{0.5 * 0.25, 0.5 * 0.75, 0.5 * 0.25, 0.5 * 0.75})
	})
	t.Run("splitter then split", func(t *testing.T) {
		// s runs a splitter emitting 3 copies per input and splits them
		// three ways.
		r := newSplitRig(t, []string{"src", "s", "x", "y", "z"}, []core.Edge{
			{From: 0, To: 1, Prob: 1},
			{From: 1, To: 2, Prob: 0.5}, {From: 1, To: 3, Prob: 0.3}, {From: 1, To: 4, Prob: 0.2},
		})
		exec := opExec(operators.MustBuild(operators.Spec{Impl: "splitter", K: 3}))
		out := r.box["s"]
		probs := []float64{0.5, 0.3, 0.2}
		joint := make([]int, 9) // 3*(copy 0's edge) + copy 1's edge
		var jointProbs []float64
		for _, p := range probs {
			for _, q := range probs {
				jointProbs = append(jointProbs, p*q)
			}
		}
		tuples(t, func(tup operators.Tuple) {
			out.emits = 0
			exec(tup, out)
			var edge [3]int
			for i, buf := range out.bufs {
				for _, o := range buf {
					edge[int(o.Fields[len(o.Fields)-1])] = i
				}
				out.bufs[i] = buf[:0]
			}
			joint[3*edge[0]+edge[1]]++
		})
		gate(t, "a splitter's copies 0 and 1", joint, jointProbs)
	})
}
