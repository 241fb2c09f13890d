package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSteadyStatePipelineNoBottleneck(t *testing.T) {
	// Source slower than every stage: no backpressure anywhere.
	topo, ids := mustPipeline(t, 0.010, 0.002, 0.001)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "throughput", a.Throughput(), 100, 1e-9)
	for _, id := range ids {
		approx(t, "delta", a.Delta[id], 100, 1e-9)
	}
	if a.Bottlenecked() {
		t.Errorf("Limiting = %v, want empty", a.Limiting)
	}
	approx(t, "rho mid", a.Rho[ids[1]], 0.2, 1e-12)
}

func TestSteadyStatePipelineBottleneck(t *testing.T) {
	// Middle stage is 4x slower than the source: throughput capped at 250/s.
	topo, ids := mustPipeline(t, 0.001, 0.004, 0.0001)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "throughput", a.Throughput(), 250, 1e-6)
	approx(t, "rho bottleneck", a.Rho[ids[1]], 1, 1e-9)
	approx(t, "sink delta", a.Delta[ids[2]], 250, 1e-6)
	if len(a.Limiting) != 1 || a.Limiting[0] != ids[1] {
		t.Errorf("Limiting = %v, want [%d]", a.Limiting, ids[1])
	}
	if a.Restarts == 0 {
		t.Error("Restarts = 0, want at least one source correction")
	}
}

func TestSteadyStateSuccessiveBottlenecks(t *testing.T) {
	// Two bottlenecks; the slowest wins. Exercises repeated corrections.
	topo, ids := mustPipeline(t, 0.001, 0.002, 0.005, 0.0001)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "throughput", a.Throughput(), 200, 1e-6)
	approx(t, "rho second", a.Rho[ids[2]], 1, 1e-9)
	// The earlier, milder bottleneck ends below saturation after the final
	// correction.
	if a.Rho[ids[1]] > 1+rhoTolerance {
		t.Errorf("rho[1] = %v, want <= 1", a.Rho[ids[1]])
	}
}

func TestSteadyStatePaperTable1(t *testing.T) {
	topo, _ := PaperExampleTopology(PaperExampleTable1)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Expected per-operator figures from Table 1 (tolerances reflect the
	// paper's 2-digit rounding).
	wantRho := []float64{1.0, 0.84, 0.21, 0.40, 0.225, 0.20}
	wantDelta := []float64{1000, 700, 300, 200, 150, 1000}
	for i := range wantRho {
		approx(t, "rho"+string(rune('1'+i)), a.Rho[i], wantRho[i], 0.01)
		approx(t, "delta"+string(rune('1'+i)), a.Delta[i], wantDelta[i], 0.5)
	}
	approx(t, "throughput", a.Throughput(), 1000, 1e-6)
	if a.Bottlenecked() {
		t.Errorf("Limiting = %v, want empty", a.Limiting)
	}
}

func TestSteadyStatePaperTable2(t *testing.T) {
	topo, _ := PaperExampleTopology(PaperExampleTable2)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	wantRho := []float64{1.0, 0.84, 0.45, 0.54, 0.33, 0.20}
	for i := range wantRho {
		approx(t, "rho", a.Rho[i], wantRho[i], 0.015)
	}
	approx(t, "throughput", a.Throughput(), 1000, 1e-6)
}

func TestSteadyStateInputSelectivity(t *testing.T) {
	// A window with slide 10 consumes 10 items per emitted aggregate.
	topo := NewTopology()
	src := topo.MustAddOperator(Operator{Name: "src", Kind: KindSource, ServiceTime: 0.001})
	win := topo.MustAddOperator(Operator{
		Name: "win", Kind: KindStateful, ServiceTime: 0.0001, InputSelectivity: 10,
	})
	sink := topo.MustAddOperator(Operator{Name: "sink", Kind: KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, win, 1)
	topo.MustConnect(win, sink, 1)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "window delta", a.Delta[win], 100, 1e-9)
	approx(t, "sink lambda", a.Lambda[sink], 100, 1e-9)
	approx(t, "throughput", a.Throughput(), 1000, 1e-9)
}

func TestSteadyStateOutputSelectivity(t *testing.T) {
	// A flatmap emitting 3 items per input can saturate its consumer.
	topo := NewTopology()
	src := topo.MustAddOperator(Operator{Name: "src", Kind: KindSource, ServiceTime: 0.001})
	fm := topo.MustAddOperator(Operator{
		Name: "flatmap", Kind: KindStateless, ServiceTime: 0.0001, OutputSelectivity: 3,
	})
	sink := topo.MustAddOperator(Operator{Name: "sink", Kind: KindSink, ServiceTime: 0.0005})
	topo.MustConnect(src, fm, 1)
	topo.MustConnect(fm, sink, 1)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Sink capacity 2000/s; arrival 3*1000 = 3000/s -> backpressure caps
	// ingestion at 2000/3 items/s.
	approx(t, "throughput", a.Throughput(), 2000.0/3.0, 1e-6)
	approx(t, "sink rho", a.Rho[sink], 1, 1e-9)
	approx(t, "flatmap delta", a.Delta[fm], 2000, 1e-6)
}

func TestSteadyStateFilterSelectivity(t *testing.T) {
	// A filter passing 20% shields the downstream from overload.
	topo := NewTopology()
	src := topo.MustAddOperator(Operator{Name: "src", Kind: KindSource, ServiceTime: 0.001})
	f := topo.MustAddOperator(Operator{
		Name: "filter", Kind: KindStateless, ServiceTime: 0.0001, OutputSelectivity: 0.2,
	})
	sink := topo.MustAddOperator(Operator{Name: "sink", Kind: KindSink, ServiceTime: 0.004})
	topo.MustConnect(src, f, 1)
	topo.MustConnect(f, sink, 1)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Sink sees 200/s against a 250/s capacity: no bottleneck.
	approx(t, "throughput", a.Throughput(), 1000, 1e-9)
	approx(t, "sink rho", a.Rho[sink], 0.8, 1e-9)
}

func TestSteadyStateDiamondSplit(t *testing.T) {
	// Diamond where one branch is saturated; check Theorem 3.2's path
	// weighting: lambda_b = 0.9 * delta1, capacity 500 -> delta1 = 555.5.
	topo := NewTopology()
	src := topo.MustAddOperator(Operator{Name: "src", Kind: KindSource, ServiceTime: 0.001})
	b := topo.MustAddOperator(Operator{Name: "b", Kind: KindStateful, ServiceTime: 0.002})
	c := topo.MustAddOperator(Operator{Name: "c", Kind: KindStateful, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(Operator{Name: "sink", Kind: KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, b, 0.9)
	topo.MustConnect(src, c, 0.1)
	topo.MustConnect(b, sink, 1)
	topo.MustConnect(c, sink, 1)
	a, err := SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "throughput", a.Throughput(), 500/0.9, 1e-6)
	approx(t, "rho b", a.Rho[b], 1, 1e-9)
	approx(t, "sink delta", a.Delta[sink], 500/0.9, 1e-6)
}

func TestSteadyStateRejectsInvalid(t *testing.T) {
	topo := NewTopology()
	if _, err := SteadyState(topo); err == nil {
		t.Fatal("SteadyState on empty topology succeeded")
	}
}

// randomDAG builds a random rooted acyclic topology for property tests.
// Every vertex is reachable from the source and probabilities sum to 1.
func randomDAG(rng *rand.Rand, maxV int) *Topology {
	n := 2 + rng.Intn(maxV-1)
	topo := NewTopology()
	ids := make([]OpID, n)
	for i := 0; i < n; i++ {
		kind := KindStateless
		if i == 0 {
			kind = KindSource
		} else if rng.Intn(4) == 0 {
			kind = KindStateful
		}
		st := 1e-4 + rng.Float64()*1e-2
		var gainIn, gainOut float64
		if i > 0 && rng.Intn(5) == 0 {
			gainOut = 0.25 + rng.Float64()*3
		}
		ids[i] = topo.MustAddOperator(Operator{
			Name:              "v" + itoa(i),
			Kind:              kind,
			ServiceTime:       st,
			InputSelectivity:  gainIn,
			OutputSelectivity: gainOut,
		})
	}
	// Ensure reachability: every vertex (except the source) gets one edge
	// from a random earlier vertex; then sprinkle extras.
	type pair struct{ u, v int }
	seen := map[pair]bool{}
	for i := 1; i < n; i++ {
		u := rng.Intn(i)
		seen[pair{u, i}] = true
	}
	extra := rng.Intn(n)
	for k := 0; k < extra; k++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		seen[pair{u, v}] = true
	}
	// Assign probabilities per source vertex.
	outs := make(map[int][]int)
	for p := range seen {
		outs[p.u] = append(outs[p.u], p.v)
	}
	for u, vs := range outs {
		weights := make([]float64, len(vs))
		sum := 0.0
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
			sum += weights[i]
		}
		for i, v := range vs {
			topo.MustConnect(ids[u], ids[v], weights[i]/sum)
		}
	}
	return topo
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestSteadyStateFlowConservation checks Proposition 3.5 on random DAGs
// with unit selectivity: the source departure rate equals the total sink
// departure rate.
func TestSteadyStateFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		topo := randomDAG(local, 18)
		// Force unit selectivity for this property.
		for i := 0; i < topo.Len(); i++ {
			topo.Op(OpID(i)).InputSelectivity = 0
			topo.Op(OpID(i)).OutputSelectivity = 0
		}
		a, err := SteadyState(topo)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return math.Abs(a.SourceRate-a.SinkRate) <= 1e-6*a.SourceRate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateInvariant checks Invariant 3.1 at termination on random
// DAGs (including selectivity): every utilization factor is <= 1.
func TestSteadyStateInvariant(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := randomDAG(rng, 20)
		a, err := SteadyState(topo)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, rho := range a.Rho {
			if rho > 1+1e-6 {
				t.Fatalf("seed %d: rho[%d] = %v > 1", seed, i, rho)
			}
		}
		if a.Throughput() <= 0 {
			t.Fatalf("seed %d: throughput %v", seed, a.Throughput())
		}
	}
}

// TestSteadyStateMonotoneInServiceTime: slowing any single operator can
// never increase the predicted topology throughput.
func TestSteadyStateMonotoneInServiceTime(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		topo := randomDAG(rng, 15)
		base, err := SteadyState(topo)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		victim := OpID(rng.Intn(topo.Len()))
		slowed := topo.Clone()
		slowed.Op(victim).ServiceTime *= 3
		got, err := SteadyState(slowed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Throughput() > base.Throughput()*(1+1e-9) {
			t.Fatalf("seed %d: slowing op %d raised throughput %v -> %v",
				seed, victim, base.Throughput(), got.Throughput())
		}
	}
}

// TestSteadyStateFastAgrees: the single-pass ablation variant must produce
// the same rates and utilizations as the paper's restart algorithm.
func TestSteadyStateFastAgrees(t *testing.T) {
	check := func(t *testing.T, topo *Topology) {
		t.Helper()
		slow, err := SteadyState(topo)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := SteadyStateFast(topo)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(slow.Throughput()-fast.Throughput()) > 1e-9*(slow.Throughput()+1) {
			t.Fatalf("throughput %v vs %v", slow.Throughput(), fast.Throughput())
		}
		for i := range slow.Delta {
			if math.Abs(slow.Delta[i]-fast.Delta[i]) > 1e-6*(slow.Delta[i]+1) {
				t.Fatalf("delta[%d]: %v vs %v", i, slow.Delta[i], fast.Delta[i])
			}
			if math.Abs(slow.Rho[i]-fast.Rho[i]) > 1e-6 {
				t.Fatalf("rho[%d]: %v vs %v", i, slow.Rho[i], fast.Rho[i])
			}
		}
	}
	t.Run("paper table 1", func(t *testing.T) {
		topo, _ := PaperExampleTopology(PaperExampleTable1)
		check(t, topo)
	})
	t.Run("paper table 2 fused", func(t *testing.T) {
		topo, sub := PaperExampleTopology(PaperExampleTable2)
		fused, _, err := Fuse(topo, nil, sub, "F")
		if err != nil {
			t.Fatal(err)
		}
		check(t, fused)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed + 77000))
			topo := randomDAG(rng, 20)
			check(t, topo)
		}
	})
}
