package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
)

// corpusTestOptions is a corpus slice small enough for unit tests but
// covering every workload and mode.
func corpusTestOptions() CorpusOptions {
	return CorpusOptions{Topologies: 3, Horizon: 5, Rounds: 3}
}

func TestCorpusSmoke(t *testing.T) {
	s := setup{Seed: 42}
	opts := corpusTestOptions()
	res, err := corpus(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := opts.Topologies * 4 * 3 // workloads x modes
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}
	if err := checkCorpus(res); err != nil {
		t.Fatalf("corpus check: %v", err)
	}
	for _, row := range res.Rows {
		if len(row.Fingerprint) != 16 {
			t.Fatalf("row %+v: fingerprint %q not 16 hex chars", row, row.Fingerprint)
		}
		if row.Seed == 0 {
			t.Fatalf("row %+v: zero topology seed", row)
		}
		if row.Replicas < row.Operators-1 {
			t.Fatalf("row %+v: fewer worker stations than operators", row)
		}
		if row.Mode == "autotune" && row.Rounds == 0 {
			t.Fatalf("row %+v: autotune consumed no measurement rounds", row)
		}
		if row.VsStatic <= 0 {
			t.Fatalf("row %+v: missing static comparison column", row)
		}
	}
	if len(res.Summaries) != 4 {
		t.Fatalf("summaries = %d, want one per workload", len(res.Summaries))
	}
	// The fingerprints must match regenerating the same testbed.
	bed, err := randtopo.Testbed(randtopo.Config{Seed: 42}, opts.Topologies)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		want := fmt.Sprintf("%016x", bed[row.Topology-1].Topology.Fingerprint())
		if row.Fingerprint != want {
			t.Fatalf("topology %d fingerprint %s, regenerated %s", row.Topology, row.Fingerprint, want)
		}
	}
}

// TestCorpusDeterministic is the differential test pinning the corpus
// export byte for byte: the same seed and config must produce identical
// JSON reports once the timing fields in the metadata are held fixed —
// any nondeterministic map iteration in the registry, runner or reporters
// breaks this.
func TestCorpusDeterministic(t *testing.T) {
	render := func() []byte {
		res, err := corpus(context.Background(), setup{Seed: 7}, corpusTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		// Timing fields zeroed: everything else must be reproducible.
		if err := WriteJSON(&buf, RunMeta{Scenario: "corpus", Seed: 7}, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed and config produced different JSON reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestCorpusRejectsUnknownInputs(t *testing.T) {
	if _, err := corpus(context.Background(), setup{Seed: 1}, CorpusOptions{
		Topologies: 1, Workloads: []string{"nope"},
	}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := corpus(context.Background(), setup{Seed: 1}, CorpusOptions{
		Topologies: 1, Modes: []string{"nope"},
	}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestCorpusStaticOrdering asserts the paper's headline result holds on a
// larger slice: statically optimized throughput at least matches the
// unoptimized deployment on >= 80% of topologies under steady load.
func TestCorpusStaticOrdering(t *testing.T) {
	res, err := corpus(context.Background(), setup{Seed: 42}, CorpusOptions{
		Topologies: 8, Workloads: []string{"steady"}, Horizon: 6, Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCorpus(res); err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Summaries {
		if s.Workload == "steady" && s.StaticGEUnopt < 0.8 {
			t.Fatalf("static >= unopt on only %.0f%% of steady topologies", s.StaticGEUnopt*100)
		}
	}
}

// TestPredictThroughputMatchesSimulation validates the workload
// generators against the queueing model in the regime where it applies:
// measurement windows long against the envelope period. The fluid
// bottleneck-queue approximation tracks steady and diurnal shapes
// closely; bursty on/off arrival (near-zero troughs, queue races) gets a
// loose bound — the corpus records its error rather than hiding it.
func TestPredictThroughputMatchesSimulation(t *testing.T) {
	bed, err := randtopo.Testbed(randtopo.Config{Seed: 42}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tolerance := map[string]float64{"steady": 0.15, "hotkey": 0.20, "diurnal": 0.30, "bursty": 0.60}
	for ti, g := range bed {
		for name, tol := range tolerance {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := qsim.Config{Seed: uint64(1000*ti + len(name)), Horizon: 10, RateEnvelope: w.Envelope}
			deployed := w.Apply(g.Topology)
			sim, err := qsim.SimulateTopology(deployed, nil, cfg)
			if err != nil {
				t.Fatalf("topology %d %s: %v", ti+1, name, err)
			}
			pred, err := predictThroughput(g.Topology, nil, w, cfg)
			if err != nil {
				t.Fatalf("topology %d %s: %v", ti+1, name, err)
			}
			if sim.Throughput <= 0 || pred <= 0 {
				t.Fatalf("topology %d %s: dead measurement sim=%v pred=%v", ti+1, name, sim.Throughput, pred)
			}
			relErr := (pred - sim.Throughput) / sim.Throughput
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > tol {
				t.Errorf("topology %d %s: predicted %.1f measured %.1f (err %.0f%% > %.0f%%)",
					ti+1, name, pred, sim.Throughput, relErr*100, tol*100)
			}
		}
	}
}

func TestWorkloadEnvelopesAverageToOne(t *testing.T) {
	for _, name := range []string{"bursty", "diurnal"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if mean := w.MeanEnvelope(0, 40); mean < 0.9 || mean > 1.1 {
			t.Errorf("%s: envelope mean %.3f over 40s, want ~1 (comparable offered load)", name, mean)
		}
	}
}

func TestWorkloadHotKeyApply(t *testing.T) {
	bed, err := randtopo.Testbed(randtopo.Config{Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	declared := bed[0].Topology
	w, err := workloadByName("hotkey")
	if err != nil {
		t.Fatal(err)
	}
	deployed := w.Apply(declared)
	if deployed == declared {
		t.Fatal("hotkey Apply returned the declared topology unchanged")
	}
	rewritten := 0
	for i := 0; i < declared.Len(); i++ {
		dop, sop := deployed.Op(core.OpID(i)), declared.Op(core.OpID(i))
		if sop.Keys == nil || len(sop.Keys.Freq) < 2 {
			continue
		}
		rewritten++
		if dop.Keys.Freq[0] <= 0.5 {
			t.Errorf("op %d: deployed hot-key share %.2f, want > 0.5", i, dop.Keys.Freq[0])
		}
		if sop.Keys.Freq[0] > 0.5 {
			t.Errorf("op %d: declared distribution was mutated", i)
		}
	}
	if rewritten == 0 {
		t.Skip("testbed entry has no partitioned-stateful operators")
	}
}
