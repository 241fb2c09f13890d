package xmlio_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/opt"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/xmlio"
)

// roundTrip writes t (+replicas) to a file and reads it back.
func roundTrip(t *testing.T, topo *core.Topology, replicas []int) (*core.Topology, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "roundtrip.xml")
	if err := xmlio.WriteFileOptimized(path, "roundtrip", topo, replicas); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, reps, err := xmlio.ReadFileOptimized(path)
	data, _ := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v\nxml:\n%s", err, data)
	}
	// The reader form is the same decoder: same topology, same degrees.
	fromReader, readerReps, err := xmlio.ReadOptimized(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadOptimized: %v", err)
	}
	if fromReader.Fingerprint() != got.Fingerprint() || fmt.Sprint(readerReps) != fmt.Sprint(reps) {
		t.Errorf("ReadOptimized read %v, ReadFileOptimized %v", readerReps, reps)
	}
	return got, reps
}

// sameTopology asserts bit-exact equality via the fingerprint (which
// covers names, kinds, exact service-time/selectivity/probability bits,
// key distributions, impl references, fused members and edges), plus a
// structural spot check so a fingerprint bug cannot mask a mismatch.
func sameTopology(t *testing.T, want, got *core.Topology) {
	t.Helper()
	if want.Len() != got.Len() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shape differs: %d ops/%d edges vs %d/%d",
			got.Len(), got.NumEdges(), want.Len(), want.NumEdges())
	}
	if want.String() != got.String() {
		t.Errorf("topology differs:\n--- want\n%s--- got\n%s", want.String(), got.String())
	}
	if want.Fingerprint() != got.Fingerprint() {
		t.Errorf("fingerprint %016x != %016x", got.Fingerprint(), want.Fingerprint())
	}
}

// TestRoundTripCorpus: Read(xmlio.Write(t)) ≡ t over the shipped corpus (the
// fuzz seed set).
func TestRoundTripCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			topo, err := xmlio.ReadFile(path)
			if err != nil {
				t.Fatalf("read corpus file: %v", err)
			}
			got, reps := roundTrip(t, topo, nil)
			sameTopology(t, topo, got)
			for i, n := range reps {
				if n != 1 {
					t.Errorf("plain write produced replica degree %d at %d", n, i)
				}
			}
		})
	}
}

// TestRoundTripRandtopo: the property over generated graphs, which
// exercise partitioned-stateful key distributions, skewed probabilities
// and every operator kind.
func TestRoundTripRandtopo(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, _ := roundTrip(t, g.Topology, nil)
		sameTopology(t, g.Topology, got)
	}
}

// TestRoundTripOptimized: a pipeline-optimized topology — fused
// meta-operators plus fission replica degrees — survives the trip.
func TestRoundTripOptimized(t *testing.T) {
	for _, variant := range []core.PaperExampleVariant{core.PaperExampleTable1, core.PaperExampleTable2} {
		topo, _ := core.PaperExampleTopology(variant)
		res, err := opt.Run(topo, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		final := res.Final.Topology()
		got, reps := roundTrip(t, final, res.Replicas())
		sameTopology(t, final, got)
		for i, n := range res.Replicas() {
			if reps[i] != n {
				t.Errorf("variant %v: operator %d replicas %d != %d", variant, i, reps[i], n)
			}
		}
	}

	// A replicated randtopo graph, bottlenecked so fission kicks in.
	g, err := randtopo.Generate(randtopo.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run(g.Topology, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replicated := false
	for _, n := range res.Replicas() {
		if n > 1 {
			replicated = true
		}
	}
	if !replicated {
		t.Fatal("seed 42 produced no replication; pick another seed")
	}
	final := res.Final.Topology()
	got, reps := roundTrip(t, final, res.Replicas())
	sameTopology(t, final, got)
	for i, n := range res.Replicas() {
		if reps[i] != n {
			t.Errorf("operator %d replicas %d != %d", i, reps[i], n)
		}
	}
}

// TestRoundTripRejectsBadReplicas pins the validation paths.
func TestRoundTripRejectsBadReplicas(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	var buf bytes.Buffer
	if err := xmlio.WriteOptimized(&buf, "bad", topo, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := xmlio.WriteOptimized(&buf, "bad", topo, []int{0, 1, 1, 1, 1, 1}); err == nil {
		t.Error("zero replica degree accepted")
	}
}
