package xmlio

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/randtopo"
)

const sampleXML = `<?xml version="1.0"?>
<topology name="sample">
  <operator name="src" type="source" serviceTime="1ms" impl="source">
    <output to="map" probability="0.7"/>
    <output to="agg" probability="0.3"/>
  </operator>
  <operator name="map" type="stateless" serviceTime="500us" impl="scale">
    <output to="sink" probability="1"/>
  </operator>
  <operator name="agg" type="partitioned-stateful" serviceTime="2ms" impl="wsum" inputSelectivity="10">
    <key frequency="0.5"/>
    <key frequency="0.3"/>
    <key frequency="0.2"/>
    <output to="sink" probability="1"/>
  </operator>
  <operator name="sink" type="sink" serviceTime="0.0001"/>
</topology>
`

func TestReadSample(t *testing.T) {
	topo, err := Read(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Len() != 4 {
		t.Fatalf("operators = %d, want 4", topo.Len())
	}
	src, ok := topo.Lookup("src")
	if !ok || topo.Op(src).Kind != core.KindSource {
		t.Fatal("source not parsed")
	}
	if got := topo.Op(src).ServiceTime; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("source service time = %v, want 0.001", got)
	}
	mp, _ := topo.Lookup("map")
	if got := topo.Op(mp).ServiceTime; math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("map service time = %v (500us)", got)
	}
	agg, _ := topo.Lookup("agg")
	aggOp := topo.Op(agg)
	if aggOp.Kind != core.KindPartitionedStateful || aggOp.Keys == nil || len(aggOp.Keys.Freq) != 3 {
		t.Fatalf("agg parsed wrong: %+v", aggOp)
	}
	if aggOp.InputSelectivity != 10 {
		t.Errorf("agg input selectivity = %v", aggOp.InputSelectivity)
	}
	if len(topo.Out(src)) != 2 || topo.Out(src)[0].Prob != 0.7 {
		t.Errorf("source edges wrong: %+v", topo.Out(src))
	}
	// The parsed topology is immediately analyzable.
	if _, err := core.SteadyState(topo); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	var buf bytes.Buffer
	if err := Write(&buf, "paper", topo); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	if back.Len() != topo.Len() || back.NumEdges() != topo.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d ops, %d/%d edges",
			back.Len(), topo.Len(), back.NumEdges(), topo.NumEdges())
	}
	a1, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.SteadyState(back)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Throughput()-a2.Throughput()) > 1e-6*a1.Throughput() {
		t.Errorf("throughput changed: %v -> %v", a1.Throughput(), a2.Throughput())
	}
}

func TestRoundTripRandomTopologies(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, "rand", g.Topology); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a1, err := core.SteadyState(g.Topology)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a2, err := core.SteadyState(back)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range a1.Delta {
			j, ok := back.Lookup(g.Topology.Op(core.OpID(i)).Name)
			if !ok {
				t.Fatalf("seed %d: operator lost in round trip", seed)
			}
			if math.Abs(a1.Delta[i]-a2.Delta[j]) > 1e-6*(a1.Delta[i]+1) {
				t.Fatalf("seed %d: delta changed for op %d", seed, i)
			}
		}
	}
}

func TestKeysFile(t *testing.T) {
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.txt")
	if err := os.WriteFile(keysPath, []byte("# comment\n0.6\n\n0.4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	xmlPath := filepath.Join(dir, "topo.xml")
	doc := `<topology name="t">
  <operator name="src" type="source" serviceTime="1ms">
    <output to="agg" probability="1"/>
  </operator>
  <operator name="agg" type="partitioned-stateful" serviceTime="2ms" keysFile="keys.txt"/>
</topology>`
	if err := os.WriteFile(xmlPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := ReadFile(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	agg, _ := topo.Lookup("agg")
	freq := topo.Op(agg).Keys.Freq
	if len(freq) != 2 || freq[0] != 0.6 || freq[1] != 0.4 {
		t.Fatalf("keys = %v", freq)
	}
	// Only the file readers resolve key files.
	if _, _, err := ReadOptimized(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "no key loader") {
		t.Errorf("ReadOptimized resolved a key file: %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":               "nope",
		"empty topology":        `<topology name="t"></topology>`,
		"unknown type":          `<topology><operator name="a" type="alien" serviceTime="1ms"/></topology>`,
		"bad service time":      `<topology><operator name="a" type="source" serviceTime="fast"/></topology>`,
		"negative service time": `<topology><operator name="a" type="source" serviceTime="-1ms"/></topology>`,
		"unknown target": `<topology>
			<operator name="a" type="source" serviceTime="1ms"><output to="ghost" probability="1"/></operator>
		</topology>`,
		"partitioned without keys": `<topology>
			<operator name="a" type="source" serviceTime="1ms"><output to="b" probability="1"/></operator>
			<operator name="b" type="partitioned-stateful" serviceTime="1ms"/>
		</topology>`,
		"keysFile without loader": `<topology>
			<operator name="a" type="source" serviceTime="1ms"><output to="b" probability="1"/></operator>
			<operator name="b" type="partitioned-stateful" serviceTime="1ms" keysFile="x.txt"/>
		</topology>`,
		"probabilities not 1": `<topology>
			<operator name="a" type="source" serviceTime="1ms"><output to="b" probability="0.5"/></operator>
			<operator name="b" type="sink" serviceTime="1ms"/>
		</topology>`,
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCyclicTopology(t *testing.T) {
	// Feedback edges are legal at the format level (the cyclic analysis
	// consumes them); the acyclic algorithms still reject them.
	doc := `<topology>
		<operator name="a" type="source" serviceTime="1ms"><output to="b" probability="1"/></operator>
		<operator name="b" type="stateless" serviceTime="1ms"><output to="c" probability="0.5"/><output to="d" probability="0.5"/></operator>
		<operator name="c" type="stateless" serviceTime="1ms"><output to="b" probability="1"/></operator>
		<operator name="d" type="sink" serviceTime="1ms"/>
	</topology>`
	topo, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.SteadyState(topo); !errors.Is(err, core.ErrCyclic) {
		t.Errorf("acyclic analysis: got %v, want ErrCyclic", err)
	}
	if _, err := core.SteadyStateCyclic(topo); err != nil {
		t.Errorf("cyclic analysis failed: %v", err)
	}
}

func TestParseServiceTime(t *testing.T) {
	tests := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"1ms", 0.001, true},
		{"300us", 0.0003, true},
		{"2s", 2, true},
		{"0.0012", 0.0012, true},
		{" 5ms ", 0.005, true},
		{"", 0, false},
		{"-1ms", 0, false},
		{"0", 0, false},
		{"abc", 0, false},
	}
	for _, tc := range tests {
		got, err := ParseServiceTime(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseServiceTime(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("ParseServiceTime(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLoadKeyFileErrors(t *testing.T) {
	if _, err := LoadKeyFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("0.5\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyFile(bad); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestWriteFile(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	path := filepath.Join(t.TempDir(), "out.xml")
	if err := WriteFile(path, "paper", topo); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != topo.Len() {
		t.Fatal("file round trip changed topology")
	}
}
