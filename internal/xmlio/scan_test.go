package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/randtopo"
)

// TestScannerTakesEveryWrittenDocument: the byte scanner itself, not the
// encoding/xml fall-back, reads every document this repository ships or
// writes, and reads it as the Token decoder does. A scanner that
// declined them would still pass the differential tests, only slowly.
func TestScannerTakesEveryWrittenDocument(t *testing.T) {
	docs := shippedDocuments(t)
	write := func(name string, doc *Document) {
		var buf bytes.Buffer
		if err := writeDoc(&buf, doc); err != nil {
			t.Fatal(err)
		}
		docs[name] = buf.Bytes()
	}
	for seed := uint64(1); seed <= 200; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("randtopo-%d", seed)
		write(name, ToDocument(name, g.Topology))
		replicas := make([]int, g.Topology.Len())
		for i := range replicas {
			replicas[i] = 1 + (i+int(seed))%3
		}
		doc, err := ToDocumentOptimized(name, g.Topology, replicas)
		if err != nil {
			t.Fatal(err)
		}
		doc.Operators[0].Fused = []FusedDoc{{Name: "m1"}, {Name: "m2"}}
		write(name+" optimized", doc)
	}
	// A keyed chain like the benchmark's: µs service times, 64 keys.
	chain := core.NewTopology()
	freq, sum := make([]float64, 64), 0.0
	for i := range freq {
		freq[i] = 1 / float64(i+1)
		sum += freq[i]
	}
	for i := range freq {
		freq[i] /= sum
	}
	var prev core.OpID
	for i, op := range []core.Operator{
		{Name: "src", Kind: core.KindSource, ServiceTime: 40e-6},
		{Name: "win", Kind: core.KindPartitionedStateful, ServiceTime: 120e-6, Impl: "winsum", Keys: &core.KeyDistribution{Freq: freq}},
		{Name: "sink", Kind: core.KindSink, ServiceTime: 5e-6},
	} {
		id, err := chain.AddOperator(op)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := chain.Connect(prev, id, 1); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	var buf bytes.Buffer
	if err := Write(&buf, "keyed", chain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`serviceTime="120µs"`)) {
		t.Fatalf("chain written without µs service times:\n%s", buf.Bytes())
	}
	docs["keyed chain"] = buf.Bytes()

	for name, data := range docs {
		doc, pos, ok := scan(data)
		if !ok {
			t.Errorf("%s: the scanner declined it", name)
			continue
		}
		want, wantPos, err := decode(xml.NewDecoder(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(doc, want) || !reflect.DeepEqual(pos, wantPos) {
			t.Errorf("%s: the scanner and the Token decoder differ\n got %+v %+v\nwant %+v %+v", name, doc, pos, want, wantPos)
		}
	}
}
