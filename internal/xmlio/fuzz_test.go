package xmlio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// addReadSeeds seeds a fuzz target with every real topology shipped in
// testdata/, so the fuzzer starts from documents that exercise the full
// schema (selectivities, probabilities, retry loops), plus minimal inline
// cases.
func addReadSeeds(f *testing.F) {
	docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	if len(docs) == 0 {
		f.Fatal("no testdata/*.xml corpus found")
	}
	for _, path := range docs {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(sampleXML)
	f.Add(`<topology name="t">
  <operator name="a" type="source" serviceTime="1ms"><output to="b" probability="1"/></operator>
  <operator name="b" type="sink" serviceTime="1ms"/>
</topology>`)
	f.Add(`<topology><operator name="x" type="stateful" serviceTime="0.5"/></topology>`)
	f.Add(`<topology></topology>`)
	f.Add(`not xml at all`)
	f.Add(`<topology><operator name="a" type="partitioned-stateful" serviceTime="1ms">
  <key frequency="0.5"/><key frequency="0.5"/></operator></topology>`)
}

// FuzzRead exercises the XML topology parser with arbitrary input: it must
// never panic, and anything it accepts must round-trip through Write/Read
// to an equally valid topology.
func FuzzRead(f *testing.F) {
	addReadSeeds(f)
	f.Fuzz(func(t *testing.T, doc string) {
		topo, err := Read(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, "fuzz", topo); err != nil {
			t.Fatalf("accepted topology failed to serialize: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\ninput: %q\nxml: %s", err, doc, buf.String())
		}
		if back.Len() != topo.Len() || back.NumEdges() != topo.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d ops, %d/%d edges",
				back.Len(), topo.Len(), back.NumEdges(), topo.NumEdges())
		}
	})
}
