package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spinstreams/internal/randtopo"
)

// lineCol is the brute-force reference for the scan's positions: count
// the newlines before a byte offset from the start of the document.
func lineCol(data []byte, off int64) Pos {
	line := 1 + bytes.Count(data[:off], []byte{'\n'})
	col := int(off) - bytes.LastIndexByte(data[:off], '\n')
	return Pos{Line: line, Col: col}
}

// referencePositions is scanPositions with every position recomputed by
// lineCol from the start tag's byte offset — quadratic, but obviously
// right.
func referencePositions(data []byte) *Positions {
	dec := xml.NewDecoder(bytes.NewReader(data))
	pos := &Positions{}
	var cur *OperatorPos
	depth := 0
	for {
		start := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			if err == io.EOF {
				return pos
			}
			return nil
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			p := lineCol(data, start)
			switch {
			case depth == 2 && t.Name.Local == "operator":
				pos.Operators = append(pos.Operators, OperatorPos{Start: p})
				cur = &pos.Operators[len(pos.Operators)-1]
			case depth == 3 && cur != nil && t.Name.Local == "output":
				cur.Outputs = append(cur.Outputs, p)
			case depth == 3 && cur != nil && t.Name.Local == "key":
				cur.Keys = append(cur.Keys, p)
			}
		case xml.EndElement:
			depth--
			if depth < 2 {
				cur = nil
			}
		}
	}
}

// TestScanPositionsMatchesReference holds the single-pass scan to the
// brute-force positions on every shipped topology document, on
// randtopo-written ones, and on a CRLF document with comments and
// multi-line tags.
func TestScanPositionsMatchesReference(t *testing.T) {
	docs := map[string][]byte{}
	for _, pattern := range []string{
		"testdata/*.xml", "testdata/lint/*.xml", "bench/workloads/*.xml", "examples/*/*.xml",
	} {
		paths, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			docs[path] = data
		}
	}
	if len(docs) < 20 {
		t.Fatalf("found %d shipped documents, want the whole corpus", len(docs))
	}
	for seed := uint64(1); seed <= 20; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, "randtopo", g.Topology); err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("randtopo seed %d", seed)] = buf.Bytes()
	}
	docs["crlf"] = []byte(strings.ReplaceAll(`<?xml version="1.0"?>
<!-- a comment
     spanning lines -->
<topology name="crlf">
  <operator name="a" type="source" serviceTime="1ms"><output to="b" probability="1"/></operator>
  <!-- <operator name="ghost"/> -->
  <operator
      name="b" type="partitioned-stateful" serviceTime="1ms">
    <key frequency="0.5"/>	<key frequency="0.5"/>
    <output to="c"
            probability="1"/>
  </operator>
  <operator name="c" type="sink" serviceTime="1ms"/>
</topology>
`, "\n", "\r\n"))

	for name, data := range docs {
		want := referencePositions(data)
		if want == nil || len(want.Operators) == 0 {
			t.Fatalf("%s: reference scan found no operators", name)
		}
		if got := scanPositions(data); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: positions differ\n got %+v\nwant %+v", name, got, want)
		}
	}
}
