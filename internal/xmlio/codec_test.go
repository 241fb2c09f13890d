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

	"spinstreams/internal/core"
	"spinstreams/internal/randtopo"
)

// The references below are the reflection paths the hand-written codec
// replaced: xml.Unmarshal and xml.Encoder over Document's struct tags,
// plus a position scan with brute-force line/column arithmetic.

// referenceDecode is DecodeDocument's document and error as xml.Unmarshal
// gives them.
func referenceDecode(data []byte) (*Document, error) {
	var doc Document
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("xmlio: parse: %w", err)
	}
	return &doc, nil
}

// referenceWrite is writeDoc's output as xml.Encoder writes it.
func referenceWrite(doc *Document) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// lineCol counts the newlines before a byte offset from the start of the
// document.
func lineCol(data []byte, off int64) Pos {
	line := 1 + bytes.Count(data[:off], []byte{'\n'})
	col := int(off) - bytes.LastIndexByte(data[:off], '\n')
	return Pos{Line: line, Col: col}
}

// referencePositions records where each <operator>, and each <output>
// and <key> directly inside one, starts, by lineCol from the start tag's
// byte offset — quadratic, but obviously right. Like xml.Unmarshal it
// stops at the root's end tag; it returns nil when the tokens up to there
// are malformed.
func referencePositions(data []byte) *Positions {
	dec := xml.NewDecoder(bytes.NewReader(data))
	pos := &Positions{}
	var cur *OperatorPos
	depth := 0
	for {
		start := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
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
			case depth == 2:
				cur = nil
			case depth == 3 && cur != nil && t.Name.Local == "output":
				cur.Outputs = append(cur.Outputs, p)
			case depth == 3 && cur != nil && t.Name.Local == "key":
				cur.Keys = append(cur.Keys, p)
			}
		case xml.EndElement:
			depth--
			if depth == 0 {
				return pos
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkCodec holds the codec to the references on one input: the same
// verdict and error text, a deeply equal document, the reference
// positions, and byte-identical output when the document is written back.
func checkCodec(t *testing.T, data []byte) {
	t.Helper()
	doc, pos, err := DecodeDocument(bytes.NewReader(data))
	want, wantErr := referenceDecode(data)
	if errText(err) != errText(wantErr) {
		t.Fatalf("error %q, encoding/xml says %q\ninput: %q", errText(err), errText(wantErr), data)
	}
	if err != nil {
		return
	}
	// A NaN attribute is not DeepEqual to itself; %#v prints it, and
	// every other value, exactly.
	if !reflect.DeepEqual(doc, want) && fmt.Sprintf("%#v", doc) != fmt.Sprintf("%#v", want) {
		t.Fatalf("document differs\n got %+v\nwant %+v\ninput: %q", doc, want, data)
	}
	if ref := referencePositions(data); ref != nil && !reflect.DeepEqual(pos, ref) {
		t.Fatalf("positions differ\n got %+v\nwant %+v\ninput: %q", pos, ref, data)
	}
	var got bytes.Buffer
	if err := writeDoc(&got, doc); err != nil {
		t.Fatal(err)
	}
	wantOut, err := referenceWrite(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantOut) {
		t.Fatalf("written document differs\n got %q\nwant %q", got.Bytes(), wantOut)
	}
}

// codecHandCases cover the corners of xml.Unmarshal's semantics that the
// shipped documents do not.
var codecHandCases = map[string]string{
	"wrong root": `<topo name="x"><operator name="a"/></topo>`,
	"namespaces": `<t:topology xmlns:t="urn:t" t:name="ns"><t:operator xmlns="urn:d" name="a" u:type="source" serviceTime="1ms">` +
		`<output xmlns:o="urn:o" o:to="b" probability="1"/><x:key x:frequency="2"/></t:operator>` +
		`<operator name="b" type="sink" serviceTime="1ms"/></t:topology>`,
	"duplicate attributes": `<topology name="a" name="b"><operator name="x" name="y" type="source" serviceTime="1ms" replicas="2" replicas="3">` +
		`<output to="z" to="w" probability="0.5" probability="1"/><key frequency="1" frequency="2"/></operator></topology>`,
	"empty numbers": `<topology><operator name="a" type="source" serviceTime="" inputSelectivity="" outputSelectivity="" replicas="">` +
		`<key frequency=""/><output to="b" probability=""/></operator></topology>`,
	"blank float":       `<topology><operator name="a" type="source" serviceTime="1ms" inputSelectivity="  "/></topology>`,
	"blank int":         `<topology><operator name="a" type="source" serviceTime="1ms" replicas="  "/></topology>`,
	"blank probability": `<topology><operator name="a"><output to="b" probability="  "/></operator></topology>`,
	"blank frequency":   `<topology><operator name="a"><key frequency="  "/></operator></topology>`,
	"padded numbers": `<topology><operator name="a" type="source" serviceTime=" 1ms " inputSelectivity=" 2.5 " replicas=" 4 ">` +
		`<key frequency="	0.5
"/><output to=" b " probability=" 1 "/></operator></topology>`,
	"replica degrees": `<topology><operator name="a" replicas="1"/><operator name="b" replicas="-2"/><operator name="c" replicas="0"/></topology>`,
	"bad float":       `<topology><operator name="a" outputSelectivity="x"/></topology>`,
	"float range":     `<topology><operator name="a"><output to="b" probability="1e400"/></operator></topology>`,
	"fractional int":  `<topology><operator name="a" replicas="1.5"/></topology>`,
	"int range":       `<topology><operator name="a" replicas="99999999999999999999"/></topology>`,
	"special floats": `<topology><operator name="a" inputSelectivity="NaN" outputSelectivity="-Inf">` +
		`<key frequency="+Inf"/><key frequency="-0"/><output to="b" probability="1e-300"/></operator></topology>`,
	"unknown elements": `<topology><meta><operator name="ghost"><output to="x" probability="1"/></operator></meta>` +
		`<operator name="a" type="source" serviceTime="1ms"><extra><output to="ghost2" probability="1"/><key frequency="9"/></extra>` +
		`<key frequency="1"><key frequency="2"/></key><output to="b" probability="1"><output to="c" probability="1"/></output>` +
		`<fused name="m"><fused name="n"/></fused></operator><operator name="b" type="sink" serviceTime="1ms"/></topology>`,
	"fused and keysFile": `<topology name="opt"><operator name="a+b" type="stateless" serviceTime="2ms" impl="scale" keysFile="k.txt" replicas="3">` +
		`<fused name="a"/><fused name="b"/><output to="c" probability="1"/></operator><operator name="c" type="sink" serviceTime="1ms"/></topology>`,
	"escaping": `<topology name="&quot;&lt;&amp;&gt;&apos;"><operator name="a&#10;b&#9;c&#13;" type="&#x1;" serviceTime="é€😀" impl="x&#xFFFD;y">` +
		`<fused name="&lt;f&gt;"/><output to="&amp;" probability="1"/></operator></topology>`,
	"trailing junk":     `<topology><operator name="a" type="source" serviceTime="1ms"/></topology><`,
	"trailing elements": `<topology><operator name="a"/></topology><x><operator name="b"/></x>`,
	"unclosed root":     `<topology><operator name="a" type="source" serviceTime="1ms"/>`,
	"unclosed operator": `<topology><operator name="a"></topology>`,
	"mismatched end":    `<topology><operator name="a"></output></topology>`,
	"stray end":         `</topology>`,
	"no root":           ``,
	"only prolog":       `<?xml version="1.0"?><!-- nothing -->`,
	"not xml":           `not xml at all`,
	"empty root":        `<topology/>`,
	"prolog and comments": `<?xml version="1.0"?><!DOCTYPE topology><!-- c --><topology name="c">` +
		`<!-- <operator name="ghost"/> --><operator name="a"><![CDATA[<output to="x"/>]]></operator></topology>`,
	"crlf": strings.ReplaceAll(`<?xml version="1.0"?>
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
`, "\n", "\r\n"),
	// Where a byte scanner can part ways with encoding/xml.
	"]]> in text":         `<topology name="t">a]]>b<operator name="a"/></topology>`,
	"entities":            `<topology name="R&amp;D">&lt;<operator name="a&lt;b" type="&#115;ource"/></topology>`,
	"-- in comment":       `<topology><!-- a -- b --><operator name="a"/></topology>`,
	"--- closing comment": `<topology><!-- a ---><operator name="a"/></topology>`,
	"multi-line comment": "<topology name=\"c\">\n  <!-- one\n two\n\n three -->  <operator name=\"a\" type=\"source\" serviceTime=\"1ms\">" +
		"<!--\n--><output to=\"b\" probability=\"1\"/>\n    <key frequency=\"1\"/></operator>\n</topology>\n",
	"invalid UTF-8 in attribute": "<topology name=\"a\xffb\"><operator name=\"a\"/></topology>",
	"invalid UTF-8 in text":      "<topology>\xc3<operator name=\"a\"/></topology>",
	"invalid UTF-8 in comment":   "<topology><!-- \xed\xa0\x80 --><operator name=\"a\"/></topology>",
	"U+FFFE in attribute":        "<topology name=\"\uFFFE\"><operator name=\"a\"/></topology>",
	"U+FFFE in text":             "<topology>\uFFFE<operator name=\"a\"/></topology>",
	"NUL in text":                "<topology>\x00<operator name=\"a\"/></topology>",
	"byte order mark":            "\uFEFF<topology name=\"bom\"><operator name=\"a\"/></topology>",
	"byte order mark and header": "\uFEFF" + xml.Header + `<topology name="bom"><operator name="a"/></topology>`,
	"xml 1.1":                    `<?xml version="1.1"?><topology name="v"><operator name="a"/></topology>`,
	"latin-1 declaration":        `<?xml version="1.0" encoding="ISO-8859-1"?><topology name="l"><operator name="a"/></topology>`,
	"processing instruction":     xml.Header + `<?render mode="fast"?><topology name="pi"><operator name="a"/></topology>`,
	"header twice":               xml.Header + xml.Header + `<topology name="h"><operator name="a"/></topology>`,
	"unquoted value":             `<topology name=x><operator name="a"/></topology>`,
	"attributes without space":   `<topology name="a"><operator name="b"type="source"serviceTime='1ms'/></topology>`,
	"space around equals":        "<topology name =\n 'a'><operator name\t=\t\"b\" type= \"sink\" serviceTime\n=\"1ms\"/></topology>",
	"attribute without value":    `<topology name><operator name="a"/></topology>`,
	"> in attribute":             `<topology name="a>b"><operator name="]]>" type='x>y'/></topology>`,
	"< in attribute":             `<topology name="a<b"><operator name="a"/></topology>`,
	"CDATA holding <":            `<topology name="c"><![CDATA[a<b]]><operator name="a"/></topology>`,
	"non-ASCII element name":     `<topology><opérateur name="x"/><operator name="a"/></topology>`,
	"non-ASCII attribute name":   `<topology><operator name="a" tÿpe="source"/></topology>`,
	"digit-led name":             `<topology><1operator name="x"/></topology>`,
	"root default namespace":     `<topology xmlns="urn:t" name="n"><operator name="a"/></topology>`,
	"end tag with space":         "<topology name=\"e\"><operator name=\"a\"></operator\n\t></topology >",
	"self-closing with space":    `<topology name="s"><operator name="a" / ></topology>`,
	"µs and em dash": xml.Header + "<!-- stale trace — regenerate -->\n<topology name=\"µ—\">\n" +
		"  <operator name=\"a—b\" type=\"source\" serviceTime=\"250µs\"><output to=\"b\" probability=\"1\"></output></operator>\n" +
		"  <operator name=\"b\" type=\"sink\" serviceTime=\"1.5µs\" impl=\"€😀\"></operator>\n</topology>\n",
	"EOF in tag":             `<topology><operator name="a" type`,
	"EOF in comment":         `<topology><!-- never closed`,
	"EOF in attribute value": `<topology name="unterminated`,
	"EOF in end tag":         `<topology></topology`,
}

// shippedDocuments returns every topology document in the repository.
func shippedDocuments(tb testing.TB) map[string][]byte {
	tb.Helper()
	docs := map[string][]byte{}
	for _, pattern := range []string{
		"testdata/*.xml", "testdata/lint/*.xml", "bench/workloads/*.xml", "examples/*/*.xml",
	} {
		paths, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil {
			tb.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				tb.Fatal(err)
			}
			docs[path] = data
		}
	}
	if len(docs) < 22 {
		tb.Fatalf("found %d shipped documents, want all 22", len(docs))
	}
	return docs
}

// TestCodecMatchesEncodingXML holds the single-pass decoder and the
// direct writer to encoding/xml's reflection over Document's struct tags
// on every shipped document, on randtopo graphs written with replica
// degrees and fused members, and on the hand cases.
func TestCodecMatchesEncodingXML(t *testing.T) {
	docs := shippedDocuments(t)
	for seed := uint64(1); seed <= 200; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		replicas := make([]int, g.Topology.Len())
		for i := range replicas {
			replicas[i] = 1 + (i+int(seed))%3
		}
		doc, err := ToDocumentOptimized(fmt.Sprintf("randtopo-%d", seed), g.Topology, replicas)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			doc.Operators[0].Fused = []FusedDoc{{Name: "m1"}, {Name: "m2"}}
		}
		data, err := referenceWrite(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("randtopo seed %d", seed)] = data
	}
	for name, doc := range codecHandCases {
		docs[name] = []byte(doc)
	}
	for name, data := range docs {
		t.Run(filepath.Base(name), func(t *testing.T) {
			t.Parallel()
			checkCodec(t, data)
		})
	}
}

// TestTrailingBytesKeepPositions: bytes after </topology> are ignored, as
// xml.Unmarshal ignores them, and validation errors keep their position.
func TestTrailingBytesKeepPositions(t *testing.T) {
	const doc = `<topology>
  <operator name="a" type="source" serviceTime="1ms">
    <output to="nope" probability="1"/>
  </operator>
</topology>
<`
	_, err := Read(strings.NewReader(doc))
	if want := `xmlio: 3:5: operator "a" outputs to unknown "nope"`; errText(err) != want {
		t.Fatalf("error %q, want %q", errText(err), want)
	}
}

// FuzzCodecMatchesEncodingXML is TestCodecMatchesEncodingXML's property
// on arbitrary input.
func FuzzCodecMatchesEncodingXML(f *testing.F) {
	addReadSeeds(f)
	for _, doc := range codecHandCases {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) { checkCodec(t, []byte(doc)) })
}

// TestWriteDocReportsWriteError: the writer's errors surface from its
// final flush.
func TestWriteDocReportsWriteError(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	doc := ToDocument("t", topo)
	if err := writeDoc(failingWriter{}, doc); err == nil || !strings.Contains(err.Error(), "xmlio: encode: ") {
		t.Fatalf("error %v, want an encode error", err)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
