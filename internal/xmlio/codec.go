package xmlio

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
)

// DecodeDocument reads the raw XML document from r without any semantic
// validation and returns element positions alongside it. It is the entry
// point for the lint analyzers, which want to diagnose documents that
// Read would reject outright.
//
// A byte scanner (scan) reads the document in place when it lies within
// the subset every writer in this repository produces: the xml.Header
// declaration at the very start, comments without "--", tags with ASCII
// names and no ':', attributes in single or double quotes (none named xmlns),
// and attribute values, text and comments of valid UTF-8 within XML's
// character range, with no '&', no '\r', no '<' in a value and no '>' in
// text. It declines anything else, and any syntax or attribute error;
// encoding/xml's Token decoder then reads the document, so every error
// and every other construct keeps encoding/xml's meaning and text.
func DecodeDocument(r io.Reader) (*Document, *Positions, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: %w", err)
	}
	if doc, pos, ok := scan(data); ok {
		return doc, pos, nil
	}
	doc, pos, err := decode(xml.NewDecoder(bytes.NewReader(data)))
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: parse: %w", err)
	}
	return doc, pos, nil
}

// readAll reads r into a buffer of exactly the reported size when r
// knows its unread length, as bytes.Reader, strings.Reader and
// bytes.Buffer do.
func readAll(r io.Reader) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, l.Len())
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}

// decode is the Token tokenizer: it feeds every element to a builder.
// The position of a start tag is the decoder's input position read
// before the Token call that returns it: markup always starts a fresh
// token, so it points at the tag's '<'.
func decode(dec *xml.Decoder) (*Document, *Positions, error) {
	var b builder
	var attrs []attr
	for {
		line, col := dec.InputPos()
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		switch t := tok.(type) {
		case xml.EndElement:
			if b.end() {
				return &b.doc, &b.pos, nil
			}
		case xml.StartElement:
			attrs = attrs[:0]
			for _, a := range t.Attr {
				attrs = append(attrs, attr{name: []byte(a.Name.Local), value: []byte(a.Value)})
			}
			if err := b.start([]byte(t.Name.Local), attrs, Pos{Line: line, Col: col}); err != nil {
				return nil, nil, err
			}
			if b.depth == 1 {
				b.doc.XMLName = t.Name // with the namespace the scanner never sees
			}
		}
	}
}

// attr is one attribute as a tokenizer hands it over: its local name and
// its unescaped value.
type attr struct{ name, value []byte }

// builder maps elements onto a Document and its Positions, reproducing
// what xml.Unmarshal makes of Document's struct tags: elements and
// attributes match on their local name whatever their namespace, the
// last of duplicate attributes wins, unknown elements are skipped at any
// depth, and the document is complete at the root's end tag.
type builder struct {
	doc        Document
	pos        Positions
	depth      int
	inOperator bool // the open depth-2 element is an <operator>
}

// start maps the start tag of an element at position at.
func (b *builder) start(name []byte, attrs []attr, at Pos) error {
	b.depth++
	switch b.depth {
	case 1:
		if string(name) != "topology" {
			return xml.UnmarshalError("expected element type <topology> but have <" + string(name) + ">")
		}
		b.doc.XMLName = xml.Name{Local: "topology"}
		for _, a := range attrs {
			if string(a.name) == "name" {
				b.doc.Name = string(a.value)
			}
		}
	case 2:
		b.inOperator = string(name) == "operator"
		if b.inOperator {
			b.doc.Operators = append(b.doc.Operators, OperatorDoc{})
			b.pos.Operators = append(b.pos.Operators, OperatorPos{Start: at})
			return decodeOperator(&b.doc.Operators[len(b.doc.Operators)-1], attrs)
		}
	case 3:
		if b.inOperator {
			od, op := &b.doc.Operators[len(b.doc.Operators)-1], &b.pos.Operators[len(b.pos.Operators)-1]
			return decodeChild(od, op, at, name, attrs)
		}
	}
	return nil
}

// end maps an end tag and reports whether it closed the root.
func (b *builder) end() bool {
	b.depth--
	return b.depth == 0
}

func decodeOperator(od *OperatorDoc, attrs []attr) error {
	for _, a := range attrs {
		var err error
		switch string(a.name) {
		case "name":
			od.Name = string(a.value)
		case "type":
			od.Type = string(a.value)
		case "serviceTime":
			od.ServiceTime = string(a.value)
		case "impl":
			od.Impl = string(a.value)
		case "inputSelectivity":
			od.InputSelectivity, err = parseFloatAttr(a.value)
		case "outputSelectivity":
			od.OutputSelectivity, err = parseFloatAttr(a.value)
		case "replicas":
			od.Replicas, err = parseIntAttr(a.value)
		case "keysFile":
			od.KeysFile = string(a.value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeChild decodes a <key>, <fused> or <output> child of an operator;
// any other child is skipped.
func decodeChild(od *OperatorDoc, op *OperatorPos, at Pos, name []byte, attrs []attr) error {
	var err error
	switch string(name) {
	case "key":
		var k KeyDoc
		for _, a := range attrs {
			if string(a.name) == "frequency" {
				if k.Frequency, err = parseFloatAttr(a.value); err != nil {
					return err
				}
			}
		}
		od.Keys = append(od.Keys, k)
		op.Keys = append(op.Keys, at)
	case "fused":
		var f FusedDoc
		for _, a := range attrs {
			if string(a.name) == "name" {
				f.Name = string(a.value)
			}
		}
		od.Fused = append(od.Fused, f)
	case "output":
		var o OutputDoc
		for _, a := range attrs {
			switch string(a.name) {
			case "to":
				o.To = string(a.value)
			case "probability":
				if o.Probability, err = parseFloatAttr(a.value); err != nil {
					return err
				}
			}
		}
		od.Outputs = append(od.Outputs, o)
		op.Outputs = append(op.Outputs, at)
	}
	return nil
}

// parseFloatAttr and parseIntAttr convert a numeric attribute as
// xml.Unmarshal does: an empty value reads as zero, any other value is
// trimmed and must parse, so a blank one is an error.
func parseFloatAttr(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
}

func parseIntAttr(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	v, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, strconv.IntSize)
	return int(v), err
}

// writeDoc writes doc byte for byte as xml.Encoder with Indent("", "  ")
// marshals it after the XML header, plus a final newline: childless
// elements close with an end tag, zero-valued omitempty attributes are
// left out, and floats use the shortest 'g' form.
func writeDoc(w io.Writer, doc *Document) error {
	e := encoder{Writer: bufio.NewWriter(w)}
	e.WriteString(xml.Header)
	e.WriteString("<topology")
	e.attr("name", doc.Name)
	e.WriteByte('>')
	for _, od := range doc.Operators {
		e.WriteString("\n  <operator")
		e.attr("name", od.Name)
		e.attr("type", od.Type)
		e.attr("serviceTime", od.ServiceTime)
		if od.Impl != "" {
			e.attr("impl", od.Impl)
		}
		if od.InputSelectivity != 0 {
			e.floatAttr("inputSelectivity", od.InputSelectivity)
		}
		if od.OutputSelectivity != 0 {
			e.floatAttr("outputSelectivity", od.OutputSelectivity)
		}
		if od.Replicas != 0 {
			e.WriteString(` replicas="`)
			e.Write(strconv.AppendInt(e.num[:0], int64(od.Replicas), 10))
			e.WriteByte('"')
		}
		if od.KeysFile != "" {
			e.attr("keysFile", od.KeysFile)
		}
		e.WriteByte('>')
		for _, k := range od.Keys {
			e.WriteString("\n    <key")
			e.floatAttr("frequency", k.Frequency)
			e.WriteString("></key>")
		}
		for _, f := range od.Fused {
			e.WriteString("\n    <fused")
			e.attr("name", f.Name)
			e.WriteString("></fused>")
		}
		for _, o := range od.Outputs {
			e.WriteString("\n    <output")
			e.attr("to", o.To)
			e.floatAttr("probability", o.Probability)
			e.WriteString("></output>")
		}
		if len(od.Keys)+len(od.Fused)+len(od.Outputs) > 0 {
			e.WriteString("\n  ")
		}
		e.WriteString("</operator>")
	}
	if len(doc.Operators) > 0 {
		e.WriteByte('\n')
	}
	e.WriteString("</topology>\n")
	if err := e.Flush(); err != nil {
		return fmt.Errorf("xmlio: encode: %w", err)
	}
	return nil
}

// encoder writes attributes; bufio.Writer keeps the first write error
// for Flush to report.
type encoder struct {
	*bufio.Writer
	num []byte
}

func (e *encoder) attr(name, value string) {
	e.WriteByte(' ')
	e.WriteString(name)
	e.WriteString(`="`)
	xml.EscapeText(e, []byte(value))
	e.WriteByte('"')
}

// floatAttr needs no escaping: a formatted float is digits, signs, '.',
// 'e', "NaN" or "Inf".
func (e *encoder) floatAttr(name string, v float64) {
	e.WriteByte(' ')
	e.WriteString(name)
	e.WriteString(`="`)
	e.num = strconv.AppendFloat(e.num[:0], v, 'g', -1, 64)
	e.Write(e.num)
	e.WriteByte('"')
}
