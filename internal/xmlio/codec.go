package xmlio

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DecodeDocument reads the raw XML document from r without any semantic
// validation and returns element positions alongside it. It is the entry
// point for the lint analyzers, which want to diagnose documents that
// Read would reject outright.
func DecodeDocument(r io.Reader) (*Document, *Positions, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: %w", err)
	}
	doc, pos, err := decode(xml.NewDecoder(bytes.NewReader(data)))
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: parse: %w", err)
	}
	return doc, pos, nil
}

// decode builds the Document and its Positions in one Token pass,
// reproducing what xml.Unmarshal makes of Document's struct tags:
// elements and attributes match on their local name whatever their
// namespace, the last of duplicate attributes wins, unknown elements are
// skipped at any depth, and decoding stops at the root's end tag. The
// position of a start tag is the decoder's input position read before
// the Token call that returns it: markup always starts a fresh token, so
// it points at the tag's '<'.
func decode(dec *xml.Decoder) (*Document, *Positions, error) {
	doc, pos := &Document{}, &Positions{}
	depth := 0
	inOperator := false // the open depth-2 element is an <operator>
	for {
		line, col := dec.InputPos()
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		switch t := tok.(type) {
		case xml.EndElement:
			depth--
			if depth == 0 {
				return doc, pos, nil
			}
		case xml.StartElement:
			depth++
			at := Pos{Line: line, Col: col}
			switch depth {
			case 1:
				if t.Name.Local != "topology" {
					return nil, nil, xml.UnmarshalError("expected element type <topology> but have <" + t.Name.Local + ">")
				}
				doc.XMLName = t.Name
				for _, a := range t.Attr {
					if a.Name.Local == "name" {
						doc.Name = a.Value
					}
				}
			case 2:
				inOperator = t.Name.Local == "operator"
				if inOperator {
					doc.Operators = append(doc.Operators, OperatorDoc{})
					pos.Operators = append(pos.Operators, OperatorPos{Start: at})
					if err := decodeOperator(&doc.Operators[len(doc.Operators)-1], t.Attr); err != nil {
						return nil, nil, err
					}
				}
			case 3:
				if inOperator {
					od, op := &doc.Operators[len(doc.Operators)-1], &pos.Operators[len(pos.Operators)-1]
					if err := decodeChild(od, op, at, t); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
}

func decodeOperator(od *OperatorDoc, attrs []xml.Attr) error {
	for _, a := range attrs {
		var err error
		switch a.Name.Local {
		case "name":
			od.Name = a.Value
		case "type":
			od.Type = a.Value
		case "serviceTime":
			od.ServiceTime = a.Value
		case "impl":
			od.Impl = a.Value
		case "inputSelectivity":
			od.InputSelectivity, err = parseFloatAttr(a.Value)
		case "outputSelectivity":
			od.OutputSelectivity, err = parseFloatAttr(a.Value)
		case "replicas":
			od.Replicas, err = parseIntAttr(a.Value)
		case "keysFile":
			od.KeysFile = a.Value
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeChild decodes a <key>, <fused> or <output> child of an operator;
// any other child is skipped.
func decodeChild(od *OperatorDoc, op *OperatorPos, at Pos, t xml.StartElement) error {
	var err error
	switch t.Name.Local {
	case "key":
		var k KeyDoc
		for _, a := range t.Attr {
			if a.Name.Local == "frequency" {
				if k.Frequency, err = parseFloatAttr(a.Value); err != nil {
					return err
				}
			}
		}
		od.Keys = append(od.Keys, k)
		op.Keys = append(op.Keys, at)
	case "fused":
		var f FusedDoc
		for _, a := range t.Attr {
			if a.Name.Local == "name" {
				f.Name = a.Value
			}
		}
		od.Fused = append(od.Fused, f)
	case "output":
		var o OutputDoc
		for _, a := range t.Attr {
			switch a.Name.Local {
			case "to":
				o.To = a.Value
			case "probability":
				if o.Probability, err = parseFloatAttr(a.Value); err != nil {
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
func parseFloatAttr(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

func parseIntAttr(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, strconv.IntSize)
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
