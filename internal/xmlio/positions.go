package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
)

// Pos is a 1-based line/column location in a topology document. The zero
// value means "position unknown".
type Pos struct {
	Line, Col int
}

func (p Pos) known() bool { return p.Line > 0 }

// OperatorPos locates one operator element and its children.
type OperatorPos struct {
	// Start is the position of the <operator> start tag.
	Start Pos
	// Outputs and Keys hold the positions of the operator's <output> and
	// <key> child elements, in document order.
	Outputs []Pos
	Keys    []Pos
}

// Positions locates the elements of a decoded Document, index-aligned
// with Document.Operators, so validation errors and lint diagnostics can
// point at the offending line and column.
type Positions struct {
	Operators []OperatorPos
}

// Operator returns the position of operator i, or the zero Pos when
// positions are unavailable or out of range.
func (p *Positions) Operator(i int) Pos {
	if p == nil || i < 0 || i >= len(p.Operators) {
		return Pos{}
	}
	return p.Operators[i].Start
}

// Output returns the position of operator i's j-th output edge.
func (p *Positions) Output(i, j int) Pos {
	if p == nil || i < 0 || i >= len(p.Operators) {
		return Pos{}
	}
	if outs := p.Operators[i].Outputs; j >= 0 && j < len(outs) {
		return outs[j]
	}
	return p.Operators[i].Start
}

// Key returns the position of operator i's j-th inline key entry.
func (p *Positions) Key(i, j int) Pos {
	if p == nil || i < 0 || i >= len(p.Operators) {
		return Pos{}
	}
	if keys := p.Operators[i].Keys; j >= 0 && j < len(keys) {
		return keys[j]
	}
	return p.Operators[i].Start
}

// ParseError is a topology-document validation error with the position
// of the offending element, when known.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string {
	if e.Pos.known() {
		return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
	}
	return e.Msg
}

// errAt builds a positioned validation error.
func errAt(p Pos, format string, args ...any) error {
	return &ParseError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// DecodeDocument reads the raw XML document from r without any semantic
// validation and returns element positions alongside it. It is the entry
// point for the lint analyzers, which want to diagnose documents that
// Read would reject outright.
func DecodeDocument(r io.Reader) (*Document, *Positions, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: %w", err)
	}
	var doc Document
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("xmlio: parse: %w", err)
	}
	pos := scanPositions(data)
	if pos != nil && len(pos.Operators) != len(doc.Operators) {
		// The token scan disagreed with the decoder (should not happen);
		// drop the positions rather than misattribute them.
		pos = nil
	}
	return &doc, pos, nil
}

// scanPositions re-tokenizes data recording where each <operator>,
// <output> and <key> start tag begins. The scan mirrors the order
// encoding/xml decodes the elements in, so indices align with the
// decoded Document. The decoder's running line counter gives the
// position, read before each Token call: markup always starts a fresh
// token, so it points at the '<' of a start tag.
func scanPositions(data []byte) *Positions {
	dec := xml.NewDecoder(bytes.NewReader(data))
	pos := &Positions{}
	var cur *OperatorPos
	depth := 0
	for {
		line, col := dec.InputPos()
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
			p := Pos{Line: line, Col: col}
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
