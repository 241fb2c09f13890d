package xmlio

import "fmt"

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
