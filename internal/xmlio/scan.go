package xmlio

import (
	"bytes"
	"encoding/xml"
	"strings"
	"unicode/utf8"
)

// scan reads data in place, feeding each element to a builder, and
// reports false when the document leaves the subset described on
// DecodeDocument or has an error. Inside the subset encoding/xml takes
// every character literally, so the builder sees what Token would hand
// it.
func scan(data []byte) (*Document, *Positions, bool) {
	s := scanner{data: data, line: 1}
	s.skip(strings.TrimSuffix(xml.Header, "\n"))
	var b builder
	var open [][]byte // names of the open elements, innermost last
	for s.upTo('<', "&>") {
		switch {
		case s.skip("<!--"):
			if !s.comment() {
				return nil, nil, false
			}
			continue
		case s.skip("</"):
			name := s.name()
			s.space()
			if name == nil || len(open) == 0 || !bytes.Equal(name, open[len(open)-1]) || !s.skip(">") {
				return nil, nil, false
			}
			open = open[:len(open)-1]
		default:
			at := s.pos()
			s.i++
			name, empty := s.startTag()
			if name == nil || b.start(name, s.attrs, at) != nil {
				return nil, nil, false
			}
			if !empty {
				open = append(open, name)
				continue
			}
		}
		if b.end() {
			return &b.doc, &b.pos, true
		}
	}
	return nil, nil, false
}

// scanner is a cursor over a document. Line numbers follow
// xml.Decoder.InputPos: lines are counted on '\n' and columns in bytes.
type scanner struct {
	data []byte
	i    int
	// line is the line of data[counted], which starts at lineStart.
	line, lineStart, counted int
	attrs                    []attr // the last start tag's attributes
}

// pos is the position of data[i].
func (s *scanner) pos() Pos {
	seg := s.data[s.counted:s.i]
	if n := bytes.Count(seg, []byte{'\n'}); n > 0 {
		s.line += n
		s.lineStart = s.counted + bytes.LastIndexByte(seg, '\n') + 1
	}
	s.counted = s.i
	return Pos{Line: s.line, Col: s.i - s.lineStart + 1}
}

// skip advances past lit if the input continues with it.
func (s *scanner) skip(lit string) bool {
	if len(s.data)-s.i < len(lit) {
		return false
	}
	for j := 0; j < len(lit); j++ {
		if s.data[s.i+j] != lit[j] {
			return false
		}
	}
	s.i += len(lit)
	return true
}

func (s *scanner) space() {
	for s.i < len(s.data) && (s.data[s.i] == ' ' || s.data[s.i] == '\t' || s.data[s.i] == '\n') {
		s.i++
	}
}

// name reads an element or attribute name. It returns nil unless the
// name is ASCII without ':', which encoding/xml reads as a local name in
// no namespace.
func (s *scanner) name() []byte {
	start := s.i
	for s.i < len(s.data) && isNameByte(s.data[s.i], s.i == start) {
		s.i++
	}
	if s.i == start || s.i < len(s.data) && (s.data[s.i] >= utf8.RuneSelf || s.data[s.i] == ':') {
		return nil
	}
	return s.data[start:s.i]
}

func isNameByte(c byte, first bool) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
		!first && ('0' <= c && c <= '9' || c == '.' || c == '-')
}

// startTag reads a start tag after its '<', with its attributes into
// s.attrs, and reports whether the element closed itself. The name is
// nil when the scanner declines the tag.
func (s *scanner) startTag() (name []byte, empty bool) {
	if name = s.name(); name == nil {
		return nil, false
	}
	s.attrs = s.attrs[:0]
	for {
		s.space()
		switch {
		case s.skip(">"):
			return name, false
		case s.skip("/>"):
			return name, true
		}
		a := s.name()
		if a == nil || string(a) == "xmlns" {
			return nil, false
		}
		s.space()
		if !s.skip("=") {
			return nil, false
		}
		s.space()
		if s.i == len(s.data) || s.data[s.i] != '"' && s.data[s.i] != '\'' {
			return nil, false
		}
		quote := s.data[s.i]
		s.i++
		start := s.i
		if !s.upTo(quote, "&<") {
			return nil, false
		}
		s.attrs = append(s.attrs, attr{name: a, value: s.data[start:s.i]})
		s.i++
	}
}

// comment skips a comment body after its "<!--" and the "-->" closing it.
func (s *scanner) comment() bool {
	for s.upTo('-', "") {
		if s.skip("-->") {
			return true
		}
		if s.skip("--") {
			return false
		}
		s.i++
	}
	return false
}

// upTo advances to the next delim and reports whether there is one and
// every character before it is one encoding/xml takes literally: valid
// UTF-8 within XML's character range, no control other than '\t' and
// '\n' (so no '\r', which it rewrites), and no byte in bad.
func (s *scanner) upTo(delim byte, bad string) bool {
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == delim:
			return true
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s.data[s.i:])
			// DecodeRune turns surrogates and runes past U+10FFFF into
			// RuneError; U+FFFE and U+FFFF are the rest of what XML's
			// range leaves out.
			if r == utf8.RuneError && n == 1 || r == 0xFFFE || r == 0xFFFF {
				return false
			}
			s.i += n - 1
		case c < ' ' && c != '\t' && c != '\n':
			return false
		case c == '&' || c == '<' || c == '>':
			if strings.IndexByte(bad, c) >= 0 {
				return false
			}
		}
	}
	return false
}
