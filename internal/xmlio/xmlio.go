// Package xmlio reads and writes the XML topology formalism SpinStreams
// accepts as input (Section 4.1): operators with their name, type, profiled
// service time (with time unit), implementation reference, selectivity
// parameters and — for partitioned-stateful operators — the key frequency
// distribution (inline or in a side file); plus the output edges with their
// routing probabilities.
package xmlio

import (
	"bufio"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spinstreams/internal/core"
)

// Document is the XML representation of a topology. The hand-written
// codec (DecodeDocument, Write) never reads the struct tags: they are the
// reference schema, and the differential tests hold the codec to what
// encoding/xml's reflection makes of them.
type Document struct {
	XMLName   xml.Name      `xml:"topology"`
	Name      string        `xml:"name,attr"`
	Operators []OperatorDoc `xml:"operator"`
}

// OperatorDoc is one operator element.
type OperatorDoc struct {
	Name string `xml:"name,attr"`
	// Type is one of source, stateless, partitioned-stateful, stateful,
	// sink.
	Type string `xml:"type,attr"`
	// ServiceTime accepts Go duration syntax ("1.2ms", "300us") or a
	// plain float in seconds ("0.0012").
	ServiceTime string `xml:"serviceTime,attr"`
	// Impl references the implementation (the paper's .class pathname);
	// see operators.Catalog for the built-in names.
	Impl              string  `xml:"impl,attr,omitempty"`
	InputSelectivity  float64 `xml:"inputSelectivity,attr,omitempty"`
	OutputSelectivity float64 `xml:"outputSelectivity,attr,omitempty"`
	// Replicas is the replication degree the optimizer chose; 0 or 1
	// both mean "not replicated". Only written by the optimized-topology
	// writers.
	Replicas int      `xml:"replicas,attr,omitempty"`
	KeysFile string   `xml:"keysFile,attr,omitempty"`
	Keys     []KeyDoc `xml:"key,omitempty"`
	// Fused lists the original operators a fusion meta-operator replaced,
	// in topological order, so code generation can reconstruct the
	// internal routing.
	Fused   []FusedDoc  `xml:"fused,omitempty"`
	Outputs []OutputDoc `xml:"output,omitempty"`
}

// FusedDoc names one member of a fused meta-operator.
type FusedDoc struct {
	Name string `xml:"name,attr"`
}

// KeyDoc is one inline key-frequency entry.
type KeyDoc struct {
	Frequency float64 `xml:"frequency,attr"`
}

// OutputDoc is one output edge.
type OutputDoc struct {
	To          string  `xml:"to,attr"`
	Probability float64 `xml:"probability,attr"`
}

// KeyLoader resolves a keysFile reference to its frequency vector.
type KeyLoader func(path string) ([]float64, error)

// Read parses a topology document from r and builds the validated graph.
// Validation errors point at the offending element's line and column.
// Topologies referencing key files are rejected: only the file readers
// resolve them.
func Read(r io.Reader) (*core.Topology, error) {
	doc, pos, err := DecodeDocument(r)
	if err != nil {
		return nil, err
	}
	return fromDocument(doc, pos, nil)
}

// ReadFile parses path; keysFile references resolve relative to its
// directory. It drops the replication degrees; ReadFileOptimized keeps
// them.
func ReadFile(path string) (*core.Topology, error) {
	t, _, err := ReadFileOptimized(path)
	return t, err
}

// FromDocument builds and validates the topology described by doc.
func FromDocument(doc *Document, loader KeyLoader) (*core.Topology, error) {
	return fromDocument(doc, nil, loader)
}

// checkSelectivity rejects NaN/Inf/negative selectivity attributes before
// they flow into the gain model (zero means "default of 1" and is fine).
func checkSelectivity(label string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s %v, must be a finite value >= 0", label, v)
	}
	return nil
}

func fromDocument(doc *Document, pos *Positions, loader KeyLoader) (*core.Topology, error) {
	if len(doc.Operators) == 0 {
		return nil, errors.New("xmlio: document has no operators")
	}
	t := core.NewTopology()
	for i, od := range doc.Operators {
		at := pos.Operator(i)
		kind, err := ParseKind(od.Type)
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", errAt(at, "operator %q: %v", od.Name, err))
		}
		st, err := ParseServiceTime(od.ServiceTime)
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", errAt(at, "operator %q: %v", od.Name, err))
		}
		if err := checkSelectivity("input selectivity", od.InputSelectivity); err != nil {
			return nil, fmt.Errorf("xmlio: %w", errAt(at, "operator %q: %v", od.Name, err))
		}
		if err := checkSelectivity("output selectivity", od.OutputSelectivity); err != nil {
			return nil, fmt.Errorf("xmlio: %w", errAt(at, "operator %q: %v", od.Name, err))
		}
		op := core.Operator{
			Name:              od.Name,
			Kind:              kind,
			ServiceTime:       st,
			InputSelectivity:  od.InputSelectivity,
			OutputSelectivity: od.OutputSelectivity,
			Impl:              od.Impl,
		}
		if kind == core.KindPartitionedStateful {
			freq, err := keysOf(od, loader)
			if err != nil {
				return nil, fmt.Errorf("xmlio: %w", errAt(at, "operator %q: %v", od.Name, err))
			}
			for j, f := range freq {
				if !(f > 0) || math.IsInf(f, 1) {
					return nil, fmt.Errorf("xmlio: %w", errAt(pos.Key(i, j),
						"operator %q: key frequency %d is %v, must be a finite value > 0", od.Name, j, f))
				}
			}
			op.Keys = &core.KeyDistribution{Freq: freq}
		}
		for _, f := range od.Fused {
			op.Fused = append(op.Fused, f.Name)
		}
		if _, err := t.AddOperator(op); err != nil {
			return nil, fmt.Errorf("xmlio: %w", errAt(at, "%v", err))
		}
	}
	for i, od := range doc.Operators {
		from, _ := t.Lookup(od.Name)
		for j, out := range od.Outputs {
			at := pos.Output(i, j)
			to, ok := t.Lookup(out.To)
			if !ok {
				return nil, fmt.Errorf("xmlio: %w", errAt(at, "operator %q outputs to unknown %q", od.Name, out.To))
			}
			if !(out.Probability > 0) || out.Probability > 1+1e-6 {
				return nil, fmt.Errorf("xmlio: %w", errAt(at,
					"operator %q -> %q: probability %v outside (0, 1]", od.Name, out.To, out.Probability))
			}
			if err := t.Connect(from, to, out.Probability); err != nil {
				return nil, fmt.Errorf("xmlio: %w", errAt(at, "%v", err))
			}
		}
	}
	// Format-level validation accepts feedback edges (the cyclic analysis
	// handles them); the acyclic algorithms re-validate on entry.
	if err := t.ValidateCyclic(); err != nil {
		return nil, fmt.Errorf("xmlio: invalid topology: %w", err)
	}
	return t, nil
}

func keysOf(od OperatorDoc, loader KeyLoader) ([]float64, error) {
	switch {
	case len(od.Keys) > 0 && od.KeysFile != "":
		return nil, errors.New("both inline keys and keysFile given")
	case len(od.Keys) > 0:
		freq := make([]float64, len(od.Keys))
		for i, k := range od.Keys {
			freq[i] = k.Frequency
		}
		return freq, nil
	case od.KeysFile != "":
		if loader == nil {
			return nil, fmt.Errorf("keysFile %q given but no key loader configured", od.KeysFile)
		}
		return loader(od.KeysFile)
	default:
		return nil, errors.New("partitioned-stateful operator without key distribution")
	}
}

// LoadKeyFile reads a key-frequency file: one positive frequency per line,
// blank lines and #-comments ignored.
func LoadKeyFile(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var freq []float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		freq = append(freq, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return freq, nil
}

// ParseServiceTime accepts Go duration syntax or a float in seconds.
func ParseServiceTime(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errors.New("missing serviceTime")
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return 0, fmt.Errorf("service time %q not positive", s)
		}
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("service time %q: want a duration (\"1.2ms\") or seconds (\"0.0012\")", s)
	}
	// !(v > 0) also rejects NaN, which strconv.ParseFloat accepts.
	if !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("service time %q not a finite positive value", s)
	}
	return v, nil
}

// ParseKind maps an operator type attribute to its kind.
func ParseKind(s string) (core.Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "source":
		return core.KindSource, nil
	case "stateless":
		return core.KindStateless, nil
	case "partitioned-stateful", "partitioned":
		return core.KindPartitionedStateful, nil
	case "stateful":
		return core.KindStateful, nil
	case "sink":
		return core.KindSink, nil
	default:
		return 0, fmt.Errorf("unknown operator type %q", s)
	}
}

// ToDocument converts a topology back to its XML representation; key
// distributions are inlined.
func ToDocument(name string, t *core.Topology) *Document {
	doc := &Document{Name: name}
	for i := 0; i < t.Len(); i++ {
		id := core.OpID(i)
		op := t.Op(id)
		od := OperatorDoc{
			Name:              op.Name,
			Type:              op.Kind.String(),
			ServiceTime:       formatSeconds(op.ServiceTime),
			Impl:              op.Impl,
			InputSelectivity:  op.InputSelectivity,
			OutputSelectivity: op.OutputSelectivity,
		}
		if op.Keys != nil {
			for _, f := range op.Keys.Freq {
				od.Keys = append(od.Keys, KeyDoc{Frequency: f})
			}
		}
		for _, m := range op.Fused {
			od.Fused = append(od.Fused, FusedDoc{Name: m})
		}
		for _, e := range t.Out(id) {
			od.Outputs = append(od.Outputs, OutputDoc{
				To:          t.Op(e.To).Name,
				Probability: e.Prob,
			})
		}
		doc.Operators = append(doc.Operators, od)
	}
	return doc
}

// Write serializes the topology as indented XML.
func Write(w io.Writer, name string, t *core.Topology) error {
	return writeDoc(w, ToDocument(name, t))
}

// WriteFile writes the topology to path.
func WriteFile(path, name string, t *core.Topology) error {
	return WriteFileOptimized(path, name, t, nil)
}

// ToDocumentOptimized is ToDocument plus per-operator replication
// degrees (index-aligned with OpIDs; nil means all ones). Degrees of one
// are omitted from the XML.
func ToDocumentOptimized(name string, t *core.Topology, replicas []int) (*Document, error) {
	if replicas != nil && len(replicas) != t.Len() {
		return nil, fmt.Errorf("xmlio: %d replica degrees for %d operators", len(replicas), t.Len())
	}
	doc := ToDocument(name, t)
	for i, n := range replicas {
		if n > 1 {
			doc.Operators[i].Replicas = n
		} else if n < 1 {
			return nil, fmt.Errorf("xmlio: operator %q has replica degree %d", doc.Operators[i].Name, n)
		}
	}
	return doc, nil
}

// ReadFileOptimized parses the deployment a document at path describes:
// the topology (keysFile references resolved relative to its directory)
// and the replication degrees its replicas attributes record,
// index-aligned with OpIDs (all ones when it carries none).
func ReadFileOptimized(path string) (*core.Topology, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: %w", err)
	}
	defer f.Close()
	doc, pos, err := DecodeDocument(f)
	if err != nil {
		return nil, nil, err
	}
	t, err := fromDocument(doc, pos, func(ref string) ([]float64, error) {
		return LoadKeyFile(filepath.Join(filepath.Dir(path), ref))
	})
	if err != nil {
		return nil, nil, err
	}
	replicas := make([]int, len(doc.Operators))
	for i, od := range doc.Operators {
		if od.Replicas < 0 {
			return nil, nil, fmt.Errorf("xmlio: %w", errAt(pos.Operator(i), "operator %q has replica degree %d", od.Name, od.Replicas))
		}
		replicas[i] = max(od.Replicas, 1)
	}
	return t, replicas, nil
}

// WriteOptimized serializes an optimized topology — fused meta-operators
// travel in the operator elements, replication degrees as replicas
// attributes — such that ReadFileOptimized on its output reproduces the
// topology bit-exactly (equal Fingerprint) along with the degrees.
func WriteOptimized(w io.Writer, name string, t *core.Topology, replicas []int) error {
	doc, err := ToDocumentOptimized(name, t, replicas)
	if err != nil {
		return err
	}
	return writeDoc(w, doc)
}

// WriteFileOptimized writes an optimized topology to path.
func WriteFileOptimized(path, name string, t *core.Topology, replicas []int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xmlio: %w", err)
	}
	if err := WriteOptimized(f, name, t, replicas); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatSeconds renders a service time with a readable unit when the
// nanosecond-granular duration form is exact, and as full-precision float
// seconds otherwise (profiled times must round-trip bit-exactly: steady-
// state corrections multiply them into the predicted throughput).
func formatSeconds(s float64) string {
	d := time.Duration(s * float64(time.Second))
	if d.Seconds() == s {
		return d.String()
	}
	return strconv.FormatFloat(s, 'g', -1, 64)
}
