package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/xmlio"
)

// Span names: one per call into a layer.
const (
	spanSetup    = "setup"
	spanGenerate = "workload.docs"
	spanPass     = "optimize.pass"
	spanRead     = "xmlio.Read"
	spanLint     = "lint.Run"
	spanOpt      = "opt.Run"
	spanPlan     = "plan.Build"
	spanRun      = "runtime.Run"
	spanProcess  = "operators.Process"
)

// planned is one document taken all the way to a physical plan.
type planned struct {
	input *core.Topology
	res   *opt.Result
	plan  *plan.Plan
}

// toPlan is the XML → plan path a user of `spinstreams optimize` / `run
// -optimize` walks: parse, vet, optimize (fission, fusion, plan
// verification), expand to stations.
func toPlan(tr *tracer, run string, parent int, doc []byte) (*planned, error) {
	s := tr.begin(run, spanRead, parent)
	t, err := xmlio.Read(bytes.NewReader(doc))
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("xmlio.Read: %w", err)
	}
	s = tr.begin(run, spanLint, parent)
	rep := lint.Run(t, lint.Config{})
	tr.end(s)
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("lint.Run: %w", err)
	}
	s = tr.begin(run, spanOpt, parent)
	res, err := opt.Run(t, opt.Options{})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("opt.Run: %w", err)
	}
	s = tr.begin(run, spanPlan, parent)
	p, err := plan.Build(res.Final.Topology(), plan.Options{Replicas: res.Replicas()})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("plan.Build: %w", err)
	}
	return &planned{input: t, res: res, plan: p}, nil
}

// optimizer takes a set of documents to plans, pass after pass, and
// keeps what the optimize metrics and checks need.
type optimizer struct {
	docs  [][]byte
	rng   *rand.Rand
	order []int
	// perTopoMs holds, per pass over the documents, the pass's wall time
	// divided by the number of documents.
	perTopoMs []float64
	attempted int
	problems  []string
	// last is the latest pass's result per document (nil where it failed).
	last []*planned
}

func newOptimizer(docs [][]byte, seed uint64) *optimizer {
	rng := rand.New(rand.NewSource(int64(seed)))
	return &optimizer{docs: docs, rng: rng, order: rng.Perm(len(docs)), last: make([]*planned, len(docs))}
}

// passes goes through every document, in a freshly seed-shuffled order
// each time, until the budget is spent — at least once.
func (o *optimizer) passes(tr *tracer, run string, budget time.Duration) {
	for start := time.Now(); ; {
		o.rng.Shuffle(len(o.order), func(i, j int) { o.order[i], o.order[j] = o.order[j], o.order[i] })
		ps := tr.begin(run, spanPass, 0)
		t0 := time.Now()
		for _, i := range o.order {
			p, err := toPlan(tr, run, ps, o.docs[i])
			if err != nil {
				o.problems = append(o.problems, fmt.Sprintf("doc %d: %v", i, err))
			}
			o.last[i] = p
		}
		o.perTopoMs = append(o.perTopoMs, ms(time.Since(t0))/float64(len(o.docs)))
		tr.end(ps)
		o.attempted += len(o.docs)
		if time.Since(start) >= budget {
			return
		}
	}
}

// verify runs the oracle over the latest results.
func (o *optimizer) verify() {
	for i, p := range o.last {
		if p == nil {
			continue
		}
		for _, v := range oracle(p) {
			o.problems = append(o.problems, fmt.Sprintf("doc %d: %s", i, v))
		}
	}
}

// oracle checks what must hold of any optimizer result whatever cost
// model produced it.
func oracle(p *planned) []string {
	var bad []string
	const tol = 1e-9
	res := p.res
	if got, base := res.Analysis.Throughput(), res.Baseline.Throughput(); got < base*(1-tol) {
		bad = append(bad, fmt.Sprintf("optimized throughput %.6g below baseline %.6g", got, base))
	}
	final, replicas := res.Final.Topology(), res.Replicas()
	for i := 0; i < final.Len(); i++ {
		op := final.Op(core.OpID(i))
		if rho := res.Analysis.Rho[i]; rho > 1+1e-6 {
			bad = append(bad, fmt.Sprintf("%s left at rho %.4f", op.Name, rho))
		}
		if len(op.Fused) > 0 && replicas[i] > 1 {
			bad = append(bad, fmt.Sprintf("fused %s has %d replicas", op.Name, replicas[i]))
		}
	}
	// No replica budget is set, so a stateless operator can always be
	// replicated out of saturation: none may remain a limiting bottleneck.
	for _, id := range res.Analysis.Limiting {
		if op := final.Op(id); op.Kind == core.KindStateless && len(op.Fused) == 0 {
			bad = append(bad, fmt.Sprintf("stateless %s still limits throughput", op.Name))
		}
	}
	if rep := lint.VerifyPlan(final, lint.Config{Replicas: replicas}); rep.HasErrors() {
		bad = append(bad, fmt.Sprintf("final plan has lint errors: %v", rep.Err()))
	}
	return bad
}

// goldenRow is the change detector's record of one corpus topology.
type goldenRow struct {
	Doc         int     `json:"doc"`
	Fingerprint string  `json:"fingerprint"`
	Replicas    []int   `json:"replicas"`
	Throughput  float64 `json:"predicted_tps"`
}

//go:embed expected/optimize-corpus.json
var goldenJSON []byte

func goldenRows(last []*planned) []goldenRow {
	rows := make([]goldenRow, 0, len(last))
	for i, p := range last {
		if p == nil {
			continue
		}
		rows = append(rows, goldenRow{
			Doc:         i,
			Fingerprint: fmt.Sprintf("%016x", p.input.Fingerprint()),
			Replicas:    p.res.Replicas(),
			Throughput:  p.res.Throughput(),
		})
	}
	return rows
}

// checkGolden compares the corpus results against the committed record.
// A mismatch is a deliberate optimizer or generator change (regenerate
// the record from out/optimize-corpus.json) or a regression.
func checkGolden(got []goldenRow) []string {
	var want []goldenRow
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return []string{fmt.Sprintf("expected/optimize-corpus.json: %v", err)}
	}
	if len(got) != len(want) {
		return []string{fmt.Sprintf("golden: %d topologies, want %d", len(got), len(want))}
	}
	var bad []string
	for i, w := range want {
		g := got[i]
		switch {
		case g.Doc != w.Doc || g.Fingerprint != w.Fingerprint:
			bad = append(bad, fmt.Sprintf("golden doc %d: input fingerprint %s, want %s", w.Doc, g.Fingerprint, w.Fingerprint))
		case fmt.Sprint(g.Replicas) != fmt.Sprint(w.Replicas):
			bad = append(bad, fmt.Sprintf("golden doc %d: replicas %v, want %v", w.Doc, g.Replicas, w.Replicas))
		case math.Abs(g.Throughput-w.Throughput) > 1e-9*math.Abs(w.Throughput):
			bad = append(bad, fmt.Sprintf("golden doc %d: predicted %.9g tuples/s, want %.9g", w.Doc, g.Throughput, w.Throughput))
		}
	}
	return bad
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
