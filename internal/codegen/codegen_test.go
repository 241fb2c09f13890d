package codegen

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spinstreams"
	"spinstreams/internal/core"
	"spinstreams/internal/opt"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/xmlio"
)

func generate(t *testing.T, topo *core.Topology, replicas []int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Generate(&buf, topo, replicas); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// embedded parses a generated program and returns its imports and the
// deployment document its constant holds.
func embedded(t *testing.T, src string) (imports []string, doc string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "gen.go", src, 0)
	if err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	for _, imp := range f.Imports {
		imports = append(imports, strings.Trim(imp.Path.Value, `"`))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && vs.Names[0].Name == "deployment" {
			if doc, err = strconv.Unquote(vs.Values[0].(*ast.BasicLit).Value); err != nil {
				t.Fatalf("deployment constant: %v", err)
			}
		}
		return true
	})
	if doc == "" {
		t.Fatalf("generated code has no deployment constant:\n%s", src)
	}
	return imports, doc
}

// roundTrip checks that the program embeds exactly the deployment it was
// generated from.
func roundTrip(t *testing.T, src string, topo *core.Topology, replicas []int) {
	t.Helper()
	_, doc := embedded(t, src)
	back, degrees, err := xmlio.ReadOptimized(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("embedded document unreadable: %v\n%s", err, doc)
	}
	if back.Fingerprint() != topo.Fingerprint() {
		t.Errorf("embedded topology differs from the generated one:\n%s", doc)
	}
	if replicas == nil {
		replicas = make([]int, topo.Len())
		for i := range replicas {
			replicas[i] = 1
		}
	}
	if !slices.Equal(degrees, replicas) {
		t.Errorf("embedded degrees %v, want %v", degrees, replicas)
	}
}

// optimizedTable1 is the paper's Table 1 topology optimized with
// fission,fusion: the deployment optimize -passes fission,fusion writes.
func optimizedTable1(t *testing.T) (*core.Topology, []int) {
	t.Helper()
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	p, err := opt.ParsePasses("fission,fusion", opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	return res.Final.Topology(), res.Replicas()
}

func TestGeneratePlain(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	src := generate(t, topo, nil)
	imports, _ := embedded(t, src)
	// The program is the document plus one facade call: no internal
	// package, no flag of its own.
	if want := []string{"fmt", "os", "spinstreams"}; !slices.Equal(imports, want) {
		t.Errorf("imports %v, want %v", imports, want)
	}
	for _, want := range []string{"package main", "spinstreams.RunCommand(os.Args[1:], deployment, os.Stdout)"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	if strings.Contains(src, "flag.") {
		t.Error("generated code declares flags of its own")
	}
	roundTrip(t, src, topo, nil)
}

func TestGenerateWithReplicas(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	for i := 1; i < topo.Len()-1; i++ {
		topo.Op(core.OpID(i)).Kind = core.KindStateless
	}
	replicas := []int{1, 2, 1, 3, 1, 1}
	roundTrip(t, generate(t, topo, replicas), topo, replicas)
}

// TestGenerateWithFusion: a fused deployment embeds its meta-operator
// with the members it runs (Algorithm 4 at run time).
func TestGenerateWithFusion(t *testing.T) {
	topo, replicas := optimizedTable1(t)
	if _, ok := topo.Lookup("fused1"); !ok {
		t.Fatal("fission,fusion did not fuse Table 1")
	}
	src := generate(t, topo, replicas)
	roundTrip(t, src, topo, replicas)
	_, doc := embedded(t, src)
	if !strings.Contains(doc, `name="op3"`) || !strings.Contains(doc, `name="fused1"`) {
		t.Errorf("embedded document lost the meta-operator's members:\n%s", doc)
	}
}

func TestGenerateWithKeys(t *testing.T) {
	topo := core.NewTopology()
	topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	ps := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.002, Impl: "wsum",
		Keys: &core.KeyDistribution{Freq: []float64{0.5, 0.5}},
	})
	topo.MustConnect(0, ps, 1)
	roundTrip(t, generate(t, topo, []int{1, 2}), topo, []int{1, 2})
}

func TestGenerateValidation(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	if err := Generate(&bytes.Buffer{}, topo, []int{1}); err == nil {
		t.Error("replica count mismatch accepted")
	}
	if err := Generate(&bytes.Buffer{}, topo, []int{1, 0, 1, 1, 1, 1}); err == nil {
		t.Error("zero replica degree accepted")
	}
	if err := Generate(&bytes.Buffer{}, nil, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if err := Generate(&bytes.Buffer{}, core.NewTopology(), nil); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestGenerateRandomTopologiesParse(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, generate(t, g.Topology, nil), g.Topology, nil)
	}
}

// TestGeneratedSourceIsGofmtClean: generated programs are what gofmt
// would write, plain and optimized.
func TestGeneratedSourceIsGofmtClean(t *testing.T) {
	plain, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	topo, replicas := optimizedTable1(t)
	for name, src := range map[string]string{
		"plain":          generate(t, plain, nil),
		"fission,fusion": generate(t, topo, replicas),
	} {
		formatted, err := format.Source([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(formatted) != src {
			t.Errorf("%s: generated source is not gofmt-clean:\n%s", name, src)
		}
	}
}

// TestGeneratedProgramBuildsAndRuns is the full integration check: the
// generated program builds where a user would build it, in a module of
// its own outside this one that requires spinstreams through a replace
// directive, offline, and runs the deployment run -in runs.
func TestGeneratedProgramBuildsAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a generated binary")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "spinstreams-gen-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	topo, replicas := optimizedTable1(t)
	src := generate(t, topo, replicas)
	gomod := "module gen\n\ngo 1.22\n\nrequire spinstreams v0.0.0\n\nreplace spinstreams => " + root + "\n"
	for name, data := range map[string]string{"main.go": src, "go.mod": gomod} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(dir, "gen")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s\n--- generated source ---\n%s", err, out, src)
	}

	// The prediction is the one run -in prints for the same document.
	optFile := filepath.Join(dir, "opt.xml")
	if err := xmlio.WriteFileOptimized(optFile, "optimized", topo, replicas); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := spinstreams.RunCommand([]string{"-in", optFile, "-duration", "200ms"}, "", &ref); err != nil {
		t.Fatal(err)
	}
	predicted := predictedLine(t, ref.String())

	// The default and both ends of the window knob — -batch 1 is
	// per-tuple delivery — must work in generated programs.
	for _, args := range [][]string{
		{"-duration", "400ms"},
		{"-duration", "400ms", "-batch", "16", "-linger", "500us"},
		{"-duration", "400ms", "-batch", "1"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("generated binary %v failed: %v\n%s", args, err, out)
		}
		if got := predictedLine(t, string(out)); got != predicted {
			t.Errorf("%v: %q, run -in printed %q", args, got, predicted)
		}
		if !strings.Contains(string(out), "measured  throughput:") {
			t.Errorf("%v output missing the measured throughput:\n%s", args, out)
		}
	}
	// run's flag validation holds in generated programs too.
	if out, err := exec.Command(bin, "-mailbox", "0").CombinedOutput(); err == nil {
		t.Errorf("generated binary accepted -mailbox 0:\n%s", out)
	}
}

func predictedLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "predicted throughput:") {
			return line
		}
	}
	t.Fatalf("no predicted throughput line:\n%s", out)
	return ""
}
