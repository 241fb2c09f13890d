package codegen

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/randtopo"
)

func paperInput(t *testing.T) Input {
	t.Helper()
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	specs := make([]operators.Spec, topo.Len())
	specs[0] = operators.Spec{Impl: "source"}
	for i := 1; i < topo.Len(); i++ {
		specs[i] = operators.Spec{Impl: "identity"}
	}
	return Input{Topology: topo, Specs: specs}
}

func generate(t *testing.T, in Input) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Generate(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func parseOK(t *testing.T, src string) {
	t.Helper()
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
}

func TestGeneratePlain(t *testing.T) {
	src := generate(t, paperInput(t))
	parseOK(t, src)
	for _, want := range []string{
		"package main", "core.NewTopology()", "MustConnect", "runtime.RunTopology",
		"core.SteadyState(t)",
		// The generated program exposes the dataplane knobs and routes
		// them into the runtime config.
		`flag.Int("batch"`, `flag.Duration("linger"`, "Batch:       batch",
		// Fault-tolerance knob: bounded operator restart.
		`flag.Int("max-restarts"`, "MaxRestarts: maxRestarts",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateWithReplicas(t *testing.T) {
	in := paperInput(t)
	// Stateless vertices for replication.
	for i := 1; i < in.Topology.Len()-1; i++ {
		in.Topology.Op(core.OpID(i)).Kind = core.KindStateless
	}
	in.Replicas = []int{1, 2, 1, 3, 1, 1}
	src := generate(t, in)
	parseOK(t, src)
	if !strings.Contains(src, "SteadyStateWithReplicas") {
		t.Error("replica program does not pin degrees")
	}
}

func TestGenerateWithFusion(t *testing.T) {
	in := paperInput(t)
	in.FuseMembers = []core.OpID{2, 3, 4}
	in.FusedName = "F"
	src := generate(t, in)
	parseOK(t, src)
	for _, want := range []string{"core.Fuse(t, members", "NewMetaOperator", "report.SurvivorIDs"} {
		if !strings.Contains(src, want) {
			t.Errorf("fusion program missing %q", want)
		}
	}
}

func TestGenerateWithKeys(t *testing.T) {
	topo := core.NewTopology()
	topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	ps := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.002,
		Keys: &core.KeyDistribution{Freq: []float64{0.5, 0.5}},
	})
	topo.MustConnect(0, ps, 1)
	src := generate(t, Input{
		Topology: topo,
		Specs:    []operators.Spec{{Impl: "source"}, {Impl: "wsum", WindowLen: 100, Slide: 10}},
	})
	parseOK(t, src)
	if !strings.Contains(src, "KeyDistribution{Freq: []float64{0.5, 0.5}}") {
		t.Error("key distribution not emitted")
	}
}

func TestGenerateValidation(t *testing.T) {
	in := paperInput(t)
	in.Specs = in.Specs[:2]
	if err := Generate(&bytes.Buffer{}, in); err == nil {
		t.Error("spec count mismatch accepted")
	}
	in = paperInput(t)
	in.Replicas = []int{1}
	if err := Generate(&bytes.Buffer{}, in); err == nil {
		t.Error("replica count mismatch accepted")
	}
	in = paperInput(t)
	in.Replicas = make([]int, in.Topology.Len())
	in.FuseMembers = []core.OpID{2, 3}
	if err := Generate(&bytes.Buffer{}, in); err == nil {
		t.Error("fusion+replicas accepted")
	}
	if err := Generate(&bytes.Buffer{}, Input{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestGenerateRandomTopologiesParse(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g, err := randtopo.Generate(randtopo.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		src := generate(t, Input{Topology: g.Topology, Specs: g.Specs})
		parseOK(t, src)
	}
}

// TestGeneratedProgramBuildsAndRuns is the full integration check: the
// generated program must compile inside this module and execute.
func TestGeneratedProgramBuildsAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a generated binary")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// Directories starting with "." are invisible to the go tool, so a
	// leftover cannot break ./... builds.
	dir, err := os.MkdirTemp(root, ".codegen-test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	src := generate(t, paperInput(t))
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "gen")
	build := exec.Command("go", "build", "-o", bin, dir)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s\n--- generated source ---\n%s", err, out, src)
	}
	// The default (per-edge ring selection) and both ends of the window
	// knob — -batch 1 is per-tuple delivery — must work in generated
	// programs.
	for _, args := range [][]string{
		{"-duration", "400ms"},
		{"-duration", "400ms", "-batch", "16", "-linger", "500us"},
		{"-duration", "400ms", "-batch", "1"},
	} {
		run := exec.Command(bin, args...)
		out, err := run.CombinedOutput()
		if err != nil {
			t.Fatalf("generated binary %v failed: %v\n%s", args, err, out)
		}
		for _, want := range []string{"predicted throughput", "measured  throughput"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("%v output missing %q:\n%s", args, want, out)
			}
		}
	}
}

// TestFromResult wires an optimizer pipeline result into an Input: the
// final fused topology generates a valid program, and an all-ones
// replica vector collapses to nil.
func TestFromResult(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	res, err := opt.Run(topo, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final.Topology()
	if final.Len() >= topo.Len() {
		t.Fatalf("expected fusion to shrink the topology (%d -> %d)", topo.Len(), final.Len())
	}
	specs := make([]operators.Spec, final.Len())
	specs[0] = operators.Spec{Impl: "source"}
	for i := 1; i < final.Len(); i++ {
		specs[i] = operators.Spec{Impl: "identity"}
	}
	in := FromResult(res, specs)
	if in.Topology != final {
		t.Error("FromResult did not use the final topology")
	}
	if in.Replicas != nil {
		t.Errorf("all-ones replicas should collapse to nil, got %v", in.Replicas)
	}
	var buf bytes.Buffer
	if err := Generate(&buf, in); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !strings.Contains(buf.String(), "package main") {
		t.Error("generated program is not a main package")
	}

	// A replicated result carries its degrees through.
	bott := core.NewTopology()
	src := bott.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 1e-3})
	hot := bott.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 4e-3})
	snk := bott.MustAddOperator(core.Operator{Name: "snk", Kind: core.KindSink, ServiceTime: 1e-4})
	bott.MustConnect(src, hot, 1)
	bott.MustConnect(hot, snk, 1)
	res2, err := (&opt.Pipeline{Passes: []opt.Pass{opt.AnalyzePass{}, opt.FissionPass{}}}).Run(bott)
	if err != nil {
		t.Fatal(err)
	}
	in2 := FromResult(res2, []operators.Spec{{Impl: "source"}, {Impl: "identity"}, {Impl: "identity"}})
	if in2.Replicas == nil || in2.Replicas[1] != 4 {
		t.Errorf("replicas = %v, want hot at 4", in2.Replicas)
	}
	if err := Generate(&buf, in2); err != nil {
		t.Fatalf("generate replicated: %v", err)
	}
}
