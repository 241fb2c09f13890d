package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/xmlio"
)

// writePaperTopology writes the Section 5.4 example to a temp XML file.
func writePaperTopology(t *testing.T) string {
	t.Helper()
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	path := filepath.Join(t.TempDir(), "topo.xml")
	if err := xmlio.WriteFile(path, "paper", topo); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs the CLI with args and returns its stdout.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// TestCLIAnalyze: an empty pass list is the analysis alone.
func TestCLIAnalyze(t *testing.T) {
	out, err := capture(t, "optimize", "-passes", "", "-in", writePaperTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"predicted throughput: 1000.0", "op1", "op6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// writeBottleneckTopology writes Table 1 with op2 stateless and slow,
// so fission triggers.
func writeBottleneckTopology(t *testing.T) string {
	t.Helper()
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable1)
	op2, _ := topo.Lookup("op2")
	topo.Op(op2).Kind = core.KindStateless
	topo.Op(op2).ServiceTime = 0.004
	in := filepath.Join(t.TempDir(), "in.xml")
	if err := xmlio.WriteFile(in, "t", topo); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCLIOptimize(t *testing.T) {
	in := writeBottleneckTopology(t)
	outFile := filepath.Join(t.TempDir(), "out.xml")
	out, err := capture(t, "optimize", "-in", in, "-out", outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total replicas:") {
		t.Errorf("output missing replica summary:\n%s", out)
	}
	if _, err := xmlio.ReadFile(outFile); err != nil {
		t.Errorf("optimized XML unreadable: %v", err)
	}
}

// TestCLICandidatesAndFuse: the empty pass list ranks the fusion
// candidates, and fuse=a+b+c applies one.
func TestCLICandidatesAndFuse(t *testing.T) {
	path := writePaperTopology(t)
	out, err := capture(t, "optimize", "-passes", "", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "op3") {
		t.Errorf("candidates missing op3 subgraph:\n%s", out)
	}
	fusedFile := filepath.Join(t.TempDir(), "fused.xml")
	out, err = capture(t, "optimize", "-in", path, "-passes", "fuse=op3+op4+op5", "-out", fusedFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fusion is feasible") {
		t.Errorf("fuse output:\n%s", out)
	}
	back, err := xmlio.ReadFile(fusedFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Lookup("fused(op3+op4+op5)"); !ok {
		t.Error("fused topology lost the meta-operator")
	}
}

func TestCLIFuseAlert(t *testing.T) {
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable2)
	path := filepath.Join(t.TempDir(), "t2.xml")
	if err := xmlio.WriteFile(path, "t2", topo); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "optimize", "-in", path, "-passes", "fuse=op3+op4+op5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ALERT") {
		t.Errorf("expected bottleneck alert:\n%s", out)
	}
}

func TestCLIAutoFuse(t *testing.T) {
	out, err := capture(t, "optimize", "-passes", "fusion", "-in", writePaperTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "operators: 6 ->") {
		t.Errorf("autofuse output:\n%s", out)
	}
}

func TestCLISimulate(t *testing.T) {
	out, err := capture(t, "simulate", "-in", writePaperTopology(t), "-horizon", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simulated throughput:") {
		t.Errorf("simulate output:\n%s", out)
	}
}

func TestCLIGenerate(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "main.go")
	if _, err := capture(t, "generate", "-in", writePaperTopology(t), "-out", outFile); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "package main") {
		t.Error("generated file is not a main package")
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	// The front-ends optimize -passes replaced are unknown subcommands.
	for _, removed := range []string{"analyze", "candidates", "fuse", "autofuse"} {
		if err := run([]string{removed, "-in", writePaperTopology(t)}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("removed subcommand %s: %v", removed, err)
		}
	}
	if err := run([]string{"optimize"}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"optimize", "-in", "/nonexistent.xml"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"optimize", "-in", writePaperTopology(t), "-passes", "fuse="}); err == nil {
		t.Error("fuse without members accepted")
	}
	if err := run([]string{"optimize", "-in", writePaperTopology(t), "-passes", "fuse=ghost"}); err == nil {
		t.Error("unknown member accepted")
	}
	if err := run([]string{"optimize", "-in", writePaperTopology(t), "-passes", "fusion,fuse=op3+op4+op5"}); err == nil {
		t.Error("fusion and fuse in one run accepted")
	}
	for _, bad := range []string{"shedding", "analyze", "autofuse"} {
		if err := run([]string{"optimize", "-in", writePaperTopology(t), "-passes", bad}); err == nil {
			t.Errorf("unknown pass %q accepted", bad)
		}
	}
	// Fusion is optimize -passes fuse=a+b+c; generate deploys the document.
	if err := run([]string{"generate", "-in", writePaperTopology(t), "-members", "op3,op4,op5"}); err == nil {
		t.Error("removed generate -members flag accepted")
	}
	if err := run([]string{"run"}); err == nil || !strings.Contains(err.Error(), "-in is required") {
		t.Errorf("run without -in: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

// TestCLIRunValidation pins the run subcommand's config validation:
// nonsense typed on the command line must be rejected — either by the
// flag layer itself or by the runtime config validation it feeds — and
// never silently coerced into a runnable configuration.
func TestCLIRunValidation(t *testing.T) {
	topo := writePaperTopology(t)
	cases := []struct {
		name string
		args []string
	}{
		{"negative duration", []string{"-duration", "-1s"}},
		{"warmup equals duration", []string{"-duration", "1s", "-warmup", "1s"}},
		{"warmup exceeds duration", []string{"-duration", "1s", "-warmup", "2s"}},
		{"negative warmup", []string{"-warmup", "-1s"}},
		{"zero mailbox", []string{"-mailbox", "0"}},
		{"negative mailbox", []string{"-mailbox", "-3"}},
		{"negative batch", []string{"-batch", "-8"}},
		{"negative linger", []string{"-linger", "-1ms"}},
		{"removed -mailbox-mode flag", []string{"-mailbox-mode", "batch"}},
		{"removed -estimator flag", []string{"-estimator"}},
		{"removed -estimator-interval flag", []string{"-estimator-interval", "1ms"}},
		{"negative send deadline", []string{"-nodes", "2", "-send-deadline", "-1s"}},
		{"removed -optimize flag", []string{"-optimize"}},
		{"removed -drift flag", []string{"-drift"}},
		{"removed -reoptimize flag", []string{"-reoptimize"}},
		{"removed -autotune flag", []string{"-autotune"}},
		{"removed -autotune-rounds flag", []string{"-autotune-rounds", "2"}},
		{"removed -autotune-interval flag", []string{"-autotune-interval", "1s"}},
		{"removed -reconfig-stall-budget flag", []string{"-reconfig-stall-budget", "1s"}},
		{"removed -vet flag", []string{"-vet"}},
		{"unknown adapt mode", []string{"-adapt", "bogus"}},
		{"adapt apply across nodes", []string{"-adapt", "apply", "-nodes", "2"}},
		{"zero nodes", []string{"-nodes", "0"}},
		{"negative nodes", []string{"-nodes", "-2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"run", "-in", topo}, tc.args...)
			if err := run(args); err == nil {
				t.Errorf("run %v accepted", tc.args)
			}
		})
	}
}

// TestCLISimulateValidation holds simulate to TestCLIRunValidation's
// rule: typed nonsense is rejected, never replaced by a default.
func TestCLISimulateValidation(t *testing.T) {
	topo := writePaperTopology(t)
	replicated := filepath.Join(t.TempDir(), "opt.xml")
	if _, err := capture(t, "optimize", "-in", writeBottleneckTopology(t), "-out", replicated); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"zero horizon", []string{"-in", topo, "-horizon", "0"}},
		{"negative horizon", []string{"-in", topo, "-horizon", "-5"}},
		{"NaN horizon", []string{"-in", topo, "-horizon", "NaN"}},
		{"infinite horizon", []string{"-in", topo, "-horizon", "+Inf"}},
		{"zero mailbox", []string{"-in", topo, "-mailbox", "0"}},
		{"negative mailbox", []string{"-in", topo, "-mailbox", "-3"}},
		{"removed -optimize flag", []string{"-in", topo, "-optimize"}},
		{"shedding on a replicated deployment", []string{"-in", replicated, "-shedding"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(append([]string{"simulate"}, tc.args...)); err == nil {
				t.Errorf("simulate %v accepted", tc.args)
			}
		})
	}
}

// TestCLIOptimizeThenDeploy: the document optimize writes is the
// deployment every other command reads, replica degrees included.
func TestCLIOptimizeThenDeploy(t *testing.T) {
	dir := t.TempDir()
	optFile := filepath.Join(dir, "opt.xml")
	out, err := capture(t, "optimize", "-in", writeBottleneckTopology(t), "-out", optFile)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(out, "predicted throughput:")
	if i < 0 {
		t.Fatalf("optimize printed no prediction:\n%s", out)
	}
	prediction := out[i : i+strings.IndexByte(out[i:], '\n')]

	sim, err := capture(t, "simulate", "-in", optFile, "-horizon", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sim, prediction+"\n") {
		t.Errorf("simulate does not predict the optimized deployment (%q):\n%s", prediction, sim)
	}

	genFile := filepath.Join(dir, "main.go")
	if _, err := capture(t, "generate", "-in", optFile, "-out", genFile); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(genFile)
	if err != nil {
		t.Fatal(err)
	}
	_, degrees, err := xmlio.ReadFileOptimized(optFile)
	if err != nil {
		t.Fatal(err)
	}
	// The program embeds the document as a quoted string constant.
	if want := fmt.Sprintf(`replicas=\"%d\"`, degrees[1]); degrees[1] < 2 || !strings.Contains(string(src), want) {
		t.Errorf("generated program does not embed %q:\n%s", want, src)
	}

	vet, err := capture(t, "vet", "-in", optFile, "-replica-budget", "1")
	if err != nil {
		t.Fatalf("budget warning must not gate: %v", err)
	}
	if !strings.Contains(vet, "SS1006 warning") {
		t.Errorf("vet does not see the document's degrees:\n%s", vet)
	}
}

// TestCLIRunWithFaultToleranceFlags exercises the happy path with the
// fault-tolerance and dataplane knobs set, confirming they parse and
// reach the runtime.
func TestCLIRunWithFaultToleranceFlags(t *testing.T) {
	out, err := capture(t, "run", "-in", writePaperTopology(t),
		"-duration", "400ms", "-warmup", "100ms", "-max-restarts", "2",
		"-batch", "8", "-linger", "200us")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "measured  throughput") {
		t.Errorf("run output incomplete:\n%s", out)
	}
}

func TestCLIProfile(t *testing.T) {
	out, err := capture(t, "profile", "-samples", "500")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"identity", "wquantile", "skyline", "service(us)"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q", want)
		}
	}
}

func TestCLIDot(t *testing.T) {
	out, err := capture(t, "dot", "-in", writePaperTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "rho=") {
		t.Errorf("dot output incomplete:\n%s", out)
	}
}

func TestCLIAnalyzeLatency(t *testing.T) {
	out, err := capture(t, "optimize", "-passes", "latency", "-in", writePaperTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "end-to-end latency") {
		t.Errorf("latency output missing:\n%s", out)
	}
}

// TestCLIOptimizeTrace pins the rewrite-trace exports: -trace-json emits
// the schema-documented JSON trace and -trace-dot the annotated overlay.
func TestCLIOptimizeTrace(t *testing.T) {
	dir := t.TempDir()
	jsonFile := filepath.Join(dir, "trace.json")
	dotFile := filepath.Join(dir, "trace.dot")
	outFile := filepath.Join(dir, "opt.xml")
	out, err := capture(t, "optimize", "-in", writePaperTopology(t), "-passes", "fission,fusion",
		"-out", outFile, "-trace-json", jsonFile, "-trace-dot", dotFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"total replicas:", "fused {op3, op4, op5}", "wrote " + jsonFile} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": "spinstreams/rewrite-trace/v1"`, `"action": "fuse"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace JSON missing %q:\n%s", want, data)
		}
	}
	overlay, err := os.ReadFile(dotFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "fused (round 1)", "predicted throughput:"} {
		if !strings.Contains(string(overlay), want) {
			t.Errorf("overlay missing %q:\n%s", want, overlay)
		}
	}
	// The optimized XML round-trips with its fused meta-operator.
	back, err := xmlio.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Lookup("fused1"); !ok {
		t.Error("optimized XML lost the fused meta-operator")
	}
}

// TestCLIRunReoptimize exercises run -adapt report end to end: the drift
// report feeds opt.Reoptimize and the delta plan is printed.
func TestCLIRunReoptimize(t *testing.T) {
	out, err := capture(t, "run", "-in", writePaperTopology(t),
		"-duration", "600ms", "-warmup", "150ms", "-adapt", "report")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "re-optimization on measured profiles:") {
		t.Errorf("run output missing the delta plan:\n%s", out)
	}
}

// TestCLIRunEstimatorReoptimize exercises run -adapt report end to end:
// the run measures through the online estimator, the drift report
// carries its profiles with a re-analysis on them, and opt.Reoptimize turns
// the report into the printed delta plan.
func TestCLIRunEstimatorReoptimize(t *testing.T) {
	out, err := capture(t, "run", "-in", writePaperTopology(t),
		"-duration", "700ms", "-warmup", "150ms", "-adapt", "report")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Model-vs-measured drift", "re-analysis on measured profiles:", "re-optimization on measured profiles:"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIRunDriftDistributed runs the same measurement procedure across two
// TCP-connected nodes: the estimator samples the distributed run too, so
// the drift report still re-analyzes on measured profiles.
func TestCLIRunDriftDistributed(t *testing.T) {
	out, err := capture(t, "run", "-in", writePaperTopology(t),
		"-duration", "700ms", "-warmup", "150ms", "-nodes", "2", "-adapt", "report")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "re-analysis on measured profiles:") {
		t.Errorf("distributed run output missing the re-analysis:\n%s", out)
	}
}

// TestCLIRunAutotuneEstimator drives the full autonomic loop from the
// command line: autotune rounds fed by the estimator must complete and
// report their outcome. -adapt apply splits the post-warmup time into
// two rounds (300ms each here).
func TestCLIRunAutotuneEstimator(t *testing.T) {
	out, err := capture(t, "run", "-in", writePaperTopology(t),
		"-adapt", "apply", "-duration", "800ms", "-warmup", "200ms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "autotune round 0:") {
		t.Errorf("run output missing autotune rounds:\n%s", out)
	}
	if !strings.Contains(out, "autotune round 1:") || !strings.Contains(out, "over 2 round(s)") {
		t.Errorf("run output missing the second round:\n%s", out)
	}
	if !strings.Contains(out, "autotune: applied") {
		t.Errorf("run output missing the autotune summary:\n%s", out)
	}
}

// writeChainTopology writes src -> mid -> sink with a stateless mid of
// the given service time, for vet tests that need controllable load. A
// non-empty midReplicas becomes mid's replicas attribute verbatim.
func writeChainTopology(t *testing.T, midService float64, midReplicas string) string {
	t.Helper()
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 1e-3})
	mid := topo.MustAddOperator(core.Operator{Name: "mid", Kind: core.KindStateless, ServiceTime: midService})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 1e-4})
	topo.MustConnect(src, mid, 1)
	topo.MustConnect(mid, sink, 1)
	var buf bytes.Buffer
	if err := xmlio.Write(&buf, "chain", topo); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if midReplicas != "" {
		doc = strings.Replace(doc, `name="mid"`, `name="mid" replicas="`+midReplicas+`"`, 1)
	}
	path := filepath.Join(t.TempDir(), "chain.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIVetZeroReplicasNormalized(t *testing.T) {
	// Degree 0 means "not replicated"; vet normalizes it to 1 instead of
	// rejecting the document or dividing by zero in the cost model.
	out, err := capture(t, "vet", "-in", writeChainTopology(t, 1e-4, "0"))
	if err != nil {
		t.Fatalf("zero replica degrees must vet clean, got %v:\n%s", err, out)
	}
	if !strings.Contains(out, "0 error(s)") {
		t.Errorf("unexpected report:\n%s", out)
	}
}

func TestCLIVetBudgetOverflowIsWarningOnly(t *testing.T) {
	// Exceeding the budget is advice (SS1006), not a gate: the exit code
	// stays zero so CI can surface it without failing the build.
	out, err := capture(t, "vet", "-in", writeChainTopology(t, 1e-4, "6"), "-replica-budget", "4")
	if err != nil {
		t.Fatalf("warnings-only report must exit zero, got %v:\n%s", err, out)
	}
	if !strings.Contains(out, "SS1006 warning") {
		t.Errorf("missing SS1006 over-budget warning:\n%s", out)
	}
}

// TestCLIVetMisalignedReplicasIsError: a degree no deployment can have
// is an error. Degrees travel in the document, one per operator element,
// so a negative one is the malformed case the CLI can meet; lint's
// TestReplicaChecks covers a vector of the wrong length.
func TestCLIVetMisalignedReplicasIsError(t *testing.T) {
	out, err := capture(t, "vet", "-in", writeChainTopology(t, 1e-4, "-2"))
	if err == nil {
		t.Fatalf("negative replica degree must exit non-zero:\n%s", out)
	}
	if !strings.Contains(out, "SS1000") {
		t.Errorf("missing SS1000 diagnostic:\n%s", out)
	}
}

func TestCLIVetBurstFlags(t *testing.T) {
	// rho 0.8 chain under a 2x/1s burst: SS3002 fires as a warning (exit
	// zero), and sizing the mailbox per the suggestion silences it.
	in := writeChainTopology(t, 8e-4, "")
	out, err := capture(t, "vet", "-in", in, "-burst-factor", "2", "-burst-seconds", "1")
	if err != nil {
		t.Fatalf("burst warning must not gate, got %v:\n%s", err, out)
	}
	if !strings.Contains(out, "SS3002 warning") {
		t.Errorf("missing SS3002 burst warning:\n%s", out)
	}
	out, err = capture(t, "vet", "-in", in,
		"-burst-factor", "2", "-burst-seconds", "1", "-mailbox-size", "750")
	if err != nil || strings.Contains(out, "SS3002") {
		t.Errorf("sized-up mailbox still flagged (%v):\n%s", err, out)
	}
}

// TestCLIVetTrace replays committed rewrite traces through vet -trace. A
// trace that still carries the dropped per-inbox "transports" record
// vets clean (unknown fields are ignored); a stale trace is an error.
func TestCLIVetTrace(t *testing.T) {
	for _, tc := range []struct {
		name, in, trace string
		wantErr         bool
		want            string
	}{
		{"transports record", "../../testdata/legacy-transports.xml", "../../testdata/legacy-transports.trace.json", false, "0 error(s), 0 warning(s), 0 info(s)"},
		{"stale trace", "../../testdata/lint/SS2001-stale-trace.xml", "../../testdata/lint/SS2001-stale-trace.trace.json", true, "SS2001 error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := capture(t, "vet", "-in", tc.in, "-trace", tc.trace)
			if (err != nil) != tc.wantErr {
				t.Fatalf("vet error = %v, want error %v:\n%s", err, tc.wantErr, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("vet output missing %q:\n%s", tc.want, out)
			}
		})
	}
}
