package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spinstreams/internal/core"
	"spinstreams/internal/xmlio"
)

// chain builds the minimal clean topology: source -> mid -> sink.
func chain(t *testing.T, midKind core.Kind, midService float64) *core.Topology {
	t.Helper()
	top := core.NewTopology()
	src, _ := top.AddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 1e-3})
	mid, err := top.AddOperator(core.Operator{Name: "mid", Kind: midKind, ServiceTime: midService})
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := top.AddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 1e-4})
	if err := top.Connect(src, mid, 1); err != nil {
		t.Fatal(err)
	}
	if err := top.Connect(mid, sink, 1); err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPaperTopologiesHaveNoErrors(t *testing.T) {
	for _, file := range []string{"../../testdata/paper-table1.xml", "../../testdata/paper-table2.xml"} {
		top, err := xmlio.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		rep := Run(top, Config{File: file})
		if rep.HasErrors() {
			t.Errorf("%s: %v", file, rep.Err())
		}
	}
}

func TestCleanChainIsClean(t *testing.T) {
	rep := Run(chain(t, core.KindStateless, 1e-4), Config{})
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("unexpected diagnostics: %v", rep.Diagnostics)
	}
}

func TestSaturatedStatefulWarns(t *testing.T) {
	rep := Run(chain(t, core.KindStateful, 5e-3), Config{})
	if rep.HasErrors() {
		t.Fatalf("unexpected errors: %v", rep.Err())
	}
	if n := len(rep.Diagnostics); n != 1 || rep.Diagnostics[0].Code != CodeSaturatedNoRemedy {
		t.Fatalf("want one SS1102 warning, got %v", rep.Diagnostics)
	}
}

func TestReplicaChecks(t *testing.T) {
	top := chain(t, core.KindStateful, 1e-4)
	rep := Run(top, Config{Replicas: []int{1, 3, 1}})
	if !rep.HasErrors() {
		t.Fatal("replicating a stateful operator must be an error")
	}
	if rep.Diagnostics[0].Code != CodeStatefulFission {
		t.Fatalf("want SS1004, got %v", rep.Diagnostics[0])
	}

	top = chain(t, core.KindStateless, 1e-4)
	rep = Run(top, Config{Replicas: []int{1, 6, 1}, ReplicaBudget: 4})
	var codes []string
	for _, d := range rep.Diagnostics {
		codes = append(codes, d.Code)
	}
	// The over-budget configuration is the SS1006 warning, and only that.
	if rep.HasErrors() || len(codes) != 1 || codes[0] != CodeReplicaBudget {
		t.Fatalf("want the SS1006 warning alone, got %v", rep.Diagnostics)
	}

	rep = Run(top, Config{Replicas: []int{1, 2}})
	if !rep.HasErrors() || rep.Diagnostics[0].Code != CodeMalformed {
		t.Fatalf("misaligned replica vector must be SS1000, got %v", rep.Diagnostics)
	}
}

func TestFusionCandidateCheck(t *testing.T) {
	top := chain(t, core.KindStateless, 1e-4)
	rep := Run(top, Config{FuseMembers: []string{"mid", "ghost"}})
	if !rep.HasErrors() || rep.Diagnostics[0].Code != CodeFusionCandidate {
		t.Fatalf("want SS1003 for unknown member, got %v", rep.Diagnostics)
	}
	rep = Run(top, Config{FuseMembers: []string{"mid", "sink"}})
	if rep.HasErrors() {
		t.Fatalf("valid candidate flagged: %v", rep.Err())
	}
}

func TestCheckDrift(t *testing.T) {
	top := chain(t, core.KindStateless, 1e-4)
	if ds := CheckDrift(top, []string{"src", "mid", "sink"}, []int{1, 1, 1}, 3); len(ds) != 0 {
		t.Fatalf("aligned drift flagged: %v", ds)
	}
	ds := CheckDrift(top, []string{"ghost"}, []int{1, 1}, 2)
	if len(ds) != 3 {
		t.Fatalf("want 3 diagnostics, got %v", ds)
	}
	for _, d := range ds {
		if d.Code != CodeDriftMismatch {
			t.Errorf("want SS2002, got %v", d)
		}
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{SeverityInfo, SeverityWarning, SeverityError} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip %v -> %s -> %v", s, data, back)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &s); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestOutputFormats(t *testing.T) {
	rep := Run(chain(t, core.KindStateful, 5e-3), Config{File: "chain.xml", Replicas: []int{1, 2, 1}})

	var buf bytes.Buffer
	if err := rep.Text(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "error(s)") {
		t.Errorf("text output missing summary:\n%s", buf.String())
	}

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		File        string       `json:"file"`
		Diagnostics []Diagnostic `json:"diagnostics"`
		Errors      int          `json:"errors"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	// The run yields SS1004 (error: stateful replicated) plus SS1102
	// (warning: saturated with no remedy).
	if decoded.File != "chain.xml" || decoded.Errors != 1 || len(decoded.Diagnostics) != 2 {
		t.Errorf("unexpected JSON payload: %s", data)
	}

	sarif, err := rep.SARIF()
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []Rule `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif, &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: %s", sarif)
	}
	if got := log.Runs[0].Tool.Driver.Name; got != "spinstreams-vet" {
		t.Errorf("driver name %q", got)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(Rules) {
		t.Errorf("SARIF rules %d, want %d", len(log.Runs[0].Tool.Driver.Rules), len(Rules))
	}
	if len(log.Runs[0].Results) != 2 || log.Runs[0].Results[0].RuleID != CodeStatefulFission {
		t.Errorf("unexpected SARIF results: %s", sarif)
	}
}

func TestErrorRendering(t *testing.T) {
	one := &Error{Diagnostics: []Diagnostic{{Code: CodeMalformed, Severity: SeverityError, Message: "boom"}}}
	if !strings.Contains(one.Error(), "SS1000") {
		t.Errorf("single-diagnostic error: %q", one.Error())
	}
	two := &Error{Diagnostics: []Diagnostic{
		{Code: CodeMalformed, Severity: SeverityError, Message: "a"},
		{Code: CodeUnreachable, Severity: SeverityError, Message: "b"},
	}}
	if !strings.HasPrefix(two.Error(), "2 diagnostics:") {
		t.Errorf("multi-diagnostic error: %q", two.Error())
	}
}

// TestSARIFRuleMetadata pins the per-rule documentation contract: every
// registered code ships a Doc paragraph, and the SARIF rule table carries
// it as fullDescription with a helpUri — code-scanning UIs link findings
// straight to the rationale.
func TestSARIFRuleMetadata(t *testing.T) {
	for _, r := range Rules {
		if r.Doc == "" {
			t.Errorf("rule %s (%s) has no Doc", r.Code, r.Name)
		}
	}
	sarif, err := (&Report{}).SARIF()
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID              string `json:"id"`
						FullDescription *struct {
							Text string `json:"text"`
						} `json:"fullDescription"`
						HelpURI string `json:"helpUri"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif, &log); err != nil {
		t.Fatal(err)
	}
	rules := log.Runs[0].Tool.Driver.Rules
	if len(rules) != len(Rules) {
		t.Fatalf("SARIF rules %d, want %d", len(rules), len(Rules))
	}
	for _, r := range rules {
		if r.FullDescription == nil || r.FullDescription.Text == "" {
			t.Errorf("rule %s missing fullDescription", r.ID)
		}
		if !strings.Contains(r.HelpURI, strings.ToLower(r.ID)) {
			t.Errorf("rule %s helpUri %q does not key on the code", r.ID, r.HelpURI)
		}
	}
}
