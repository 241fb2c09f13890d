package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinstreams/internal/experiments"
)

// TestUnknownExperimentListsRegistry pins the fix for silently mistyped
// -exp names: the error must name the offender and carry the registry so
// the user can pick a real one.
func TestUnknownExperimentListsRegistry(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig77"}, &out)
	if err == nil {
		t.Fatal("unknown -exp accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"fig77"`) {
		t.Errorf("error does not name the unknown experiment: %v", msg)
	}
	for _, want := range []string{"registered scenarios:", "fig7", "corpus"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not list %q: %v", want, msg)
		}
	}
}

func TestUnknownTagListsRegistry(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scenario-tag", "nope"}, &out)
	if err == nil {
		t.Fatal("unknown -scenario-tag accepted")
	}
	if !strings.Contains(err.Error(), "registered scenarios:") {
		t.Errorf("error does not list the registry: %v", err)
	}
}

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	listing := out.String()
	for _, name := range experiments.Names() {
		if !strings.Contains(listing, name) {
			t.Errorf("-list output missing scenario %q", name)
		}
	}
	if !strings.Contains(listing, "tags:") {
		t.Error("-list output missing the tag summary")
	}
}

// TestCorpusExportsCSVAndJSON runs the quick corpus profile end to end
// through the CLI and checks the results/ schema: scenario_corpus.csv plus
// a JSON report whose metadata names the scenario and seed.
func TestCorpusExportsCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "corpus", "-quick", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	const rows = 5 * 4 * 3 // topologies x workloads x modes
	if !strings.Contains(out.String(), "Section 5 corpus") {
		t.Errorf("stdout missing the corpus summary:\n%s", out.String())
	}
	csvBytes, err := os.ReadFile(filepath.Join(dir, "scenario_corpus.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvBytes)), "\n")
	if len(lines) != 1+rows {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+rows)
	}
	if !strings.HasPrefix(lines[0], "topology,seed,fingerprint") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	raw, err := os.ReadFile(filepath.Join(dir, "scenario_corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.JSONReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Scenario != "corpus" || rep.Meta.Seed != 42 {
		t.Errorf("meta = %+v, want scenario corpus seed 42", rep.Meta)
	}
	if rep.Meta.GeneratedAt == "" {
		t.Error("meta missing generated_at timestamp")
	}
	if len(rep.Rows) != rows {
		t.Errorf("JSON rows = %d, want %d", len(rep.Rows), rows)
	}
}

// TestScenarioTagRunsSubset checks tag filtering drives real runs.
func TestScenarioTagRunsSubset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario-tag", "ablation", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"=== KEYPART ===", "=== BUFFERS ===", "=== LATENCY ==="} {
		if !strings.Contains(s, want) {
			t.Errorf("tag run missing %s:\n%s", want, s)
		}
	}
}
