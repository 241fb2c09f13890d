package opt

import (
	"os"
	"path/filepath"
	"testing"

	"spinstreams/internal/core"
)

// TestLiveTraceGolden pins the byte-stable rendering of a live
// reconfiguration trace: the paper's fused Table 1 example rescaled and
// unfused in-flight. The golden is part of the provenance contract —
// `spinstreams vet -trace` replays exactly this layout — so any drift in
// field order, omission rules, or step sorting must show up here.
func TestLiveTraceGolden(t *testing.T) {
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	fused, _, err := core.Fuse(topo, nil, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	delta := &DeltaPlan{
		Changes: []ReplicaChange{
			{Operator: "op2", From: 1, To: 3},
		},
		Undo: []FusionUndo{
			{Operator: "F", Members: memberNames(topo, sub), Rho: 1.5},
		},
		PredictedBefore: 250,
		PredictedAfter:  1000,
	}
	tr := LiveTrace(fused, delta)
	if tr.Fingerprint != tr.FinalFingerprint {
		t.Errorf("live trace must not rewrite the logical topology: %s -> %s",
			tr.Fingerprint, tr.FinalFingerprint)
	}
	got, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "trace-paper-table1-live.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("live trace drifted from golden %s;\ngot:\n%s", path, got)
	}
}

func memberNames(t *core.Topology, members []core.OpID) []string {
	names := make([]string, len(members))
	for i, id := range members {
		names[i] = t.Op(id).Name
	}
	return names
}
