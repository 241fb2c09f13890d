package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinstreams/internal/xmlio"
)

var update = flag.Bool("update", false, "rewrite corpus goldens")

// corpusDir holds one known-bad topology per diagnostic code, each with a
// byte-stable golden of the text report. Replica degrees live in the XML,
// as in every deployment document. Sidecars supply what the XML cannot
// express: `<base>.cfg.json` tunes the lint Config, and
// `<base>.trace.json` is a rewrite trace to replay.
const corpusDir = "../../testdata/lint"

type corpusConfig struct {
	AllowCycles     bool     `json:"allow_cycles"`
	FuseMembers     []string `json:"fuse_members"`
	ReplicaBudget   int      `json:"replica_budget"`
	MailboxCapacity int      `json:"mailbox_capacity"`
	BurstFactor     float64  `json:"burst_factor"`
	BurstSeconds    float64  `json:"burst_seconds"`
	Drift           *struct {
		Stations []string `json:"stations"`
		Replicas []int    `json:"replicas"`
		Profiles int      `json:"profiles"`
	} `json:"drift"`
}

func TestCorpus(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".xml") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			base := filepath.Join(corpusDir, strings.TrimSuffix(name, ".xml"))

			var cc corpusConfig
			if data, err := os.ReadFile(base + ".cfg.json"); err == nil {
				if err := json.Unmarshal(data, &cc); err != nil {
					t.Fatalf("cfg sidecar: %v", err)
				}
			}
			cfg := Config{
				File:            name,
				FuseMembers:     cc.FuseMembers,
				ReplicaBudget:   cc.ReplicaBudget,
				AllowCycles:     cc.AllowCycles,
				MailboxCapacity: cc.MailboxCapacity,
				BurstFactor:     cc.BurstFactor,
				BurstSeconds:    cc.BurstSeconds,
			}
			if trace, err := os.ReadFile(base + ".trace.json"); err == nil {
				cfg.Trace = trace
			}

			src, err := os.ReadFile(base + ".xml")
			if err != nil {
				t.Fatal(err)
			}
			doc, pos, err := xmlio.DecodeDocument(bytes.NewReader(src))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			rep := RunDocument(doc, pos, cfg)
			if cc.Drift != nil {
				top, err := xmlio.FromDocument(doc, nil)
				if err != nil {
					t.Fatalf("drift corpus topology must build: %v", err)
				}
				for _, d := range CheckDrift(top, cc.Drift.Stations, cc.Drift.Replicas, cc.Drift.Profiles) {
					rep.add(d)
				}
			}

			// The filename prefix is the code the corpus entry exists for.
			want := strings.SplitN(name, "-", 2)[0]
			found := false
			for _, d := range rep.Diagnostics {
				if d.Code == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no %s diagnostic; got:\n%s", want, reportText(t, rep))
			}

			golden := base + ".golden"
			got := []byte(reportText(t, rep))
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Errorf("report drifted from golden %s;\n got:\n%s\nwant:\n%s", golden, got, wantBytes)
			}
		})
	}
}

// TestCorpusCoversAllCodes pins the append-only contract in both
// directions: every diagnostic code in the rule table has a known-bad
// corpus entry, and every corpus entry names a registered code — an
// entry for an unregistered code means someone added a diagnostic
// without a Rules row (no SARIF metadata, no docs) and must fail CI.
func TestCorpusCoversAllCodes(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".xml") {
			covered[strings.SplitN(e.Name(), "-", 2)[0]] = true
		}
	}
	for _, r := range Rules {
		if !covered[r.Code] {
			t.Errorf("diagnostic code %s (%s) has no corpus entry", r.Code, r.Name)
		}
	}
	for code := range covered {
		if RuleFor(code).Name == "unknown" {
			t.Errorf("corpus entry for %s names a code missing from the Rules table", code)
		}
	}
}

func reportText(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Text(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
