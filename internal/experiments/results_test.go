package experiments_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"spinstreams/internal/experiments"
)

// TestRegistryRegeneratesCommittedResults runs the cheap full-profile
// scenarios through the registry, the only way to run an experiment, and
// requires their CSV export to be byte-identical to the committed
// results/scenario_<name>.csv: the committed results are exactly what the
// registry regenerates at seed 42 (`go run ./cmd/ssbench -out results`).
func TestRegistryRegeneratesCommittedResults(t *testing.T) {
	for _, name := range []string{"table1", "table2", "keypart", "buffers", "latency", "fig10", "fig7", "estimator"} {
		t.Run(name, func(t *testing.T) {
			s, ok := experiments.Get(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			res, err := s.Run(context.Background(), experiments.Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := experiments.WriteCSV(&got, res); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", "scenario_"+name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("scenario %s no longer regenerates results/scenario_%s.csv:\n--- got ---\n%s--- committed ---\n%s",
					name, name, got.Bytes(), want)
			}
		})
	}
}
