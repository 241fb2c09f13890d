package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAgreesWithBenchmarkJSON pins workload and metric names and units
// to BENCHMARK.json, in order.
func TestAgreesWithBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, f.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]",
					kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload through both passes for a fraction of a
// second and checks that every declared metric is printed with its unit
// and carried by the result line. Timings this short say nothing, so
// the verdict of the output checks is not asserted here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"-workload", w.name, "-seconds", "0.2", "-trace", strconv.Itoa(trace), "-out", t.TempDir()}
			if code := run(args, &out); code == 2 {
				t.Fatalf("%s: usage error\n%s", w.name, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v", w.name, trace, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || *last.Attempted < 1 {
				t.Errorf("%s trace %d: result object lacks correct/attempted/failed: %s", w.name, trace, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics in the result object, want %d", w.name, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: result object lacks %s [%s]", w.name, trace, d.name, d.unit)
				}
				if !strings.Contains(out.String(), "  "+d.name+" ") {
					t.Errorf("%s trace %d: %s is not printed", w.name, trace, d.name)
				}
			}
		}
	}
}
