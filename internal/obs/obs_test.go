package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with fully deterministic contents: every
// counter and gauge is fixed, so the rendered Prometheus
// exposition and Snapshot JSON are byte-stable across runs and platforms.
func goldenRegistry() *Registry {
	r := New()
	sts := r.Bind([]StationInfo{
		{Name: "src", Role: "source", Op: 0, Source: true},
		{Name: "hot/emitter", Role: "emitter", Op: 1},
		{Name: "hot/1", Role: "worker", Op: 1},
		{Name: "hot/2", Role: "worker", Op: 1},
		{Name: "hot/collector", Role: "collector", Op: 1},
		{Name: "sink", Role: "worker", Op: 2, Sink: true},
	})
	for i, st := range sts {
		base := uint64(i+1) * 1000
		st.Consumed.Add(base)
		st.Emitted.Add(base - 10)
		st.Arrived.Add(base + 5)
		st.Dropped.Add(uint64(i))
		st.Failed.Add(uint64(2 * i))
		st.Abandoned.Add(uint64(3 * i))
		st.Drained.Add(uint64(4 * i))
	}
	sts[3].Restarts.Add(2)
	sts[5].Degraded.Store(true)
	r.SetSampler(func(i int) Gauges {
		return Gauges{Queued: uint64(i), Capacity: 64, BlockedSends: uint64(3 * i)}
	})
	// Edge 0->1 coalesces (500 tuples in 40 frames), stalled on credit
	// three times, lost 7 tuples to a reset and has 2 more unacknowledged;
	// edge 4->5 is idle-paced: one tuple per frame, everything admitted.
	e := r.Edge(0, 1)
	e.Wrote.Add(500)
	e.Frames.Add(40)
	e.CreditStalls.Add(3)
	e.Recvd.Add(495)
	e.Acked.Add(491)
	e.Lost.Add(7)
	e = r.Edge(4, 5)
	e.Wrote.Add(321)
	e.Frames.Add(321)
	e.Recvd.Add(321)
	e.Acked.Add(321)
	return r
}

// checkGolden compares got against testdata/<name>; SS_UPDATE_GOLDEN=1
// rewrites the files instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("SS_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with SS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// stripUptime removes the wall-clock-dependent lines from a Prometheus
// rendering so the remainder is deterministic.
func stripUptime(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "spinstreams_uptime_seconds ") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestPrometheusGolden pins the text-exposition format: metric names,
// label sets and ordering are a stable interface.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenRegistry().WritePrometheus(&buf)
	checkGolden(t, "metrics.prom", []byte(stripUptime(buf.String())))
}

// TestSnapshotJSONGolden pins the Snapshot JSON schema (field names,
// nesting, quantile keys).
func TestSnapshotJSONGolden(t *testing.T) {
	s := goldenRegistry().Snapshot()
	s.UptimeSeconds = 0
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", append(got, '\n'))
}

// TestSnapshotTotals checks the recomputed lifetime accounting: sources
// feed Generated, sinks feed Delivered, the loss buckets sum per station,
// and written-but-unacknowledged tuples count as abandoned.
func TestSnapshotTotals(t *testing.T) {
	tot := goldenRegistry().Snapshot().Totals()
	want := Totals{
		Generated: 1000,      // src consumed
		Delivered: 6000 - 10, // sink emitted
		Shed:      0 + 1 + 2 + 3 + 4 + 5,
		Failed:    2 * (0 + 1 + 2 + 3 + 4 + 5),
		Drained:   4 * (0 + 1 + 2 + 3 + 4 + 5),
		Abandoned: 3*(0+1+2+3+4+5) + 9, // stations + edge 0->1 wrote-acked
	}
	if tot != want {
		t.Errorf("totals = %+v, want %+v", tot, want)
	}
	if got := tot.Sum(); got != tot.Delivered+tot.Shed+tot.Failed+tot.Drained+tot.Abandoned {
		t.Errorf("Sum() = %d, inconsistent with fields %+v", got, tot)
	}
}

// TestHandlerEndpoints drives the HTTP surface end to end: /metrics serves
// the exposition with the right content type, /snapshot serves
// well-formed JSON, /debug/vars includes the expvar publication.
func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(goldenRegistry().Handler())
	defer srv.Close()

	get := func(path string) (string, *http.Response) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp
	}

	body, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "spinstreams_station_consumed_total{station=\"src\"") {
		t.Errorf("/metrics missing station counter:\n%s", body)
	}

	body, resp = get("/snapshot")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/snapshot content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not valid JSON: %v", err)
	}
	if len(snap.Stations) != 6 {
		t.Errorf("/snapshot has %d stations, want 6", len(snap.Stations))
	}

	body, _ = get("/debug/vars")
	if !strings.Contains(body, "\"spinstreams\"") {
		t.Errorf("/debug/vars missing spinstreams publication")
	}
}

// TestServeBindsAndShutsDown exercises the -metrics-addr convenience.
func TestServeBindsAndShutsDown(t *testing.T) {
	addr, shutdown, err := goldenRegistry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET against Serve address: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	shutdown()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}

// TestRebindResetsRegistry checks Bind discards a previous run's state.
func TestRebindResetsRegistry(t *testing.T) {
	r := goldenRegistry()
	sts := r.Bind([]StationInfo{{Name: "only", Role: "source", Op: 0, Source: true}})
	if len(sts) != 1 {
		t.Fatalf("rebind returned %d stations", len(sts))
	}
	s := r.Snapshot()
	if len(s.Stations) != 1 || len(s.Edges) != 0 {
		t.Errorf("rebind kept old state: %d stations, %d edges", len(s.Stations), len(s.Edges))
	}
	if s.Stations[0].Consumed != 0 || s.Stations[0].Queued != 0 {
		t.Errorf("rebind kept counters: %+v", s.Stations[0])
	}
	if _, _, _, ok := r.Window(); ok {
		t.Error("rebind kept window marks")
	}
}
