package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
)

// Prometheus text-exposition of a registry. Metric names and labels are a
// stable interface (golden-tested): station counters are
// spinstreams_station_<counter>_total{station,role,op}, mailbox gauges are
// spinstreams_station_queue_{depth,capacity}, and cross-node edges
// spinstreams_edge_<counter>{from,to}.

// promCounter is one exported station counter.
type promCounter struct {
	name string
	get  func(*StationSnapshot) uint64
}

var promCounters = []promCounter{
	{"consumed", func(s *StationSnapshot) uint64 { return s.Consumed }},
	{"emitted", func(s *StationSnapshot) uint64 { return s.Emitted }},
	{"arrived", func(s *StationSnapshot) uint64 { return s.Arrived }},
	{"shed", func(s *StationSnapshot) uint64 { return s.Dropped }},
	{"failed", func(s *StationSnapshot) uint64 { return s.Failed }},
	{"abandoned", func(s *StationSnapshot) uint64 { return s.Abandoned }},
	{"drained", func(s *StationSnapshot) uint64 { return s.Drained }},
	{"restarts", func(s *StationSnapshot) uint64 { return s.Restarts }},
	{"blocked_sends", func(s *StationSnapshot) uint64 { return s.BlockedSends }},
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	s := r.Snapshot()
	s.WritePrometheus(w)
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format. Output ordering is deterministic: metrics in catalogue order,
// stations in plan order.
func (s *Snapshot) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE spinstreams_uptime_seconds gauge\nspinstreams_uptime_seconds %g\n", s.UptimeSeconds)
	for _, c := range promCounters {
		fmt.Fprintf(w, "# TYPE spinstreams_station_%s_total counter\n", c.name)
		for i := range s.Stations {
			ss := &s.Stations[i]
			fmt.Fprintf(w, "spinstreams_station_%s_total{%s} %d\n", c.name, promLabels(ss), c.get(ss))
		}
	}
	for _, g := range []struct {
		name string
		get  func(*StationSnapshot) uint64
	}{
		{"queue_depth", func(ss *StationSnapshot) uint64 { return ss.Queued }},
		{"queue_capacity", func(ss *StationSnapshot) uint64 { return ss.Capacity }},
		{"degraded", func(ss *StationSnapshot) uint64 {
			if ss.Degraded {
				return 1
			}
			return 0
		}},
	} {
		fmt.Fprintf(w, "# TYPE spinstreams_station_%s gauge\n", g.name)
		for i := range s.Stations {
			ss := &s.Stations[i]
			fmt.Fprintf(w, "spinstreams_station_%s{%s} %d\n", g.name, promLabels(ss), g.get(ss))
		}
	}
	// First-class mailbox occupancy gauge: the signal the online
	// service-rate estimator samples, exported under its own stable name so
	// dashboards can watch exactly what the estimator sees
	// (spinstreams_station_queue_depth remains the legacy alias).
	fmt.Fprintf(w, "# TYPE ss_mailbox_depth gauge\n")
	for i := range s.Stations {
		ss := &s.Stations[i]
		fmt.Fprintf(w, "ss_mailbox_depth{%s} %d\n", promLabels(ss), ss.Queued)
	}
	if len(s.Edges) > 0 {
		for _, m := range []struct {
			name, typ string
			get       func(*EdgeSnapshot) uint64
		}{
			{"wrote_total", "counter", func(e *EdgeSnapshot) uint64 { return e.Wrote }},
			{"frames_total", "counter", func(e *EdgeSnapshot) uint64 { return e.Frames }},
			{"credit_stalls_total", "counter", func(e *EdgeSnapshot) uint64 { return e.CreditStalls }},
			{"recvd_total", "counter", func(e *EdgeSnapshot) uint64 { return e.Recvd }},
			{"acked_total", "counter", func(e *EdgeSnapshot) uint64 { return e.Acked }},
			{"lost_total", "counter", func(e *EdgeSnapshot) uint64 { return e.Lost }},
			{"in_flight", "gauge", func(e *EdgeSnapshot) uint64 { return e.InFlight }},
		} {
			fmt.Fprintf(w, "# TYPE spinstreams_edge_%s %s\n", m.name, m.typ)
			for i := range s.Edges {
				e := &s.Edges[i]
				fmt.Fprintf(w, "spinstreams_edge_%s{from=\"%d\",to=\"%d\"} %d\n", m.name, e.From, e.To, m.get(e))
			}
		}
	}
}

// promLabels renders the station label set.
func promLabels(ss *StationSnapshot) string {
	return fmt.Sprintf("station=%q,role=%q,op=\"%d\"", ss.Name, ss.Role, ss.Op)
}

// Handler returns an HTTP handler exposing the registry:
//
//	/metrics      Prometheus text exposition
//	/snapshot     the full Snapshot as JSON
//	/debug/vars   expvar (includes the snapshot under "spinstreams")
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	r.publishExpvar()
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// expvarOnce guards the process-global expvar name: expvar.Publish panics
// on duplicates, and tests (or repeated runs) build many registries.
var (
	expvarOnce sync.Once
	expvarCur  struct {
		mu  sync.Mutex
		reg *Registry
	}
)

// publishExpvar exposes the registry's snapshot as the expvar variable
// "spinstreams"; the latest registry to publish wins.
func (r *Registry) publishExpvar() {
	expvarCur.mu.Lock()
	expvarCur.reg = r
	expvarCur.mu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("spinstreams", expvar.Func(func() any {
			expvarCur.mu.Lock()
			reg := expvarCur.reg
			expvarCur.mu.Unlock()
			if reg == nil {
				return nil
			}
			return reg.Snapshot()
		}))
	})
}

// Serve starts an HTTP server for the registry on addr and returns the
// bound address (useful with ":0") plus a shutdown func. It is the
// convenience the CLI and generated programs use for -metrics-addr.
func (r *Registry) Serve(addr string) (string, func(), error) {
	srv := &http.Server{Addr: addr, Handler: r.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
