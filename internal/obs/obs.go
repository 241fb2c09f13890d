// Package obs is the runtime's observability layer: a low-overhead
// per-station metrics registry the engines route all tuple accounting
// through, with sampled histograms (service time, inter-arrival time,
// queue depth, batch size), pluggable Tracer hooks fired at station
// lifecycle points, point-in-time Snapshots, Prometheus/expvar HTTP
// exposition (prom.go), and a drift reporter that closes the paper's
// measure -> predict -> verify loop (drift.go).
//
// Design: counters are exported atomic fields on Station, written directly
// by the engine's hot paths — the registry adds a pointer indirection, not
// a lock or a map lookup, so routing the accounting through it costs the
// same as the engine-private counters it replaced. Histograms are only
// recorded when a run is bound to a caller-supplied registry, and the
// engine subsamples them (one receive event and one service episode in
// 128) so instrumentation stays cheap; see DESIGN.md "Observability".
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spinstreams/internal/stats"
)

// StationInfo is the immutable identity of one physical station.
type StationInfo struct {
	// Name is the station name (e.g. "hot/replica2").
	Name string `json:"name"`
	// Role is the plan role: "source", "worker", "emitter" or "collector".
	Role string `json:"role"`
	// Op is the logical operator the station belongs to.
	Op int `json:"op"`
	// Source marks the station that generates the input stream.
	Source bool `json:"source,omitempty"`
	// Sink marks stations whose emissions leave the system (no out edges).
	Sink bool `json:"sink,omitempty"`
}

// Station is one physical station's live metrics. The counter fields are
// written directly by the engine (a single atomic add per event — the
// registry is the accounting path, not a copy of it) and may be read at
// any time. Histograms record sampled timings; see the package comment
// for the sampling policy.
type Station struct {
	Info StationInfo

	// Consumed counts tuples taken from the inbox and processed (for the
	// source: tuples generated).
	Consumed atomic.Uint64
	// Emitted counts tuples admitted downstream (for sinks: results that
	// left the system).
	Emitted atomic.Uint64
	// Arrived counts tuples admitted into this station's inbox.
	Arrived atomic.Uint64
	// Dropped counts tuples shed at this station's inbox (send timeout).
	Dropped atomic.Uint64
	// Failed counts tuples lost to operator panics or consumed by a
	// degraded station.
	Failed atomic.Uint64
	// Abandoned counts processed outputs shutdown kept from being admitted
	// downstream.
	Abandoned atomic.Uint64
	// Drained counts tuples still queued when the run stopped.
	Drained atomic.Uint64
	// Restarts counts panic-recovery restarts.
	Restarts atomic.Uint64
	// Receives counts mailbox receive events — windows of at most Batch
	// tuples. Maintained only when sampling is active.
	Receives atomic.Uint64
	// Degraded reports whether the station exhausted its restart budget.
	Degraded atomic.Bool
	// Retired reports that a live reconfiguration drained and stopped the
	// station; its lifetime counters stay in the totals, but windowed
	// drift measurements skip it so rates reflect the live structure.
	Retired atomic.Bool

	// Service holds sampled per-tuple service times in nanoseconds: one
	// operator call plus its padding, never the delivery.
	Service *stats.Histogram
	// InterArrival holds sampled per-tuple inter-arrival times in
	// nanoseconds (mean over the sampling window).
	InterArrival *stats.Histogram
	// QueueDepth holds inbox depths sampled at receive events.
	QueueDepth *stats.Histogram
	// BatchSize holds the tuple counts of receive events.
	BatchSize *stats.Histogram
}

// Edge is one cross-node physical edge's accounting (distributed
// engine), written by the edge's writer on one node and its reader on the
// other. All counts are tuples over the edge's lifetime except Frames and
// CreditStalls.
type Edge struct {
	From, To int
	// Wrote counts tuples in frames whose write succeeded, Frames those
	// frames: Wrote/Frames is the coalescing factor, 1 on an idle edge
	// and growing as the wire becomes the bottleneck.
	Wrote  atomic.Uint64
	Frames atomic.Uint64
	// CreditStalls counts the times the writer had tuples queued but no
	// credit to send them: the edge was bound by its target, not the wire.
	CreditStalls atomic.Uint64
	// Recvd counts tuples in decoded frames, Acked those the reader has
	// admitted to the target inbox — the cumulative credit it returns.
	Recvd atomic.Uint64
	Acked atomic.Uint64
	// Lost counts tuples written on a connection that died before they
	// were admitted, as established when the edge reconnects.
	Lost atomic.Uint64
}

// InFlight is the edge's gauge of tuples written and neither admitted nor
// known lost; the writer keeps it within the credit window. Wrote is
// loaded first, so a reading taken while the edge runs can fall short of
// the true figure but never exceed it.
func (e *Edge) InFlight() uint64 {
	w := e.Wrote.Load()
	return unacked(w, e.Lost.Load()+e.Acked.Load())
}

// unacked is wrote - settled, clamped at zero: the reader may count a
// frame admitted before the writer has counted it written.
func unacked(wrote, settled uint64) uint64 {
	if settled > wrote {
		return 0
	}
	return wrote - settled
}

// Gauges are the point-in-time mailbox figures the engine's sampler
// contributes to snapshots.
type Gauges struct {
	// Queued is the inbox depth in tuples.
	Queued uint64
	// Capacity is the inbox BAS bound.
	Capacity uint64
	// BlockedSends counts send episodes into this inbox that stalled on a
	// full mailbox (backpressure events).
	BlockedSends uint64
}

// Tracer observes station lifecycle events. Implementations must be safe
// for concurrent use and fast — hooks fire from station goroutines on the
// data path. Receive fires per window taken, Serve per tuple served, Emit
// per admission call.
type Tracer interface {
	// OnReceive fires when a station takes n tuples from its inbox.
	OnReceive(station, n int)
	// OnServe fires after a station served n tuples taking elapsed.
	OnServe(station, n int, elapsed time.Duration)
	// OnEmit fires when a station admits n tuples downstream (or, for a
	// sink, releases n results).
	OnEmit(station, n int)
	// OnRestart fires when a panicked station restarts; restarts is its
	// new restart count.
	OnRestart(station int, restarts uint64)
	// OnDegrade fires when a station exhausts its restart budget.
	OnDegrade(station int)
}

// Registry is the root of the observability layer: one bound run's
// stations and cross-node edges, plus the tracers and the mailbox sampler.
// A Registry serves one run at a time — the engine (re)binds it at run
// start, which resets stations, edges and window marks. All methods are
// safe for concurrent use; Snapshot may be called while the run is live
// (the HTTP endpoints do).
type Registry struct {
	mu       sync.Mutex
	start    time.Time
	stations []*Station
	edges    []*Edge
	edgeIdx  map[[2]int]*Edge
	tracers  []Tracer
	sampler  func(station int) Gauges

	winBegin, winEnd     *Snapshot
	winBeginAt, winEndAt time.Time
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{start: time.Now()}
}

// Bind (re)initializes the registry for a run with the given stations and
// returns the Station slice the engine writes through. Any previous run's
// stations, edges, sampler and window marks are discarded.
func (r *Registry) Bind(infos []StationInfo) []*Station {
	r.mu.Lock()
	r.start = time.Now()
	r.stations = nil
	r.edges = nil
	r.edgeIdx = nil
	r.sampler = nil
	r.winBegin, r.winEnd = nil, nil
	r.mu.Unlock()
	return r.Extend(infos)
}

// Extend appends stations to a bound registry without resetting it; the
// live reconfigurer uses it to register the stations an ApplyDelta
// creates mid-run. It returns the cells for the new stations only.
func (r *Registry) Extend(infos []StationInfo) []*Station {
	sts := make([]*Station, len(infos))
	for i := range infos {
		sts[i] = &Station{
			Info:         infos[i],
			Service:      stats.NewHistogram(),
			InterArrival: stats.NewHistogram(),
			QueueDepth:   stats.NewHistogram(),
			BatchSize:    stats.NewHistogram(),
		}
	}
	r.mu.Lock()
	r.stations = append(r.stations, sts...)
	r.mu.Unlock()
	return sts
}

// Stations returns the bound stations (nil before Bind).
func (r *Registry) Stations() []*Station {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stations
}

// Edge returns the accounting cell for the cross-node edge from -> to,
// creating it on first use.
func (r *Registry) Edge(from, to int) *Edge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.edgeIdx == nil {
		r.edgeIdx = make(map[[2]int]*Edge)
	}
	k := [2]int{from, to}
	if e := r.edgeIdx[k]; e != nil {
		return e
	}
	e := &Edge{From: from, To: to}
	r.edgeIdx[k] = e
	r.edges = append(r.edges, e)
	return e
}

// AddTracer registers a lifecycle tracer. Tracers must be added before the
// run binds the registry to take effect.
func (r *Registry) AddTracer(t Tracer) {
	r.mu.Lock()
	r.tracers = append(r.tracers, t)
	r.mu.Unlock()
}

// Tracers returns the registered tracers.
func (r *Registry) Tracers() []Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Tracer(nil), r.tracers...)
}

// SetSampler installs the engine's mailbox gauge source; snapshots call it
// per station. The sampler must be safe for concurrent use.
func (r *Registry) SetSampler(f func(station int) Gauges) {
	r.mu.Lock()
	r.sampler = f
	r.mu.Unlock()
}

// MarkWindowBegin snapshots the registry at the start of the engine's
// measurement window (after warmup).
func (r *Registry) MarkWindowBegin() {
	s := r.Snapshot()
	r.mu.Lock()
	r.winBegin, r.winBeginAt = s, time.Now()
	r.winEnd = nil
	r.mu.Unlock()
}

// MarkWindowEnd snapshots the registry at the end of the measurement
// window.
func (r *Registry) MarkWindowEnd() {
	s := r.Snapshot()
	r.mu.Lock()
	r.winEnd, r.winEndAt = s, time.Now()
	r.mu.Unlock()
}

// Window returns the measurement-window snapshots and the window length;
// ok is false until both marks exist.
func (r *Registry) Window() (begin, end *Snapshot, seconds float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.winBegin == nil || r.winEnd == nil {
		return nil, nil, 0, false
	}
	return r.winBegin, r.winEnd, r.winEndAt.Sub(r.winBeginAt).Seconds(), true
}

// StationSnapshot is one station's point-in-time figures.
type StationSnapshot struct {
	StationInfo
	Consumed     uint64 `json:"consumed"`
	Emitted      uint64 `json:"emitted"`
	Arrived      uint64 `json:"arrived"`
	Dropped      uint64 `json:"dropped"`
	Failed       uint64 `json:"failed"`
	Abandoned    uint64 `json:"abandoned"`
	Drained      uint64 `json:"drained"`
	Restarts     uint64 `json:"restarts"`
	Receives     uint64 `json:"receives"`
	Degraded     bool   `json:"degraded"`
	Retired      bool   `json:"retired,omitempty"`
	Queued       uint64 `json:"queued"`
	Capacity     uint64 `json:"capacity"`
	BlockedSends uint64 `json:"blocked_sends"`

	Service      stats.HistogramSummary `json:"service_ns"`
	InterArrival stats.HistogramSummary `json:"interarrival_ns"`
	QueueDepth   stats.HistogramSummary `json:"queue_depth"`
	BatchSize    stats.HistogramSummary `json:"batch_size"`
}

// EdgeSnapshot is one cross-node edge's point-in-time accounting; see
// Edge for the fields.
type EdgeSnapshot struct {
	From         int    `json:"from"`
	To           int    `json:"to"`
	Wrote        uint64 `json:"wrote"`
	Frames       uint64 `json:"frames"`
	CreditStalls uint64 `json:"credit_stalls"`
	Recvd        uint64 `json:"recvd"`
	Acked        uint64 `json:"acked"`
	Lost         uint64 `json:"lost"`
	InFlight     uint64 `json:"in_flight"`
}

// Snapshot is a consistent-enough point-in-time view of a registry:
// counters are loaded atomically per field while the run proceeds, so
// cross-counter identities (conservation) are only exact once the run has
// stopped.
type Snapshot struct {
	// UptimeSeconds is the time since the registry was bound.
	UptimeSeconds float64           `json:"uptime_seconds"`
	Stations      []StationSnapshot `json:"stations"`
	Edges         []EdgeSnapshot    `json:"edges,omitempty"`
}

// Snapshot captures the registry. Safe to call while the run is live.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	sts := r.stations
	edges := append([]*Edge(nil), r.edges...)
	sampler := r.sampler
	start := r.start
	r.mu.Unlock()

	s := &Snapshot{
		UptimeSeconds: time.Since(start).Seconds(),
		Stations:      make([]StationSnapshot, len(sts)),
	}
	for i, st := range sts {
		ss := StationSnapshot{
			StationInfo:  st.Info,
			Consumed:     st.Consumed.Load(),
			Emitted:      st.Emitted.Load(),
			Arrived:      st.Arrived.Load(),
			Dropped:      st.Dropped.Load(),
			Failed:       st.Failed.Load(),
			Abandoned:    st.Abandoned.Load(),
			Drained:      st.Drained.Load(),
			Restarts:     st.Restarts.Load(),
			Receives:     st.Receives.Load(),
			Degraded:     st.Degraded.Load(),
			Retired:      st.Retired.Load(),
			Service:      st.Service.Summary(),
			InterArrival: st.InterArrival.Summary(),
			QueueDepth:   st.QueueDepth.Summary(),
			BatchSize:    st.BatchSize.Summary(),
		}
		if sampler != nil {
			g := sampler(i)
			ss.Queued, ss.Capacity, ss.BlockedSends = g.Queued, g.Capacity, g.BlockedSends
		}
		s.Stations[i] = ss
	}
	for _, e := range edges {
		s.Edges = append(s.Edges, EdgeSnapshot{
			From: e.From, To: e.To,
			InFlight: e.InFlight(),
			Wrote:    e.Wrote.Load(), Frames: e.Frames.Load(), CreditStalls: e.CreditStalls.Load(),
			Recvd: e.Recvd.Load(), Acked: e.Acked.Load(), Lost: e.Lost.Load(),
		})
	}
	return s
}

// Totals is the registry's recomputation of the run's lifetime tuple
// accounting; it mirrors the runtime's Totals and obeys the same
// conservation identity on unit-gain topologies once the run has stopped:
//
//	Generated == Delivered + Shed + Failed + Drained + Abandoned
type Totals struct {
	Generated uint64 `json:"generated"`
	Delivered uint64 `json:"delivered"`
	Shed      uint64 `json:"shed"`
	Failed    uint64 `json:"failed"`
	Drained   uint64 `json:"drained"`
	Abandoned uint64 `json:"abandoned"`
}

// Totals recomputes the run's lifetime tuple accounting purely from the
// snapshot's station counters and edge frame counters.
func (s *Snapshot) Totals() Totals {
	var t Totals
	for i := range s.Stations {
		ss := &s.Stations[i]
		t.Shed += ss.Dropped
		t.Failed += ss.Failed
		t.Abandoned += ss.Abandoned
		t.Drained += ss.Drained
		if ss.Source {
			t.Generated += ss.Consumed
		} else if ss.Sink {
			t.Delivered += ss.Emitted
		}
	}
	// Network loss: tuples written but never acknowledged as admitted.
	for _, e := range s.Edges {
		t.Abandoned += unacked(e.Wrote, e.Acked)
	}
	return t
}

// Sum returns Delivered+Shed+Failed+Drained+Abandoned — the right-hand
// side of the conservation identity.
func (t Totals) Sum() uint64 {
	return t.Delivered + t.Shed + t.Failed + t.Drained + t.Abandoned
}

// String renders the totals on one line.
func (t Totals) String() string {
	return fmt.Sprintf("generated=%d delivered=%d shed=%d failed=%d drained=%d abandoned=%d",
		t.Generated, t.Delivered, t.Shed, t.Failed, t.Drained, t.Abandoned)
}
