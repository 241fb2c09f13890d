// Package runtime executes SpinStreams physical plans on goroutines: the
// repo's analog of the paper's SS2Akka layer on the Akka actor runtime
// (Section 4.2). Each station runs as one goroutine (an actor) with a
// bounded mailbox (internal/mailbox); a send into a full mailbox blocks
// the sender, which is exactly the Blocking-After-Service semantics the
// cost models assume. Every inbox is the same batched queue, accounting
// capacity in tuples. One station loop and one source loop
// (dataplane.go) serve it through a single window protocol: take a
// window of at most Batch tuples, process it, release it, deliver what it
// produced. Replicated operators execute behind emitter and collector
// actors; fused subgraphs execute inside a single meta-operator actor per
// Algorithm 4.
//
// The engine is structured for live reconfiguration: all routing state
// (plan, mailboxes, senders, counter cells) lives in an atomically
// swappable tables value, and every station goroutine runs lifecycle
// segments separated by a park/resume handshake (lifecycle.go). One
// fenced function, applyDiff (reconfig.go), builds, publishes and starts
// stations: the deployment is its first diff, from the empty plan, and
// the Controller applies opt.DeltaPlan replica rescales and fusion undos
// as later diffs while tuples keep flowing through the unaffected part
// of the plan. RunTopology, StartTopology and RunDistributed are the
// entry points.
//
// Because operators' real compute cost is far below the profiled service
// times the experiments assign, workers pad each item to the station's
// service time with a timed wait. Sleeping actors overlap freely, so the
// measured behaviour matches a deployment with one core per actor even on
// a small host (see DESIGN.md, substitutions).
package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

// DefaultLinger is the longest a paced source keeps a window open when
// Config.Linger is zero.
const DefaultLinger = time.Millisecond

// Config tunes an execution.
type Config struct {
	// MailboxSize is the bounded mailbox capacity (default 64).
	MailboxSize int
	// Duration is the total run length (default 3s).
	Duration time.Duration
	// Warmup is the prefix excluded from measurement (default Duration/4).
	Warmup time.Duration
	// Seed seeds the default source generator and salts the routing
	// hash: routing is a function of the tuple and Seed (see split), so
	// deployments run with one Seed send every tuple down the same edges.
	Seed uint64
	// Generator produces source tuples; nil uses a default generator
	// derived from Seed.
	Generator *operators.Generator
	// NoServicePadding disables padding items to the stations' profiled
	// service times; operators then run at raw compute speed. Useful for
	// functional tests.
	NoServicePadding bool
	// OnSink, when set, observes every result leaving the topology
	// through a sink operator. It is invoked from sink actor goroutines
	// and must be safe for concurrent use and fast.
	OnSink func(op core.OpID, t operators.Tuple)
	// SendTimeout bounds how long a blocked send into a full mailbox may
	// stall before the item is discarded — exactly Akka's BoundedMailbox
	// enqueue timeout (the paper sets it far above the service times so
	// no item is ever dropped; a zero value here means block forever,
	// i.e. pure backpressure). Small values yield load-shedding
	// semantics.
	SendTimeout time.Duration
	// PreserveOrder makes the collectors of replicated operators restore
	// the emitters' sequential order (the "proper approaches for item
	// scheduling and collection, to preserve the sequential ordering" the
	// paper mentions for pipelined fission). It applies only to operators
	// with unit gain — with selectivity, replicas drop or multiply items
	// and a sequence-based reorder buffer would stall. So would a shed or
	// failed tuple, so SendTimeout and MaxRestarts are rejected with it.
	// Tuples still held for reordering when the run stops count as
	// drained. Live reconfiguration refuses ordered plans (the reorder
	// state cannot yet be migrated), so PreserveOrder and
	// Controller.ApplyDelta are mutually exclusive. The emitter overwrites
	// Seq with its own count (the tuple has no field to keep the source's
	// in), so downstream of ordered replicas tuples are routed otherwise
	// than in a deployment without them.
	PreserveOrder bool
	// Mailbox is the window policy of every inbox. The zero value,
	// mailbox.Auto, and mailbox.Batched take windows of Batch tuples;
	// mailbox.PerTuple fixes Batch at 1. Capacity is accounted in tuples
	// under every choice, so BAS blocking — and with it the steady-state
	// model — does not depend on it. mailbox.SPSC is rejected.
	Mailbox mailbox.Mode
	// Batch is the window size: the most tuples a station takes from its
	// inbox or a source generates per take/release cycle (default
	// mailbox.DefaultBatch). 1 is per-tuple delivery.
	Batch int
	// Linger bounds how long a paced source may keep a window open before
	// delivering what it has generated so far (default DefaultLinger), so
	// a slow source still feeds the pipeline promptly. It bounds nothing
	// else: stations and senders hold no tuples between windows.
	Linger time.Duration
	// MaxRestarts bounds how many times a station whose operator
	// panicked is restarted with a fresh operator instance. 0 (the
	// default) disables recovery entirely: a panic crashes the run, the
	// historical behaviour. N > 0 allows N restarts per station, after
	// which the station degrades into an accounted discard sink — it
	// keeps draining its inbox (so upstream backpressure cannot deadlock
	// on a dead operator and capacity credits keep returning) and counts
	// every tuple as failed. Negative restarts without bound.
	MaxRestarts int
	// ReconfigStallBudget bounds how long a live reconfiguration
	// (Controller.ApplyDelta) may spend pausing and draining the affected
	// stations. If the fence cannot be established within the budget the
	// reconfiguration aborts, every paused station resumes unchanged, and
	// ApplyDelta reports the timeout. Default 1s.
	ReconfigStallBudget time.Duration
	// Estimator enables online service-rate estimation (Beard &
	// Chamberlain), the only source of measured profiles: a sampler
	// goroutine reads every mailbox's occupancy and the station counters
	// each millisecond, classifies regimes (idle/busy/blocked-downstream)
	// and reconstructs non-blocking service rates without timing a single
	// tuple. The estimator lives on the run's registry (Obs, or a private
	// one), whose window marks bracket its windows; obs.Drift reads its
	// profiles, and Controller.Autotune requires it.
	Estimator bool
	// Faults, when non-nil, injects that deterministic fault schedule
	// into the run: per-tuple operator slowdowns and panics, per-send
	// delays, and — under the distributed engine — connection resets.
	// Build a fresh injector per run (see internal/faultinject).
	Faults *faultinject.Injector
	// Obs, when non-nil, binds the run to that observability registry: its
	// Snapshot/HTTP endpoints see the live counters and its tracers fire at
	// station lifecycle points. When nil the engine still routes every
	// counter through a private registry — the single accounting path
	// Metrics is a view over. Binding a registry adds no per-tuple work;
	// only attached tracers do. A registry serves one run at a time (the
	// run rebinds and resets it).
	Obs *obs.Registry
}

// withDefaults fills zero fields and rejects nonsensical configurations
// instead of silently coercing them.
func (c Config) withDefaults() (Config, error) {
	if c.MailboxSize < 0 {
		return c, fmt.Errorf("runtime: negative MailboxSize %d", c.MailboxSize)
	}
	if c.MailboxSize == 0 {
		c.MailboxSize = 64
	}
	if c.Duration < 0 {
		return c, fmt.Errorf("runtime: negative Duration %v", c.Duration)
	}
	if c.Duration == 0 {
		c.Duration = 3 * time.Second
	}
	if c.Warmup < 0 {
		return c, fmt.Errorf("runtime: negative Warmup %v", c.Warmup)
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 4
	}
	if c.Warmup >= c.Duration {
		return c, fmt.Errorf("runtime: Warmup %v must be shorter than Duration %v", c.Warmup, c.Duration)
	}
	if c.SendTimeout < 0 {
		return c, fmt.Errorf("runtime: negative SendTimeout %v", c.SendTimeout)
	}
	if c.PreserveOrder && (c.SendTimeout > 0 || c.MaxRestarts != 0) {
		return c, fmt.Errorf("runtime: PreserveOrder cannot restore order around shed or failed tuples (SendTimeout %v, MaxRestarts %d)", c.SendTimeout, c.MaxRestarts)
	}
	if c.Batch < 0 {
		return c, fmt.Errorf("runtime: negative Batch %d", c.Batch)
	}
	if c.Batch == 0 {
		c.Batch = mailbox.DefaultBatch
	}
	switch c.Mailbox {
	case mailbox.Auto, mailbox.Batched:
	case mailbox.PerTuple:
		// Per-tuple is Batch 1 of the one loop.
		c.Batch = 1
	default:
		return c, fmt.Errorf("runtime: Mailbox %v is not a policy (want mailbox.Auto, Batched or PerTuple)", c.Mailbox)
	}
	if c.Linger < 0 {
		return c, fmt.Errorf("runtime: negative Linger %v", c.Linger)
	}
	if c.Linger == 0 {
		c.Linger = DefaultLinger
	}
	if c.ReconfigStallBudget < 0 {
		return c, fmt.Errorf("runtime: negative ReconfigStallBudget %v", c.ReconfigStallBudget)
	}
	if c.ReconfigStallBudget == 0 {
		c.ReconfigStallBudget = time.Second
	}
	if c.Generator == nil {
		g, err := operators.NewGenerator(operators.GeneratorConfig{Seed: c.Seed + 1})
		if err != nil {
			return c, err
		}
		c.Generator = g
	}
	return c, nil
}

// Metrics reports the measured steady-state behaviour of a run.
type Metrics struct {
	// Throughput is the measured source departure rate in items/s (the
	// paper's topology throughput).
	Throughput float64
	// Departure and Arrival are measured rates per logical operator.
	Departure []float64
	Arrival   []float64
	// Processed is the total number of items consumed by all stations in
	// the measurement window.
	Processed uint64
	// MeasuredSeconds is the length of the measurement window.
	MeasuredSeconds float64
	// Dropped is the rate of items discarded at each logical operator's
	// entry mailbox (items/s); non-zero only with a SendTimeout.
	Dropped []float64
	// Stations reports per-station consumption and emission rates
	// (replicas, emitters and collectors included).
	Stations []StationMetrics
	// Restarts is the total number of panic-recovery restarts across all
	// stations over the whole run (see Config.MaxRestarts).
	Restarts uint64
	// Degraded is the number of stations that exhausted their restart
	// budget and finished the run as accounted discard sinks.
	Degraded int
	// Totals is the whole-run tuple accounting (not windowed like the
	// rates above); see Totals for the conservation identity it obeys.
	Totals Totals
}

// Totals is the exact lifetime tuple accounting of a run, maintained so
// that under any fault schedule every generated tuple lands in exactly
// one bucket. For unit-gain topologies (every operator forwards each
// input exactly once, e.g. identity pipelines) the conservation identity
//
//	Generated == Delivered + Shed + Failed + Drained + Abandoned
//
// holds exactly — the chaos suite asserts it under injected faults, and
// across live reconfigurations (stations retired by an ApplyDelta keep
// their lifetime counters in the sums). Operators with non-unit
// selectivity break the identity by design (they consume or multiply
// tuples inside the operator).
type Totals struct {
	// Generated counts tuples produced by source stations.
	Generated uint64
	// Delivered counts results that left the system through a sink.
	Delivered uint64
	// Shed counts tuples discarded at admission by a SendTimeout, plus —
	// under the distributed engine — tuples in frames dropped after the
	// send deadline expired (graceful degradation of a dead edge).
	Shed uint64
	// Failed counts tuples lost to operator panics: the tuple in hand
	// when the panic fired (the rest of its window stays queued for the
	// restarted operator) and everything consumed by a degraded station.
	Failed uint64
	// Drained counts tuples still queued in mailboxes (or undecoded
	// in-flight frame remainders) when the run stopped, collected by the
	// drain-on-shutdown pass.
	Drained uint64
	// Abandoned counts outputs of successfully processed tuples that
	// shutdown (or a dead distributed edge) kept from being admitted
	// downstream: aborted sends, residual output buffers, and network
	// in-flight loss (frames written but never decoded).
	Abandoned uint64
}

// StationMetrics is one physical station's measured behaviour.
type StationMetrics struct {
	// Name is the station name (e.g. "hot/replica2").
	Name string
	// Role is the station's role in the plan.
	Role plan.Role
	// Consumed and Emitted count items over the measurement window.
	Consumed, Emitted uint64
	// ConsumeRate and EmitRate are the corresponding rates in items/s.
	ConsumeRate, EmitRate float64
	// Restarts counts this station's panic-recovery restarts (whole run).
	Restarts uint64
	// Degraded reports whether the station exhausted its restart budget
	// and spent the rest of the run discarding (and accounting) input.
	Degraded bool
	// Retired reports that a live reconfiguration drained and stopped the
	// station before the run ended.
	Retired bool
}

// engine is one execution of a plan.
type engine struct {
	cfg     Config
	binding *Binding
	// live is the current epoch's routing state (plan, mailboxes, senders,
	// counter cells, fault streams); see tables in lifecycle.go. Station
	// goroutines re-read it at every lifecycle-segment boundary; the
	// reconfiguration controller swaps it while affected stations are
	// parked.
	live atomic.Pointer[tables]
	done chan struct{}
	wg   sync.WaitGroup
	// ctls[i] is station i's lifecycle handle (nil for never-spawned
	// slots); guarded by ctlMu because every diff appends entries while
	// stations run.
	ctlMu sync.Mutex
	ctls  []*stationCtl

	// sendManyFn is the one producer seam: it delivers a slice of tuples
	// along a physical edge (edgeIdx indexes the station's Out slice)
	// with per-tuple admission and shedding, copies them out before it
	// returns, accounts every one of them (emitted and arrived or shed,
	// or abandoned), and returns false on shutdown. The local engine
	// pushes into the in-process mailbox; the distributed engine routes
	// cross-node edges over TCP.
	sendManyFn func(from plan.StationID, edgeIdx int, edge *plan.Edge, ts []operators.Tuple) bool

	// reg is the observability registry every counter flows through (the
	// single accounting path; Metrics is a view over it). The per-station
	// cell slice lives in tables.st, indexed by StationID — one pointer
	// chase per atomic add. When the caller didn't supply a registry, reg
	// is private.
	reg *obs.Registry
	// tracers are the registry's lifecycle hooks, fetched once; while any
	// is attached the stations time every tuple for OnServe.
	tracers []obs.Tracer
	// settleTransport, set by the distributed engine, stops a transport
	// that holds tuples outside the mailboxes once every station has
	// exited, accounts what it still holds, and returns the tuples lost in
	// flight; the mailbox drain runs after it.
	settleTransport func() (lost uint64)
}

// newEngine validates the binding (nil binds nothing) and allocates the
// shared engine state. It deploys nothing: deploy applies the plan as the
// engine's first diff.
func newEngine(p *plan.Plan, binding *Binding, cfg Config) (*engine, error) {
	if binding == nil {
		binding = &Binding{}
	}
	if err := binding.validate(p); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:     cfg,
		binding: binding,
		done:    make(chan struct{}),
		reg:     cfg.Obs,
	}
	if e.reg == nil {
		e.reg = obs.New()
	}
	e.reg.Bind(nil)
	e.tracers = e.reg.Tracers()
	// Mailbox gauges (queue depth, capacity, blocked sends) reach
	// snapshots through the sampler — the mailboxes outlive the run, so
	// post-run snapshots still see the final figures. The sampler reads
	// the live tables because every epoch can append stations.
	e.reg.SetSampler(func(i int) obs.Gauges {
		cur := e.tab()
		if cur == nil || i >= len(cur.mailboxes) {
			return obs.Gauges{}
		}
		m := cur.mailboxes[i]
		return obs.Gauges{
			Queued:       uint64(m.Queued()),
			Capacity:     uint64(m.Capacity()),
			BlockedSends: m.Blocked(),
		}
	})
	e.sendManyFn = e.localSendMany
	return e, nil
}

// deploy applies p as the engine's first diff — from the empty plan,
// adding every station — and starts the estimator.
func (e *engine) deploy(p *plan.Plan) error {
	if _, err := e.applyDiff(e.newFence(), deployDiff(p)); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	e.startEstimator()
	return nil
}

// allocStations allocates, into the tables nt that fence f is building,
// the runtime state behind the stations of nt.p past the len(nt.mailboxes)
// that already have it: an inbox, an observability cell, a fault stream,
// and a sender row bound against the old and new inboxes together.
func (e *engine) allocStations(f *fence, nt *tables) error {
	_ = f // capability only: the tables are not published yet
	from := len(nt.mailboxes)
	added := nt.p.Stations[from:]
	infos := make([]obs.StationInfo, len(added))
	for i := range added {
		infos[i] = obs.InfoOf(&added[i])
		m, err := newInbox(e.cfg)
		if err != nil {
			return fmt.Errorf("station %d: %w", from+i, err)
		}
		nt.mailboxes = append(nt.mailboxes, m)
		var sf *faultinject.StationFaults
		if e.cfg.Faults != nil {
			sf = e.cfg.Faults.Station(from + i)
		}
		nt.stFaults = append(nt.stFaults, sf)
	}
	nt.st = append(nt.st, e.reg.Extend(infos)...)
	nt.retired = append(nt.retired, make([]bool, len(added))...)
	for i := range added {
		nt.senders = append(nt.senders, e.senderRow(nt.mailboxes, &added[i]))
	}
	return nil
}

// newInbox builds one station's inbox.
func newInbox(cfg Config) (*mailbox.Mailbox[operators.Tuple], error) {
	return mailbox.New[operators.Tuple](mailbox.Config{Capacity: cfg.MailboxSize, Batch: cfg.Batch})
}

// senderRow binds one producer handle per out-edge of st against inboxes.
func (e *engine) senderRow(inboxes []*mailbox.Mailbox[operators.Tuple], st *plan.Station) []*mailbox.Sender[operators.Tuple] {
	row := make([]*mailbox.Sender[operators.Tuple], len(st.Out))
	for j, ed := range st.Out {
		row[j] = inboxes[ed.To].NewSender(e.cfg.SendTimeout)
	}
	return row
}

// localSendMany pushes a slice into the in-process mailbox, blocking on a
// full buffer (BAS) until shutdown — or, with a SendTimeout configured,
// discarding a tuple once its timeout expires (Akka's BoundedMailbox
// semantics). The timeout can only reject a tuple being admitted: tuples
// a mailbox has already accepted are never dropped.
// Every admitted tuple counts as emitted and arrived, every shed tuple as
// emitted and dropped.
func (e *engine) localSendMany(from plan.StationID, edgeIdx int, edge *plan.Edge, ts []operators.Tuple) bool {
	tb := e.tab()
	if f := tb.stFaults[from]; f != nil {
		f.OnSend()
	}
	sent, dropped, ok := tb.senders[from][edgeIdx].SendMany(ts, e.done)
	if n := uint64(sent + dropped); n > 0 {
		tb.st[from].Emitted.Add(n)
		tb.st[edge.To].Arrived.Add(uint64(sent))
		if dropped > 0 {
			tb.st[edge.To].Dropped.Add(uint64(dropped))
		}
		if len(e.tracers) != 0 {
			e.fireEmit(from, sent+dropped)
		}
	}
	if !ok {
		// Shutdown aborted the delivery part-way: the tail was never
		// admitted anywhere.
		tb.st[from].Abandoned.Add(uint64(len(ts) - sent - dropped))
	}
	return ok
}

// fireServe fires OnServe for one tuple whose service began at started;
// stations call it only while tracers are attached, so the clock reads it
// needs cost nothing otherwise.
func (e *engine) fireServe(id plan.StationID, started time.Time) {
	elapsed := time.Since(started)
	for _, t := range e.tracers {
		t.OnServe(int(id), 1, elapsed)
	}
}

// fireEmit fires OnEmit for n tuples a station admitted downstream or, at a
// sink, released; callers gate it on attached tracers.
func (e *engine) fireEmit(id plan.StationID, n int) {
	for _, t := range e.tracers {
		t.OnEmit(int(id), n)
	}
}

// start plans t with the given replication degrees and deploys the plan
// on a new engine.
func start(t *core.Topology, replicas []int, binding *Binding, cfg Config) (*engine, error) {
	p, err := plan.Build(t, plan.Options{Replicas: replicas})
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if cfg, err = cfg.withDefaults(); err != nil {
		return nil, err
	}
	e, err := newEngine(p, binding, cfg)
	if err != nil {
		return nil, err
	}
	return e, e.deploy(p)
}

// measure runs the deployed engine through the warmup and one
// measurement window, then stops it; shared by the local and distributed
// engines.
func (e *engine) measure(ctx context.Context) *Metrics {
	sleepCtx(ctx, e.cfg.Warmup)
	w := e.beginWindow()
	sleepCtx(ctx, e.cfg.Duration-e.cfg.Warmup)
	return e.stop(w)
}

// measureWindow is an open measurement window: the counter snapshot it
// began with and when.
type measureWindow struct {
	snap  counterSnapshot
	start time.Time
}

// beginWindow opens a measurement window. The registry's marks — and with
// them the estimator's window — bracket the same interval, so WindowRates
// and the drift report measure what Metrics measures.
func (e *engine) beginWindow() measureWindow {
	snap := e.snapshotAll()
	e.reg.MarkWindowBegin()
	return measureWindow{snap: snap, start: time.Now()}
}

// stop closes the window, shuts the engine down and reports the window's
// rates with the run's lifetime totals.
func (e *engine) stop(w measureWindow) *Metrics {
	snap := e.snapshotAll()
	e.reg.MarkWindowEnd()
	seconds := time.Since(w.start).Seconds()
	lost := e.shutdown()
	m := e.buildMetrics(seconds, w.snap, snap)
	m.Totals.Abandoned += lost
	return m
}

// drainMailboxes collects every tuple still queued after all stations
// exited, so shutdown leaves no unaccounted in-flight item and every
// capacity credit returns to its mailbox. Stations hold nothing between
// windows (every delivery hands its tuples to a mailbox or accounts them
// before it returns), so by the time this runs all surviving tuples sit
// in mailboxes — including the mailboxes of stations a live
// reconfiguration retired mid-run.
func (e *engine) drainMailboxes() {
	tb := e.tab()
	for i := range tb.mailboxes {
		if n := tb.mailboxes[i].Drain(); n > 0 {
			tb.st[i].Drained.Add(uint64(n))
		}
	}
}

// counterSnapshot is one point-in-time view of all station counters.
type counterSnapshot struct {
	consumed, emitted, arrived, dropped []uint64
}

func (e *engine) snapshotAll() counterSnapshot {
	tb := e.tab()
	n := len(tb.p.Stations)
	s := counterSnapshot{
		consumed: make([]uint64, n),
		emitted:  make([]uint64, n),
		arrived:  make([]uint64, n),
		dropped:  make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		s.consumed[i] = tb.st[i].Consumed.Load()
		s.emitted[i] = tb.st[i].Emitted.Load()
		s.arrived[i] = tb.st[i].Arrived.Load()
		s.dropped[i] = tb.st[i].Dropped.Load()
	}
	return s
}

// at reads a snapshot slice that may predate stations a reconfiguration
// added; missing entries read as zero (the station did not exist, so it
// had consumed nothing).
func at(s []uint64, i int) uint64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// buildMetrics aggregates the two counter snapshots into per-operator and
// per-station rates, over the final tables (so stations added or retired
// by live reconfiguration are included).
func (e *engine) buildMetrics(window float64, snap1, snap2 counterSnapshot) *Metrics {
	tb := e.tab()
	p := tb.p
	m := &Metrics{
		Departure:       make([]float64, len(p.WorkersOf)),
		Arrival:         make([]float64, len(p.WorkersOf)),
		Dropped:         make([]float64, len(p.WorkersOf)),
		MeasuredSeconds: window,
		Stations:        make([]StationMetrics, len(p.Stations)),
	}
	for i := range p.Stations {
		consumed := at(snap2.consumed, i) - at(snap1.consumed, i)
		emitted := at(snap2.emitted, i) - at(snap1.emitted, i)
		m.Processed += consumed
		m.Stations[i] = StationMetrics{
			Name:        p.Stations[i].Name,
			Role:        p.Stations[i].Role,
			Consumed:    consumed,
			Emitted:     emitted,
			ConsumeRate: float64(consumed) / window,
			EmitRate:    float64(emitted) / window,
			Restarts:    tb.st[i].Restarts.Load(),
			Degraded:    tb.st[i].Degraded.Load(),
			Retired:     tb.retired[i],
		}
		m.Restarts += m.Stations[i].Restarts
		if m.Stations[i].Degraded {
			m.Degraded++
		}
		// Lifetime totals (not windowed): see the Totals doc for the
		// bucket definitions and the conservation identity. Retired
		// stations are included — their history happened.
		st := &p.Stations[i]
		m.Totals.Shed += tb.st[i].Dropped.Load()
		m.Totals.Failed += tb.st[i].Failed.Load()
		m.Totals.Abandoned += tb.st[i].Abandoned.Load()
		m.Totals.Drained += tb.st[i].Drained.Load()
		if st.Role == plan.RoleSource {
			m.Totals.Generated += tb.st[i].Consumed.Load()
		} else if len(st.Out) == 0 {
			m.Totals.Delivered += tb.st[i].Emitted.Load()
		}
	}
	for op := range p.WorkersOf {
		outSide := p.WorkersOf[op]
		if c := p.CollectorOf[op]; c >= 0 {
			outSide = []plan.StationID{c}
		}
		var emitted uint64
		for _, sid := range outSide {
			emitted += at(snap2.emitted, int(sid)) - at(snap1.emitted, int(sid))
		}
		m.Departure[op] = float64(emitted) / window
		if entry := p.EntryOf[op]; entry >= 0 {
			m.Arrival[op] = float64(at(snap2.arrived, int(entry))-at(snap1.arrived, int(entry))) / window
			m.Dropped[op] = float64(at(snap2.dropped, int(entry))-at(snap1.dropped, int(entry))) / window
		}
	}
	m.Throughput = m.Departure[p.Stations[p.SourceID].Op]
	return m
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runStation is the actor goroutine, structured as lifecycle segments: a
// segment runs the operator until shutdown or a pause request; between
// segments the station parks and waits for the controller to release or
// retire it, re-reading the routing tables afterwards so an epoch fence
// can swap them while it is parked.
func (e *engine) runStation(id plan.StationID, ctl *stationCtl) {
	defer e.wg.Done()
	for {
		e.stationSegment(id, ctl)
		if e.isShutdown() {
			return
		}
		if !ctl.park(e.done) {
			return
		}
	}
}

// stationSegment runs the station until shutdown or a pause request. The
// operator body runs in epochs: a clean epoch ends at the segment
// boundary; a panicking epoch (an operator bug or an injected fault) is
// recovered when Config.MaxRestarts enables recovery, and the station
// restarts with a freshly bound operator instance until its budget is
// spent, after which it degrades into an accounted discard sink
// (runDegraded).
func (e *engine) stationSegment(id plan.StationID, ctl *stationCtl) {
	tb := e.tab()
	st := &tb.p.Stations[id]
	if st.Role == plan.RoleSource {
		e.runSource(tb, st, ctl)
		return
	}
	if tb.st[id].Degraded.Load() {
		e.runDegraded(tb, st, ctl)
		return
	}
	for {
		if e.stationEpoch(tb, st, ctl) {
			return
		}
		if max := e.cfg.MaxRestarts; max >= 0 && tb.st[id].Restarts.Load() >= uint64(max) {
			tb.st[id].Degraded.Store(true)
			for _, t := range e.tracers {
				t.OnDegrade(int(id))
			}
			e.runDegraded(tb, st, ctl)
			return
		}
		n := tb.st[id].Restarts.Add(1)
		for _, t := range e.tracers {
			t.OnRestart(int(id), n)
		}
	}
}

// pickEdge selects the index of st's output edge for t, the emit-th
// output of one call of the operator whose routing identity is op, per the
// station's routing discipline, or honors an explicit meta-operator
// destination; -1 means the item has no destination.
func pickEdge(tb *tables, st *plan.Station, dest core.OpID, t *operators.Tuple, op uint64, emit int, rr *int) int {
	out := st.Out
	if len(out) == 0 {
		return -1
	}
	if dest >= 0 {
		entry := tb.p.EntryOf[dest]
		for i := range out {
			if out[i].To == entry {
				return i
			}
		}
		return -1
	}
	if len(out) == 1 {
		return 0
	}
	switch st.Discipline {
	case plan.RoundRobin:
		idx := *rr % len(out)
		*rr++
		return idx
	case plan.KeyHash:
		if n := len(st.KeyReplica); n > 0 {
			r := st.KeyReplica[t.Key%uint64(n)]
			if r >= 0 && r < len(out) {
				return r
			}
		}
		return int(t.Key % uint64(len(out)))
	default:
		return split(len(out), func(i int) float64 { return out[i].Prob }, t, op, emit)
	}
}

// split routes t, the emit-th output of one call of operator op
// (opIdent), across n probabilistic edges whose probabilities prob gives
// in order: it returns the edge a uniform draw hashed from the tuple's
// identity (Seq, Key), op and emit falls on (the last absorbs rounding),
// or -1 when n is 0. op keeps successive splits of one tuple
// independent, emit the copies one call emits; fission and fusion keep
// all four, so every deployment of a topology run with one Config.Seed
// routes every tuple alike.
func split(n int, prob func(int) float64, t *operators.Tuple, op uint64, emit int) int {
	if n < 2 {
		return n - 1
	}
	h := stats.Mix64(stats.Mix64(stats.Mix64(t.Seq^op)+t.Key) + uint64(emit))
	u, acc := float64(h>>11)/(1<<53), 0.0
	for i := 0; i < n-1; i++ {
		if acc += prob(i); u < acc {
			return i
		}
	}
	return n - 1
}

// opIdent is the routing identity of the operator named name under
// Config.Seed seed (FNV-1a of the name, salted), computed once per
// station or fused member.
func opIdent(name string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64() ^ stats.Mix64(seed)
}

// pacer stretches item handling to a station's profiled service time.
// Naive per-item sleeps accumulate the kernel's wakeup overshoot (up to a
// few milliseconds per sleep on coarse-tick hosts) into a large rate
// error; the pacer instead tracks an absolute completion schedule and
// compensates overshoot by skipping sleeps on subsequent items. The
// schedule may lag by at most slack before it resets, so an actor that
// idled (empty mailbox) or stalled (backpressure) cannot bank that time
// as service capacity beyond a short catch-up burst.
type pacer struct {
	next   time.Time
	period time.Duration
	slack  time.Duration
}

func newPacer(serviceTime float64) *pacer {
	period := time.Duration(serviceTime * float64(time.Second))
	slack := 2 * period
	// The slack must exceed the worst-case single-sleep overshoot, or
	// sub-overshoot periods would reset the schedule on every item and
	// run at the kernel tick rate instead of the service rate.
	if min := 10 * time.Millisecond; slack < min {
		slack = min
	}
	return &pacer{period: period, slack: slack}
}

// wait blocks until the schedule allows the next completion; started is the
// time this item's service began. It reports whether the schedule reset
// because it had lagged past slack.
func (p *pacer) wait(started time.Time) (reset bool) {
	return p.waitFor(started, p.period)
}

// waitFor paces one item whose service time differs from the configured
// period; meta-operators use it with the per-item path cost (Algorithm 4:
// the sequential composition of the member functions along the item's
// path).
func (p *pacer) waitFor(started time.Time, period time.Duration) (reset bool) {
	if period <= 0 {
		return false
	}
	switch {
	case p.next.IsZero():
		p.next = started
	case started.Sub(p.next) > p.slack:
		p.next, reset = started, true
	}
	p.next = p.next.Add(period)
	if d := time.Until(p.next); d > 20*time.Microsecond {
		time.Sleep(d)
	}
	return reset
}

// RunTopology plans the topology with the given replication degrees,
// deploys it with the binding's operator implementations (a nil binding
// runs every non-source station as a pass-through: pure queueing
// behaviour, still faithful to the cost model), and runs it for
// cfg.Duration, reporting steady-state metrics.
func RunTopology(ctx context.Context, t *core.Topology, replicas []int, binding *Binding, cfg Config) (*Metrics, error) {
	e, err := start(t, replicas, binding, cfg)
	if err != nil {
		return nil, err
	}
	return e.measure(ctx), nil
}
