// Package qsim is a deterministic discrete-event simulator of SpinStreams
// execution plans as queueing networks with finite buffers and
// Blocking-After-Service (BAS) semantics — the communication model the
// paper configures Akka's BoundedMailbox to implement (Section 5.1). It is
// the repo's substitute for the paper's 24-core testbed: every station
// (actor) progresses independently at its own service rate, items queue in
// bounded mailboxes, and a send into a full mailbox blocks the sender until
// a slot frees.
//
// The simulator executes the same physical plans as the live runtime, so
// "predicted vs measured" experiments can use either substrate.
package qsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"spinstreams/internal/core"
	"spinstreams/internal/plan"
	statspkg "spinstreams/internal/stats"
)

// Distribution selects the per-item service time law.
type Distribution int

const (
	// Exponential draws service times from an exponential distribution
	// with the station's mean; the default, giving realistic variance.
	Exponential Distribution = iota + 1
	// Deterministic uses the mean verbatim; useful to isolate the fluid
	// behaviour of the network.
	Deterministic
)

// Config tunes a simulation run.
type Config struct {
	// Seed drives all sampling; same seed, same trajectory.
	Seed uint64
	// BufferSize is the mailbox capacity of every station (default 64).
	BufferSize int
	// Horizon is the simulated duration in seconds (default 40).
	Horizon float64
	// Warmup is the prefix of the horizon excluded from measurements, in
	// seconds (default Horizon/4); the paper measures steady state only.
	Warmup float64
	// Service selects the service time distribution (default Exponential).
	Service Distribution
	// Shedding switches the communication semantics from backpressure
	// (Blocking-After-Service) to load shedding: an item arriving at a
	// full mailbox is discarded instead of stalling its producer — the
	// alternative Section 2 of the paper contrasts with backpressure
	// (and the behaviour of Akka's BoundedMailbox when its enqueue
	// timeout expires).
	Shedding bool
	// RateEnvelope, when non-nil, modulates every source station's
	// generation rate over simulated time: at time t the source's mean
	// service time becomes ServiceTime / RateEnvelope(t). An envelope of
	// 1 is the steady workload; values above 1 are bursts, below 1
	// troughs. The envelope must be deterministic (same t, same value)
	// for reruns to be reproducible; non-positive values are clamped.
	RateEnvelope func(t float64) float64
	// SampleEvery, when positive and OnSample is set, emits a periodic
	// occupancy sample of every station each SampleEvery simulated
	// seconds — the simulator-side analogue of the runtime's estimator
	// sampling tick, used to validate the online service-rate estimator
	// against ground truth.
	SampleEvery float64
	// OnSample receives each periodic sample. The slice is reused between
	// calls; callers must not retain it.
	OnSample func(now float64, stations []Sample)
}

// Sample is one station's figures at a sampling instant: instantaneous
// queue/regime state plus cumulative counters, mirroring what the live
// runtime's estimator sampler reads from mailboxes and the obs registry.
type Sample struct {
	// Station indexes the plan's stations.
	Station int
	// Queued and Capacity are the station mailbox's instantaneous depth
	// and bound.
	Queued, Capacity int
	// Blocked reports the station is stalled on a full downstream mailbox.
	Blocked bool
	// Consumed, Emitted, Arrived and Dropped are cumulative counters.
	Consumed, Emitted, Arrived, Dropped uint64
}

// withDefaults fills the zero-valued knobs. A non-finite Horizon or
// Warmup is an error: the event loop would never reach it.
func (c Config) withDefaults() (Config, error) {
	if math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) || math.IsNaN(c.Warmup) || math.IsInf(c.Warmup, 0) {
		return c, fmt.Errorf("qsim: Horizon %v and Warmup %v must be finite", c.Horizon, c.Warmup)
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 64
	}
	if c.Horizon <= 0 {
		c.Horizon = 40
	}
	if c.Warmup <= 0 || c.Warmup >= c.Horizon {
		c.Warmup = c.Horizon / 4
	}
	if c.Service == 0 {
		c.Service = Exponential
	}
	return c, nil
}

// StationStats reports one station's measured behaviour during the
// measurement window.
type StationStats struct {
	Name string
	Role plan.Role
	// Op is the logical operator the station belongs to.
	Op core.OpID
	// Consumed counts items whose service completed.
	Consumed uint64
	// Emitted counts items delivered downstream (post-blocking).
	Emitted uint64
	// BusyFrac is the fraction of the window spent serving.
	BusyFrac float64
	// BlockedFrac is the fraction of the window spent stalled by
	// backpressure (waiting on a full downstream mailbox).
	BlockedFrac float64
	// MeanQueue is the time-averaged mailbox occupancy.
	MeanQueue float64
	// MeanWait is the mean time an item spends queued in the mailbox
	// before service starts, from Little's law (MeanQueue / arrival rate).
	MeanWait float64
	// WaitP50 and WaitP95 are percentiles of the per-item mailbox waiting
	// time, from a sample of items dequeued after warmup.
	WaitP50, WaitP95 float64
}

// Result is the outcome of a simulation.
type Result struct {
	// Throughput is the measured source departure rate (items/s), the
	// paper's topology throughput.
	Throughput float64
	// Departure is the measured departure rate per logical operator.
	Departure []float64
	// Arrival is the measured arrival rate per logical operator.
	Arrival []float64
	// Stations reports per-station figures.
	Stations []StationStats
	// Wait is the mean mailbox waiting time per logical operator (the
	// entry station's queueing delay), in seconds.
	Wait []float64
	// Dropped is the rate of items discarded at each logical operator's
	// entry mailbox (items/s); all zeros under backpressure semantics.
	Dropped []float64
	// EdgeProbs reports the measured routing frequency of each logical
	// operator's output edges (same order as Topology.Out), the
	// "probability distributions that model the frequency of data
	// exchange" the paper's profiling step measures. Entries are nil for
	// operators that emitted nothing.
	EdgeProbs [][]float64
	// Events counts processed simulation events.
	Events uint64
	// MeasuredSeconds is the length of the measurement window.
	MeasuredSeconds float64
}

const (
	stIdle = iota
	stServing
	stBlocked
)

type simStation struct {
	spec *plan.Station
	// queued is the number of items waiting in the mailbox.
	queued int
	// arrivalTimes rings the enqueue timestamps of the queued items so
	// per-item waiting times can be sampled at dequeue (head/tail indices
	// wrap modulo the mailbox capacity).
	arrivalTimes []float64
	qHead, qTail int
	// dropped counts items discarded at this station's mailbox under
	// shedding semantics (cumulative).
	dropped     uint64
	snapDropped uint64
	// waitSamples collects post-warmup waiting times (decimated once the
	// budget fills).
	waitSamples []float64
	sampleEvery uint64
	sampleTick  uint64
	state       int
	// credit accumulates fractional output entitlement (gain per consumed
	// item); floor(credit) items are emitted at each completion.
	credit float64
	// rr is the round-robin cursor for emitter stations.
	rr int
	// pending are the remaining output targets of the completed service
	// that still must be delivered (head blocks on a full mailbox).
	pending []plan.StationID
	// waiters are producer stations blocked on this station's mailbox, in
	// arrival order.
	waiters []plan.StationID
	// edgeIdx maps a target station to its index in spec.Out, for the
	// per-edge delivery counters.
	edgeIdx map[plan.StationID]int
	// edgeCount counts items delivered per output edge (cumulative).
	edgeCount []uint64
	// lastEdge is the edge index of the head pending output, so blocked
	// deliveries are attributed to the right edge on admission.
	lastEdge []int

	// Statistics (cumulative; the measurement window subtracts snapshots).
	consumed, emitted   uint64
	arrived             uint64
	busy, blocked       float64
	lastTransition      float64
	qArea               float64
	lastQChange         float64
	snapConsumed        uint64
	snapEmitted         uint64
	snapArrived         uint64
	snapBusy, snapBlock float64
	snapQArea           float64
}

type event struct {
	at  float64
	seq uint64
	st  plan.StationID
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type sim struct {
	cfg      Config
	stations []simStation
	events   eventHeap
	rng      *statspkg.RNG
	now      float64
	seq      uint64
	nEvents  uint64
}

// Simulate runs the plan under the configuration and reports steady-state
// measurements.
func Simulate(p *plan.Plan, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if p == nil || len(p.Stations) == 0 {
		return nil, errors.New("qsim: empty plan")
	}
	s := &sim{
		cfg:      cfg,
		stations: make([]simStation, len(p.Stations)),
		rng:      statspkg.NewRNG(cfg.Seed),
	}
	for i := range p.Stations {
		st := simStation{
			spec:         &p.Stations[i],
			arrivalTimes: make([]float64, cfg.BufferSize),
			sampleEvery:  1,
		}
		if n := len(p.Stations[i].Out); n > 0 {
			st.edgeIdx = make(map[plan.StationID]int, n)
			for e, edge := range p.Stations[i].Out {
				st.edgeIdx[edge.To] = e
			}
			st.edgeCount = make([]uint64, n)
		}
		s.stations[i] = st
	}
	heap.Init(&s.events)

	// The source always has input: start it immediately.
	s.startService(p.SourceID)

	// Periodic occupancy sampling: simulator state is piecewise-constant
	// between events, so draining every sample instant up to (and
	// including) the next event time before processing it reads exact
	// queue depths, regimes and counters at each instant.
	var sampleBuf []Sample
	nextSample := cfg.SampleEvery
	emitSamples := func(upTo float64) {
		if cfg.SampleEvery <= 0 || cfg.OnSample == nil {
			return
		}
		if upTo > cfg.Horizon {
			upTo = cfg.Horizon
		}
		for nextSample <= upTo {
			if sampleBuf == nil {
				sampleBuf = make([]Sample, len(s.stations))
			}
			for i := range s.stations {
				st := &s.stations[i]
				sampleBuf[i] = Sample{
					Station:  i,
					Queued:   st.queued,
					Capacity: cfg.BufferSize,
					Blocked:  st.state == stBlocked,
					Consumed: st.consumed,
					Emitted:  st.emitted,
					Arrived:  st.arrived,
					Dropped:  st.dropped,
				}
			}
			cfg.OnSample(nextSample, sampleBuf)
			nextSample += cfg.SampleEvery
		}
	}

	snapped := false
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		if e.at > cfg.Horizon {
			break
		}
		emitSamples(e.at)
		s.now = e.at
		if !snapped && s.now >= cfg.Warmup {
			s.snapshot()
			snapped = true
		}
		s.nEvents++
		s.complete(e.st)
	}
	// The last events may leave stations parked well before the horizon;
	// their state persists, so trailing samples are still exact.
	emitSamples(cfg.Horizon)
	if !snapped {
		return nil, fmt.Errorf("qsim: simulation ended before warmup (%v s)", cfg.Warmup)
	}
	return s.result(p)
}

// SimulateTopology expands the topology (with optional replication degrees)
// and simulates it; the common entry point for experiments.
func SimulateTopology(t *core.Topology, replicas []int, cfg Config) (*Result, error) {
	p, err := plan.Build(t, plan.Options{Replicas: replicas})
	if err != nil {
		return nil, err
	}
	return Simulate(p, cfg)
}

// snapshot records the warmup boundary for every station.
func (s *sim) snapshot() {
	for i := range s.stations {
		st := &s.stations[i]
		s.settle(st)
		st.snapConsumed = st.consumed
		st.snapEmitted = st.emitted
		st.snapArrived = st.arrived
		st.snapBusy = st.busy
		st.snapBlock = st.blocked
		st.snapDropped = st.dropped
		s.settleQueue(st)
		st.snapQArea = st.qArea
	}
}

// enqueueAt records one arrival into the mailbox ring.
func (st *simStation) enqueueAt(now float64) {
	st.arrivalTimes[st.qTail] = now
	st.qTail = (st.qTail + 1) % len(st.arrivalTimes)
	st.queued++
}

// sampleWait pops the oldest arrival and, past warmup, records its waiting
// time; the sample set decimates itself to stay bounded.
func (st *simStation) sampleWait(now, warmup float64) {
	arrived := st.arrivalTimes[st.qHead]
	st.qHead = (st.qHead + 1) % len(st.arrivalTimes)
	st.queued--
	if now < warmup {
		return
	}
	st.sampleTick++
	if st.sampleTick%st.sampleEvery != 0 {
		return
	}
	const maxSamples = 4096
	if len(st.waitSamples) >= maxSamples {
		// Halve the set and double the stride: an unbiased-enough
		// decimation that keeps memory constant on long horizons.
		half := st.waitSamples[:0]
		for i := 1; i < maxSamples; i += 2 {
			half = append(half, st.waitSamples[i])
		}
		st.waitSamples = half
		st.sampleEvery *= 2
	}
	st.waitSamples = append(st.waitSamples, now-arrived)
}

// settleQueue accrues the queue-length time integral up to now.
func (s *sim) settleQueue(st *simStation) {
	dt := s.now - st.lastQChange
	if dt > 0 {
		st.qArea += float64(st.queued) * dt
	}
	st.lastQChange = s.now
}

// settle accrues the in-progress serving/blocked interval up to now.
func (s *sim) settle(st *simStation) {
	dt := s.now - st.lastTransition
	if dt < 0 {
		dt = 0
	}
	switch st.state {
	case stServing:
		st.busy += dt
	case stBlocked:
		st.blocked += dt
	}
	st.lastTransition = s.now
}

func (s *sim) serviceTime(st *simStation) float64 {
	mean := st.spec.ServiceTime
	if mean <= 0 {
		mean = 1e-9
	}
	if s.cfg.RateEnvelope != nil && st.spec.Role == plan.RoleSource {
		e := s.cfg.RateEnvelope(s.now)
		if e < 1e-9 {
			e = 1e-9
		}
		mean /= e
	}
	if s.cfg.Service == Deterministic {
		return mean
	}
	return s.rng.Exp(mean)
}

// startService transitions an idle station into serving when it has work.
func (s *sim) startService(id plan.StationID) {
	st := &s.stations[id]
	if st.state != stIdle {
		return
	}
	if st.spec.Role != plan.RoleSource {
		if st.queued == 0 {
			return
		}
		s.settleQueue(st)
		st.sampleWait(s.now, s.cfg.Warmup)
		// A mailbox slot freed: a blocked upstream producer may deliver.
		s.admitWaiter(id)
	}
	s.settle(st)
	st.state = stServing
	s.seq++
	heap.Push(&s.events, event{at: s.now + s.serviceTime(st), seq: s.seq, st: id})
}

// complete handles a service completion.
func (s *sim) complete(id plan.StationID) {
	st := &s.stations[id]
	s.settle(st)
	st.state = stIdle
	st.consumed++
	st.credit += st.spec.Gain
	k := int(math.Floor(st.credit))
	st.credit -= float64(k)
	if len(st.spec.Out) == 0 {
		// Sink: results leave the system immediately.
		st.emitted += uint64(k)
		s.startService(id)
		return
	}
	for i := 0; i < k; i++ {
		tgt := s.route(st)
		st.pending = append(st.pending, tgt)
		st.lastEdge = append(st.lastEdge, st.edgeIdx[tgt])
	}
	s.deliver(id)
}

// route samples one output target per the station's discipline.
func (s *sim) route(st *simStation) plan.StationID {
	out := st.spec.Out
	if len(out) == 1 {
		return out[0].To
	}
	if st.spec.Discipline == plan.RoundRobin {
		t := out[st.rr%len(out)].To
		st.rr++
		return t
	}
	// Probabilistic and KeyHash: weighted sampling (KeyHash edges carry
	// the replica load shares, so anonymous items reproduce the key skew).
	u := s.rng.Float64()
	acc := 0.0
	for _, e := range out {
		acc += e.Prob
		if u < acc {
			return e.To
		}
	}
	return out[len(out)-1].To
}

// deliver pushes the station's pending outputs downstream, blocking on the
// first full mailbox (BAS).
func (s *sim) deliver(id plan.StationID) {
	st := &s.stations[id]
	for len(st.pending) > 0 {
		tgtID := st.pending[0]
		tgt := &s.stations[tgtID]
		if tgt.queued >= s.cfg.BufferSize {
			if s.cfg.Shedding {
				// Load shedding: discard the item instead of stalling.
				st.edgeCount[st.lastEdge[0]]++
				st.pending = st.pending[1:]
				st.lastEdge = st.lastEdge[1:]
				st.emitted++
				tgt.dropped++
				continue
			}
			s.settle(st)
			st.state = stBlocked
			tgt.waiters = append(tgt.waiters, id)
			return
		}
		st.edgeCount[st.lastEdge[0]]++
		st.pending = st.pending[1:]
		st.lastEdge = st.lastEdge[1:]
		st.emitted++
		s.settleQueue(tgt)
		tgt.enqueueAt(s.now)
		tgt.arrived++
		if tgt.state == stIdle {
			s.startService(tgtID)
		}
	}
	s.settle(st)
	st.state = stIdle
	s.startService(id)
}

// admitWaiter lets the oldest blocked producer deliver into the freed slot.
func (s *sim) admitWaiter(id plan.StationID) {
	st := &s.stations[id]
	if len(st.waiters) == 0 || st.queued >= s.cfg.BufferSize {
		return
	}
	w := st.waiters[0]
	st.waiters = st.waiters[1:]
	prod := &s.stations[w]
	// The waiter's head pending output targets this station.
	prod.edgeCount[prod.lastEdge[0]]++
	prod.pending = prod.pending[1:]
	prod.lastEdge = prod.lastEdge[1:]
	prod.emitted++
	s.settleQueue(st)
	st.enqueueAt(s.now)
	st.arrived++
	s.settle(prod)
	prod.state = stIdle
	// Continue the producer's remaining deliveries (it may block again).
	s.deliver(w)
}

// result aggregates measurements over the window per logical operator.
func (s *sim) result(p *plan.Plan) (*Result, error) {
	window := s.cfg.Horizon - s.cfg.Warmup
	if window <= 0 {
		return nil, errors.New("qsim: empty measurement window")
	}
	// Settle final intervals at the horizon.
	s.now = s.cfg.Horizon
	for i := range s.stations {
		s.settle(&s.stations[i])
	}
	res := &Result{
		Departure:       make([]float64, len(p.WorkersOf)),
		Arrival:         make([]float64, len(p.WorkersOf)),
		Wait:            make([]float64, len(p.WorkersOf)),
		Dropped:         make([]float64, len(p.WorkersOf)),
		EdgeProbs:       make([][]float64, len(p.WorkersOf)),
		Stations:        make([]StationStats, len(s.stations)),
		Events:          s.nEvents,
		MeasuredSeconds: window,
	}
	for i := range s.stations {
		st := &s.stations[i]
		s.settleQueue(st)
		stats := StationStats{
			Name:        st.spec.Name,
			Role:        st.spec.Role,
			Op:          st.spec.Op,
			Consumed:    st.consumed - st.snapConsumed,
			Emitted:     st.emitted - st.snapEmitted,
			BusyFrac:    (st.busy - st.snapBusy) / window,
			BlockedFrac: (st.blocked - st.snapBlock) / window,
			MeanQueue:   (st.qArea - st.snapQArea) / window,
		}
		if arrived := st.arrived - st.snapArrived; arrived > 0 {
			stats.MeanWait = stats.MeanQueue * window / float64(arrived)
		}
		if len(st.waitSamples) > 0 {
			sum := statspkg.Summarize(st.waitSamples)
			stats.WaitP50 = sum.P50
			stats.WaitP95 = sum.P95
		}
		res.Stations[i] = stats
	}
	// Logical rates: the operator's departure side is its collector when
	// replicated, else its single worker; the arrival side is its entry.
	for op := range p.WorkersOf {
		outSide := p.WorkersOf[op]
		if c := p.CollectorOf[op]; c >= 0 {
			outSide = []plan.StationID{c}
		}
		var emitted uint64
		for _, sid := range outSide {
			emitted += s.stations[sid].emitted - s.stations[sid].snapEmitted
		}
		res.Departure[op] = float64(emitted) / window
		if len(outSide) == 1 {
			// The logical output edges live on the single worker, source
			// or collector station, in topology order.
			st := &s.stations[outSide[0]]
			var total uint64
			for _, c := range st.edgeCount {
				total += c
			}
			if total > 0 {
				probs := make([]float64, len(st.edgeCount))
				for e, c := range st.edgeCount {
					probs[e] = float64(c) / float64(total)
				}
				res.EdgeProbs[op] = probs
			}
		}
		entry := p.EntryOf[op]
		if entry >= 0 {
			res.Arrival[op] = float64(s.stations[entry].arrived-s.stations[entry].snapArrived) / window
			res.Wait[op] = res.Stations[entry].MeanWait
			res.Dropped[op] = float64(s.stations[entry].dropped-s.stations[entry].snapDropped) / window
		}
	}
	res.Throughput = res.Departure[p.Stations[p.SourceID].Op]
	return res, nil
}
