package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/keypart"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

// Controller owns a live run of a plan: unlike Run, which executes for a
// fixed duration, Start returns immediately and the caller decides when
// to measure, reconfigure (ApplyDelta) and stop. It is the runtime side
// of the paper's autonomic loop: obs.Drift feeds opt.Reoptimize, whose
// DeltaPlan the controller applies in-flight — replica rescales with
// keyed-state migration, and fusion undos that split a fused station
// back into its members — without restarting the topology.
//
// All reconfiguration entry points are serialized on an internal mutex;
// Stop wins over a concurrent ApplyDelta. A controller serves one run.
type Controller struct {
	e *engine
	// topo is the deployed logical topology (nil when started from a raw
	// plan; ApplyDelta then refuses, since DeltaPlans name operators).
	topo *core.Topology
	// part recomputes key->replica assignments on rescale; matches the
	// planner's default partitioner.
	part keypart.Partitioner

	mu sync.Mutex
	// replicas is the current replication degree per logical operator,
	// updated by every applied change (obs.Drift needs it).
	replicas []int
	stopped  bool
	// stalls records the fence duration of every applied change, for the
	// reconfiguration-stall benchmark.
	stalls []time.Duration
	// demoted accumulates the SPSC->MPSC inbox demotions of the ApplyDelta
	// in progress (ApplyReport.Demoted); guarded by mu like the rest.
	demoted int
	seeds   *stats.RNG
	// snap1/winStart bracket the current measurement window.
	snap1    counterSnapshot
	winStart time.Time
}

// ApplyReport summarizes one ApplyDelta.
type ApplyReport struct {
	// Epoch is the routing-table epoch after the apply (0 = initial
	// deployment, incremented once per applied change).
	Epoch uint64
	// Rescaled and Unfused count the applied changes.
	Rescaled int
	Unfused  int
	// Demoted counts inboxes the applied changes moved off the SPSC ring
	// onto the batched MPSC path because the new plan makes them
	// multi-producer (per-edge transport policies only). Demotion happens
	// inside the change's fence with an exact drain, so no tuple is lost;
	// rings are never promoted back mid-run.
	Demoted int
	// Stall is the longest pause fence any single change held: the time
	// from the first pause request to the release of the last affected
	// station. Unaffected stations kept running throughout.
	Stall time.Duration
	// MigratedKeys counts partitioning keys whose state moved between
	// operator instances.
	MigratedKeys int
}

// Start deploys the plan and returns a running controller. The engine
// runs until Stop; measurement windows are bracketed by beginWindow (Start
// opens one) and read by Stop.
func Start(p *plan.Plan, binding *Binding, cfg Config) (*Controller, error) {
	if p == nil || len(p.Stations) == 0 {
		return nil, errors.New("runtime: empty plan")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if binding == nil {
		binding = &Binding{}
	}
	if err := binding.validate(p); err != nil {
		return nil, err
	}
	e, err := newEngine(p, binding, cfg)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		e:     e,
		part:  keypart.Greedy{},
		seeds: stats.NewRNG(cfg.Seed + 0x1eaf),
	}
	e.startStations()
	c.beginWindow()
	return c, nil
}

// StartTopology plans the topology with the given replication degrees,
// binds the operator implementations, and starts a controller that can
// resolve DeltaPlan operator names against the topology.
func StartTopology(t *core.Topology, replicas []int, binding *Binding, cfg Config) (*Controller, error) {
	p, err := plan.Build(t, plan.Options{Replicas: replicas})
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	c, err := Start(p, binding, cfg)
	if err != nil {
		return nil, err
	}
	c.topo = t
	c.replicas = make([]int, t.Len())
	for i := range c.replicas {
		c.replicas[i] = 1
		if replicas != nil && i < len(replicas) && replicas[i] > 1 {
			c.replicas[i] = replicas[i]
		}
		// The planner may have consolidated a keyed fission.
		if ws := p.WorkersOf[i]; len(ws) > 0 {
			c.replicas[i] = len(ws)
		}
	}
	return c, nil
}

// Registry exposes the run's observability registry (drift reports,
// snapshots).
func (c *Controller) Registry() *obs.Registry { return c.e.reg }

// Epoch returns the current routing-table epoch.
func (c *Controller) Epoch() uint64 { return c.e.tab().epoch }

// Replicas returns the current per-operator replication degrees.
func (c *Controller) Replicas() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.replicas...)
}

// Stalls returns the pause-fence duration of every change applied so far.
func (c *Controller) Stalls() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.stalls...)
}

// beginWindow opens a fresh measurement window; Stop (and each Autotune
// round) closes it.
func (c *Controller) beginWindow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap1 = c.e.snapshotAll()
	c.e.reg.MarkWindowBegin()
	c.winStart = time.Now()
}

// Stop shuts the engine down and reports metrics. Rates cover the window
// opened by the last beginWindow; Totals are lifetime.
func (c *Controller) Stop() (*Metrics, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, errors.New("runtime: controller already stopped")
	}
	c.stopped = true
	snap1, winStart := c.snap1, c.winStart
	c.mu.Unlock()
	snap2 := c.e.snapshotAll()
	c.e.reg.MarkWindowEnd()
	window := time.Since(winStart).Seconds()
	c.e.shutdown()
	return c.e.buildMetrics(window, snap1, snap2), nil
}

// ApplyDelta applies a re-optimization delta to the running topology:
// each replica change and fusion undo is applied as one epoch fence —
// pause the affected stations, rebuild the routing tables copy-on-write,
// migrate keyed state, swap, release. Tuples keep flowing through every
// unaffected station. Changes apply sequentially in deterministic
// (name-sorted) order; on error the already-applied prefix stays applied
// and the failing change's fence is fully released, so the topology is
// always left running.
func (c *Controller) ApplyDelta(d *opt.DeltaPlan) (*ApplyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || c.e.isShutdown() {
		return nil, errors.New("runtime: controller is stopped")
	}
	rep := &ApplyReport{Epoch: c.e.tab().epoch}
	c.demoted = 0
	defer func() { rep.Demoted = c.demoted }()
	if d == nil || d.Empty() {
		return rep, nil
	}
	if c.e.cfg.PreserveOrder {
		return rep, errors.New("runtime: live reconfiguration is incompatible with PreserveOrder (collector reorder state cannot be migrated)")
	}
	if c.topo == nil {
		return rep, errors.New("runtime: ApplyDelta resolves operator names against the logical topology; start the controller with StartTopology")
	}
	changes := append([]opt.ReplicaChange(nil), d.Changes...)
	sort.Slice(changes, func(i, j int) bool { return changes[i].Operator < changes[j].Operator })
	undos := append([]opt.FusionUndo(nil), d.Undo...)
	sort.Slice(undos, func(i, j int) bool { return undos[i].Operator < undos[j].Operator })
	for _, ch := range changes {
		stall, moved, err := c.applyRescale(ch)
		c.noteStall(rep, stall)
		rep.MigratedKeys += moved
		if err != nil {
			rep.Epoch = c.e.tab().epoch
			return rep, fmt.Errorf("runtime: rescale %q: %w", ch.Operator, err)
		}
		rep.Rescaled++
	}
	for _, u := range undos {
		stall, err := c.applyUnfuse(u)
		c.noteStall(rep, stall)
		if err != nil {
			rep.Epoch = c.e.tab().epoch
			return rep, fmt.Errorf("runtime: unfuse %q: %w", u.Operator, err)
		}
		rep.Unfused++
	}
	rep.Epoch = c.e.tab().epoch
	return rep, nil
}

// noteDemoted records a change's inbox demotions for the apply report.
func (c *Controller) noteDemoted(ids []plan.StationID) { c.demoted += len(ids) }

func (c *Controller) noteStall(rep *ApplyReport, stall time.Duration) {
	if stall <= 0 {
		return
	}
	c.stalls = append(c.stalls, stall)
	if stall > rep.Stall {
		rep.Stall = stall
	}
}

// fence tracks the stations one change paused, so success releases them
// into the new epoch and failure resumes them unchanged.
type fence struct {
	c        *Controller
	deadline time.Time
	started  time.Time
	paused   []*stationCtl
	// pausedID remembers which stations this fence holds, so a second
	// pause request for the same station (e.g. a demotion target that is
	// also in the change's producer set) is detected instead of
	// re-arming the handshake under a parked station.
	pausedID map[plan.StationID]*stationCtl
}

func (c *Controller) newFence() *fence {
	return &fence{
		c:        c,
		deadline: time.Now().Add(c.e.cfg.ReconfigStallBudget),
		pausedID: make(map[plan.StationID]*stationCtl),
	}
}

// holds reports whether the fence already paused the station.
func (f *fence) holds(id plan.StationID) bool {
	_, ok := f.pausedID[id]
	return ok
}

// pause requests a pause (draining the inbox first when drain is set) and
// waits for the station to park, bounded by the stall budget.
func (f *fence) pause(id plan.StationID, drain bool) (*stationCtl, error) {
	if f.started.IsZero() {
		f.started = time.Now()
	}
	if ctl, ok := f.pausedID[id]; ok {
		// Already parked under this fence; re-arming requestPause would
		// strand the station on stale handshake channels.
		return ctl, nil
	}
	ctl := f.c.e.ctl(id)
	if ctl == nil {
		return nil, fmt.Errorf("station %d was never spawned", id)
	}
	f.pausedID[id] = ctl
	ctl.requestPause(drain)
	f.paused = append(f.paused, ctl)
	timer := time.NewTimer(time.Until(f.deadline))
	defer timer.Stop()
	select {
	case <-ctl.parkedCh():
		return ctl, nil
	case <-timer.C:
		return nil, fmt.Errorf("stall budget %v exceeded pausing station %d", f.c.e.cfg.ReconfigStallBudget, id)
	case <-f.c.e.done:
		return nil, errors.New("engine stopped during reconfiguration")
	}
}

// abort resumes every paused station unchanged (stations that never made
// it to the park still see the release when they get there).
func (f *fence) abort() {
	for _, ctl := range f.paused {
		ctl.resume(false)
	}
}

// stall is the fence duration so far.
func (f *fence) stall() time.Duration {
	if f.started.IsZero() {
		return 0
	}
	return time.Since(f.started)
}

// topoIndex returns each station's position in a topological order of the
// physical plan, or an error when the plan is cyclic (the sequential
// pause protocol relies on sends only flowing forward).
func topoIndex(p *plan.Plan) ([]int, error) {
	n := len(p.Stations)
	indeg := make([]int, n)
	for i := range p.Stations {
		for _, e := range p.Stations[i].Out {
			indeg[e.To]++
		}
	}
	order := make([]int, n)
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order[v] = seen
		seen++
		for _, e := range p.Stations[v].Out {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, int(e.To))
			}
		}
	}
	if seen != n {
		return nil, errors.New("physical plan is cyclic; live reconfiguration needs an acyclic plan")
	}
	return order, nil
}

// producersOf lists the live stations with an edge into target, sorted
// topologically. Pausing them in that order cannot deadlock: a producer
// only ever blocks sending to stations later in the order, which are
// still running when it is paused.
func producersOf(tb *tables, target plan.StationID, order []int) []plan.StationID {
	var prods []plan.StationID
	for i := range tb.p.Stations {
		if tb.retired[i] {
			continue
		}
		for _, e := range tb.p.Stations[i].Out {
			if e.To == target {
				prods = append(prods, plan.StationID(i))
				break
			}
		}
	}
	sort.Slice(prods, func(a, b int) bool { return order[prods[a]] < order[prods[b]] })
	return prods
}

// cloneTables copies the routing tables for a new epoch. Slices are
// copied one level deep; stations the change does not touch keep their
// mailbox, sender-row and counter-cell pointers, which is what makes
// stale reads by unaffected stations safe.
func cloneTables(tb *tables) *tables {
	return &tables{
		epoch:     tb.epoch + 1,
		p:         clonePlan(tb.p),
		mailboxes: append([]*mailbox.Mailbox[operators.Tuple](nil), tb.mailboxes...),
		senders:   append([][]*mailbox.Sender[operators.Tuple](nil), tb.senders...),
		st:        append([]*obs.Station(nil), tb.st...),
		stFaults:  append([]*faultinject.StationFaults(nil), tb.stFaults...),
		retired:   append([]bool(nil), tb.retired...),
	}
}

// clonePlan deep-copies the plan's station list and operator maps; Out
// slices are copied per station so edge retargeting never mutates the
// plan a running station may still be reading.
func clonePlan(p *plan.Plan) *plan.Plan {
	q := &plan.Plan{
		Stations:    append([]plan.Station(nil), p.Stations...),
		SourceID:    p.SourceID,
		WorkersOf:   make([][]plan.StationID, len(p.WorkersOf)),
		CollectorOf: append([]plan.StationID(nil), p.CollectorOf...),
		EntryOf:     append([]plan.StationID(nil), p.EntryOf...),
	}
	for i := range q.Stations {
		q.Stations[i].Out = append([]plan.Edge(nil), p.Stations[i].Out...)
	}
	for i := range p.WorkersOf {
		q.WorkersOf[i] = append([]plan.StationID(nil), p.WorkersOf[i]...)
	}
	return q
}

// addStation appends a station to the new epoch's plan and returns its
// id. The fence is the capability proving the change's stations are
// paused — routing-table growth must not race running senders.
func addStation(f *fence, nt *tables, s plan.Station) plan.StationID {
	_ = f // capability only: callers must hold the change's fence
	s.ID = plan.StationID(len(nt.p.Stations))
	nt.p.Stations = append(nt.p.Stations, s)
	return s.ID
}

// demoteTransports re-derives the per-inbox transports for the new epoch
// and swaps every proven-SPSC inbox the rewritten plan makes
// multi-producer onto the batched MPSC path, inside the change's fence.
// The demotion target's producers are all inside the fence already: its
// old single producer is being retired (or is paused), and any new
// producers are added stations that have not spawned yet — so a
// drain-pause of the target empties the ring exactly, and the swap
// conserves every admitted tuple. It runs before finishTables so the
// added producers' sender rows bind to the replacement mailbox; it
// returns the demoted targets, the live pre-existing producers whose
// sender rows must be rebuilt against the new mailbox, and the
// retiring-masked fan-in vector finishTables sizes added inboxes with.
// Rings are never promoted back (a rescale to degree 1 keeps the batched
// path), which keeps every fence local to the operator being changed.
func (c *Controller) demoteTransports(f *fence, nt *tables, retiring []plan.StationID) (demoted, rewired []plan.StationID, fanIn []int, err error) {
	// nt.retired does not yet cover the added stations (finishTables
	// appends their slots later); extend the mask to the rewritten plan.
	retired := make([]bool, len(nt.p.Stations))
	copy(retired, nt.retired)
	for _, id := range retiring {
		retired[id] = true
	}
	fanIn = liveFanIn(nt.p, retired)
	for i := range nt.mailboxes {
		if retired[i] || nt.mailboxes[i].Mode() != mailbox.SPSC || fanIn[i] <= 1 {
			continue
		}
		target := plan.StationID(i)
		if f.holds(target) {
			// The target parked without draining; swapping its inbox now
			// would strand whatever the ring still holds. No current
			// change shape pauses a demotion target itself — refuse and
			// leave the old epoch running rather than lose tuples.
			return demoted, rewired, fanIn, fmt.Errorf("station %d needs a transport demotion but is already fenced", i)
		}
		// Fence any live pre-existing producer first (added stations have
		// no lifecycle handle yet and cannot send before the swap), so
		// nothing publishes into the old ring after the drain.
		for j := range nt.p.Stations {
			if retired[j] || c.e.ctl(plan.StationID(j)) == nil || f.holds(plan.StationID(j)) {
				continue
			}
			for _, e := range nt.p.Stations[j].Out {
				if e.To == target {
					if _, err := f.pause(plan.StationID(j), false); err != nil {
						return demoted, rewired, fanIn, err
					}
					rewired = append(rewired, plan.StationID(j))
					break
				}
			}
		}
		if _, err := f.pause(target, true); err != nil {
			return demoted, rewired, fanIn, err
		}
		if nt.mailboxes[i], err = demoteInbox(c.e.cfg); err != nil {
			return demoted, rewired, fanIn, err
		}
		demoted = append(demoted, target)
	}
	return demoted, rewired, fanIn, nil
}

// finishTables allocates the runtime state behind stations added to the
// new epoch — mailboxes, observability cells, fault streams — and builds
// sender rows for the added stations plus every station whose output
// edges the change rewired. fanIn is the retiring-masked producer count
// per station (from demoteTransports), which resolves each added inbox's
// transport under a per-edge policy. The fence is the capability proving
// every producer the new sender rows touch is paused.
func (c *Controller) finishTables(f *fence, nt *tables, added, rewired []plan.StationID, fanIn []int) error {
	_ = f // capability only: callers must hold the change's fence
	cfg := c.e.cfg
	infos := make([]obs.StationInfo, len(added))
	for i, id := range added {
		st := &nt.p.Stations[id]
		infos[i] = obs.StationInfo{
			Name:   st.Name,
			Role:   st.Role.String(),
			Op:     int(st.Op),
			Source: st.Role == plan.RoleSource,
			Sink:   len(st.Out) == 0,
		}
	}
	cells := c.e.reg.Extend(infos)
	for i, id := range added {
		m, err := newInbox(cfg, fanIn[id])
		if err != nil {
			return fmt.Errorf("station %d: %w", id, err)
		}
		nt.mailboxes = append(nt.mailboxes, m)
		nt.st = append(nt.st, cells[i])
		var fs *faultinject.StationFaults
		if cfg.Faults != nil {
			fs = cfg.Faults.Station(int(id))
		}
		nt.stFaults = append(nt.stFaults, fs)
		nt.retired = append(nt.retired, false)
		nt.senders = append(nt.senders, nil)
	}
	for _, id := range append(append([]plan.StationID(nil), added...), rewired...) {
		out := nt.p.Stations[id].Out
		row := make([]*mailbox.Sender[operators.Tuple], len(out))
		for j := range out {
			row[j] = nt.mailboxes[out[j].To].NewSender(cfg.SendTimeout)
		}
		nt.senders[id] = row
	}
	return nil
}

// retireStation marks a station retired in the new epoch; its lifetime
// counters stay in every sum. The fence is the capability proving the
// station is parked and drained before it is marked off the plan.
func retireStation(f *fence, nt *tables, id plan.StationID) {
	_ = f // capability only: callers must hold the change's fence
	nt.retired[id] = true
	nt.st[id].Retired.Store(true)
}

// retargetEdges points every edge into old at new instead, returning the
// ids of the stations whose rows changed. The fence is the capability
// proving the rewired producers are paused while their edges move.
func retargetEdges(f *fence, nt *tables, old, new plan.StationID) []plan.StationID {
	_ = f // capability only: callers must hold the change's fence
	var rewired []plan.StationID
	for i := range nt.p.Stations {
		changed := false
		for j := range nt.p.Stations[i].Out {
			if nt.p.Stations[i].Out[j].To == old {
				nt.p.Stations[i].Out[j].To = new
				changed = true
			}
		}
		if changed {
			rewired = append(rewired, plan.StationID(i))
		}
	}
	return rewired
}

// applyRescale routes one replica change to the matching structural
// operation: expand a single worker into an emitter/replicas/collector
// scaffold, or rescale an existing scaffold to a new replica count. A
// scaffold is never collapsed back to a plain worker (a change to 1
// keeps emitter and collector with one replica), a documented deviation
// that keeps the fence local to one operator.
func (c *Controller) applyRescale(ch opt.ReplicaChange) (time.Duration, int, error) {
	id, ok := c.topo.Lookup(ch.Operator)
	if !ok {
		return 0, 0, fmt.Errorf("unknown operator")
	}
	op := c.topo.Op(id)
	if ch.To < 1 {
		return 0, 0, fmt.Errorf("replica degree %d out of range", ch.To)
	}
	tb := c.e.tab()
	if int(id) >= len(tb.p.EntryOf) || tb.p.EntryOf[id] < 0 {
		return 0, 0, fmt.Errorf("operator has no station in the plan")
	}
	entry := tb.p.EntryOf[id]
	if tb.p.Stations[entry].Role == plan.RoleSource {
		return 0, 0, fmt.Errorf("the source cannot be rescaled")
	}
	if ch.To > 1 && !op.Kind.CanReplicate() {
		return 0, 0, fmt.Errorf("operator kind %s cannot be replicated", op.Kind)
	}
	if tb.p.CollectorOf[id] >= 0 {
		return c.rescale(id, ch.To)
	}
	if ch.To == 1 {
		return 0, 0, nil // already a single worker
	}
	return c.expand(id, ch.To)
}

// expand replaces operator op's single worker station with an emitter +
// m replicas + collector scaffold, migrating the worker's keyed state
// onto the replicas.
func (c *Controller) expand(op core.OpID, m int) (time.Duration, int, error) {
	e := c.e
	tb := e.tab()
	w := tb.p.EntryOf[op]
	wst := tb.p.Stations[w] // copied: the old plan stays untouched
	freq := wst.KeyFreq
	keyed := len(freq) > 0
	var asg keypart.Assignment
	if keyed {
		var err error
		asg, err = c.part.Partition(freq, m)
		if err != nil {
			return 0, 0, err
		}
		m = asg.Replicas
	}
	if m < 2 {
		// Consolidation says one replica carries the whole key load.
		return 0, 0, nil
	}
	order, err := topoIndex(tb.p)
	if err != nil {
		return 0, 0, err
	}
	f := c.newFence()
	for _, pid := range producersOf(tb, w, order) {
		if _, err := f.pause(pid, false); err != nil {
			f.abort()
			return f.stall(), 0, err
		}
	}
	wctl, err := f.pause(w, true)
	if err != nil {
		f.abort()
		return f.stall(), 0, err
	}

	nt := cloneTables(tb)
	disc := plan.RoundRobin
	if keyed {
		disc = plan.KeyHash
	}
	emitter := addStation(f, nt, plan.Station{
		Name: wst.Name + "/emitter", Role: plan.RoleEmitter, Op: op,
		ServiceTime: plan.DefaultEmitterServiceTime, Gain: 1,
		Discipline: disc,
		KeyReplica: append([]int(nil), asg.Replica...),
		KeyFreq:    freq,
	})
	workers := make([]plan.StationID, m)
	for r := 0; r < m; r++ {
		workers[r] = addStation(f, nt, plan.Station{
			Name: fmt.Sprintf("%s/replica%d", wst.Name, r), Role: plan.RoleWorker, Op: op, Replica: r,
			ServiceTime: wst.ServiceTime, Gain: wst.Gain,
			InputSelectivity:  wst.InputSelectivity,
			OutputSelectivity: wst.OutputSelectivity,
			Discipline:        plan.Probabilistic,
		})
	}
	collector := addStation(f, nt, plan.Station{
		Name: wst.Name + "/collector", Role: plan.RoleCollector, Op: op,
		ServiceTime: plan.DefaultEmitterServiceTime, Gain: 1,
		InputSelectivity:  wst.InputSelectivity,
		OutputSelectivity: wst.OutputSelectivity,
		Discipline:        plan.Probabilistic,
		Out:               append([]plan.Edge(nil), wst.Out...),
	})
	est := &nt.p.Stations[emitter]
	for r, wid := range workers {
		share := 1 / float64(m)
		if keyed && r < len(asg.Load) {
			share = asg.Load[r]
		}
		est.Out = append(est.Out, plan.Edge{To: wid, Prob: share})
		nt.p.Stations[wid].Out = []plan.Edge{{To: collector, Prob: 1}}
	}
	nt.p.EntryOf[op] = emitter
	nt.p.CollectorOf[op] = collector
	nt.p.WorkersOf[op] = workers
	rewired := retargetEdges(f, nt, w, emitter)
	added := append(append([]plan.StationID{emitter}, workers...), collector)
	demoted, extraRewired, fanIn, err := c.demoteTransports(f, nt, []plan.StationID{w})
	if err != nil {
		f.abort()
		return f.stall(), 0, err
	}
	c.noteDemoted(demoted)
	rewired = append(rewired, extraRewired...)
	if err := c.finishTables(f, nt, added, rewired, fanIn); err != nil {
		f.abort()
		return f.stall(), 0, err
	}

	// Migrate the old worker's keyed state onto fresh replica instances.
	presets := make([]operators.Operator, m)
	moved := 0
	if proto, ok := e.binding.Ops[op]; ok && proto != nil {
		for r := range presets {
			presets[r] = proto.Clone()
		}
		moved = migrateKeys(f, wctl.inst, presets, asg.Replica)
	}

	retireStation(f, nt, w)
	e.live.Store(nt)
	e.spawnStation(emitter, c.seeds.Uint64(), nil, nil)
	for r, wid := range workers {
		e.spawnStation(wid, c.seeds.Uint64(), presets[r], nil)
	}
	e.spawnStation(collector, c.seeds.Uint64(), nil, nil)
	wctl.resume(true)
	for _, ctl := range f.paused {
		if ctl != wctl {
			ctl.resume(false)
		}
	}
	stall := f.stall()
	if int(op) < len(c.replicas) {
		c.replicas[op] = m
	}
	return stall, moved, nil
}

// rescale changes the replica count of an already-expanded operator from
// n to m, reusing the first min(n, m) worker stations and migrating only
// the keys whose owner changed.
func (c *Controller) rescale(op core.OpID, m int) (time.Duration, int, error) {
	e := c.e
	tb := e.tab()
	entry := tb.p.EntryOf[op]
	collector := tb.p.CollectorOf[op]
	oldWorkers := append([]plan.StationID(nil), tb.p.WorkersOf[op]...)
	n := len(oldWorkers)
	est := tb.p.Stations[entry]
	freq := est.KeyFreq
	keyed := len(freq) > 0
	var asg keypart.Assignment
	if keyed {
		var err error
		asg, err = c.part.Partition(freq, m)
		if err != nil {
			return 0, 0, err
		}
		m = asg.Replicas
	}
	if m == n {
		return 0, 0, nil
	}
	keep := n
	if m < n {
		keep = m
	}
	opName := strings.TrimSuffix(est.Name, "/emitter")

	f := c.newFence()
	// The emitter is the workers' only producer: pause it first (its own
	// producers keep running against its mailbox), then drain the workers.
	_, err := f.pause(entry, false)
	if err != nil {
		f.abort()
		return f.stall(), 0, err
	}
	wctls := make([]*stationCtl, n)
	for i, wid := range oldWorkers {
		if wctls[i], err = f.pause(wid, true); err != nil {
			f.abort()
			return f.stall(), 0, err
		}
	}

	nt := cloneTables(tb)
	newWorkers := append([]plan.StationID(nil), oldWorkers[:keep]...)
	for r := n; r < m; r++ {
		wid := addStation(f, nt, plan.Station{
			Name: fmt.Sprintf("%s/replica%d", opName, r), Role: plan.RoleWorker, Op: op, Replica: r,
			ServiceTime: est.ServiceTime, Gain: 1,
			Discipline: plan.Probabilistic,
			Out:        []plan.Edge{{To: collector, Prob: 1}},
		})
		newWorkers = append(newWorkers, wid)
	}
	if len(oldWorkers) > 0 {
		// New replicas mirror the surviving workers, not the emitter.
		src := nt.p.Stations[oldWorkers[0]]
		for _, wid := range newWorkers[keep:] {
			st := &nt.p.Stations[wid]
			st.ServiceTime = src.ServiceTime
			st.Gain = src.Gain
			st.InputSelectivity = src.InputSelectivity
			st.OutputSelectivity = src.OutputSelectivity
		}
	}
	nest := &nt.p.Stations[entry]
	nest.Out = make([]plan.Edge, len(newWorkers))
	for r, wid := range newWorkers {
		share := 1 / float64(m)
		if keyed && r < len(asg.Load) {
			share = asg.Load[r]
		}
		nest.Out[r] = plan.Edge{To: wid, Prob: share}
	}
	nest.KeyReplica = append([]int(nil), asg.Replica...)
	nt.p.WorkersOf[op] = newWorkers
	added := append([]plan.StationID(nil), newWorkers[keep:]...)
	demoted, extraRewired, fanIn, err := c.demoteTransports(f, nt, oldWorkers[keep:])
	if err != nil {
		f.abort()
		return f.stall(), 0, err
	}
	c.noteDemoted(demoted)
	rewired := append([]plan.StationID{entry}, extraRewired...)
	if err := c.finishTables(f, nt, added, rewired, fanIn); err != nil {
		f.abort()
		return f.stall(), 0, err
	}

	// Destinations per new replica slot: surviving instances in place,
	// fresh clones for added slots. Only keys whose owner changed move.
	moved := 0
	dests := make([]operators.Operator, m)
	for r := 0; r < keep; r++ {
		dests[r] = wctls[r].inst
	}
	presets := make([]operators.Operator, len(newWorkers))
	if proto, ok := e.binding.Ops[op]; ok && proto != nil {
		for r := keep; r < m; r++ {
			inst := proto.Clone()
			dests[r] = inst
			presets[r] = inst
		}
	}
	if keyed {
		for i := 0; i < n; i++ {
			src, ok := wctls[i].inst.(operators.KeyedState)
			if !ok {
				continue
			}
			for _, k := range src.StateKeys() {
				nd := asg.Replica[int(k)%len(asg.Replica)]
				if nd == i && i < keep {
					continue
				}
				dst, ok := dests[nd].(operators.KeyedState)
				if !ok {
					continue
				}
				if v := src.ExportKey(k); v != nil {
					dst.ImportKey(k, v)
					moved++
				}
			}
		}
	}

	for _, wid := range oldWorkers[keep:] {
		retireStation(f, nt, wid)
	}
	e.live.Store(nt)
	for r := keep; r < len(newWorkers); r++ {
		e.spawnStation(newWorkers[r], c.seeds.Uint64(), presets[r], nil)
	}
	// Release the whole fence — emitter, workers (retiring the dropped
	// ones), and any station demoteTransports pulled in.
	retiree := make(map[*stationCtl]bool, n-keep)
	for i := keep; i < n; i++ {
		retiree[wctls[i]] = true
	}
	for _, ctl := range f.paused {
		ctl.resume(retiree[ctl])
	}
	stall := f.stall()
	if int(op) < len(c.replicas) {
		c.replicas[op] = m
	}
	return stall, moved, nil
}

// applyUnfuse splits a fused station back into one station per member
// sub-operator, handing each member its live instance from the paused
// meta-operator so accumulated state survives the split. Known
// limitation: the per-operator departure rate of an unfused operator
// sums all member stations, so internal member-to-member traffic is
// counted (vet's drift replay tolerates this via the operator's gain).
func (c *Controller) applyUnfuse(u opt.FusionUndo) (time.Duration, error) {
	id, ok := c.topo.Lookup(u.Operator)
	if !ok {
		return 0, fmt.Errorf("unknown operator")
	}
	var meta *MetaOperator
	if c.e.binding.Meta != nil {
		meta = c.e.binding.Meta[id]
	}
	if meta == nil {
		return 0, fmt.Errorf("operator has no meta-operator binding")
	}
	tb := c.e.tab()
	if int(id) >= len(tb.p.EntryOf) || tb.p.EntryOf[id] < 0 {
		return 0, fmt.Errorf("operator has no station in the plan")
	}
	w := tb.p.EntryOf[id]
	if tb.p.CollectorOf[id] >= 0 || len(tb.p.WorkersOf[id]) != 1 || tb.p.Stations[w].Member > 0 {
		return 0, fmt.Errorf("operator is not a single fused station")
	}
	wst := tb.p.Stations[w]
	order, err := topoIndex(tb.p)
	if err != nil {
		return 0, err
	}
	f := c.newFence()
	for _, pid := range producersOf(tb, w, order) {
		if _, err := f.pause(pid, false); err != nil {
			f.abort()
			return f.stall(), err
		}
	}
	wctl, err := f.pause(w, true)
	if err != nil {
		f.abort()
		return f.stall(), err
	}
	minst := wctl.minst
	if minst == nil {
		// The station never bound (or degraded): members start fresh.
		minst = meta.instance(c.e.cfg)
	}

	nt := cloneTables(tb)
	sub := meta.Sub
	stationOf := make(map[core.OpID]plan.StationID, len(meta.Members))
	memberIDs := make([]plan.StationID, 0, len(meta.Members))
	for _, v := range meta.Members {
		sop := sub.Op(v)
		sid := addStation(f, nt, plan.Station{
			Name: wst.Name + "/" + sop.Name, Role: plan.RoleWorker, Op: id,
			Member:      int(v) + 1,
			ServiceTime: sop.ServiceTime, Gain: sop.Gain(),
			InputSelectivity:  sop.InputSelectivity,
			OutputSelectivity: sop.OutputSelectivity,
			Discipline:        plan.Probabilistic,
		})
		stationOf[v] = sid
		memberIDs = append(memberIDs, sid)
	}
	for _, v := range meta.Members {
		st := &nt.p.Stations[stationOf[v]]
		for _, se := range sub.Out(v) {
			if mid, ok := stationOf[se.To]; ok {
				st.Out = append(st.Out, plan.Edge{To: mid, Prob: se.Prob})
				continue
			}
			survivor, ok := meta.SurvivorIDs[se.To]
			if !ok {
				continue
			}
			target := nt.p.EntryOf[survivor]
			port := 0
			for _, we := range wst.Out {
				if we.To == target {
					port = we.Port
					break
				}
			}
			st.Out = append(st.Out, plan.Edge{To: target, Prob: se.Prob, Port: port})
		}
	}
	front := stationOf[meta.Front]
	nt.p.EntryOf[id] = front
	nt.p.WorkersOf[id] = memberIDs
	rewired := retargetEdges(f, nt, w, front)
	demoted, extraRewired, fanIn, err := c.demoteTransports(f, nt, []plan.StationID{w})
	if err != nil {
		f.abort()
		return f.stall(), err
	}
	c.noteDemoted(demoted)
	rewired = append(rewired, extraRewired...)
	if err := c.finishTables(f, nt, memberIDs, rewired, fanIn); err != nil {
		f.abort()
		return f.stall(), err
	}

	retireStation(f, nt, w)
	c.e.live.Store(nt)
	for _, v := range meta.Members {
		c.e.spawnStation(stationOf[v], c.seeds.Uint64(), minst.ops[v], nil)
	}
	wctl.resume(true)
	for _, ctl := range f.paused {
		if ctl != wctl {
			ctl.resume(false)
		}
	}
	return f.stall(), nil
}

// migrateKeys moves every keyed entry of src onto the destination chosen
// by the key->replica assignment; it reports how many keys moved. The
// fence is the capability proving src's station is paused and drained —
// exporting keys from a running operator would race its own updates.
// (Unit tests exercising the bare data movement may pass nil.)
func migrateKeys(f *fence, src operators.Operator, dests []operators.Operator, assignment []int) int {
	_ = f // capability only: callers must hold the change's fence
	ks, ok := src.(operators.KeyedState)
	if !ok || len(assignment) == 0 {
		return 0
	}
	moved := 0
	for _, k := range ks.StateKeys() {
		r := assignment[int(k)%len(assignment)]
		if r < 0 || r >= len(dests) {
			continue
		}
		dst, ok := dests[r].(operators.KeyedState)
		if !ok {
			continue
		}
		if v := ks.ExportKey(k); v != nil {
			dst.ImportKey(k, v)
			moved++
		}
	}
	return moved
}
