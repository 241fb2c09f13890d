package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
// back into its members — without restarting the topology. Every change
// is one plan diff applied by one fenced procedure (applyDiff).
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
	seeds  *stats.RNG
	// win is the current measurement window.
	win measureWindow
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
	// An operator's degree is its worker count in the plan, which already
	// reflects any keyed fission the planner consolidated.
	c.replicas = make([]int, t.Len())
	for i := range c.replicas {
		c.replicas[i] = len(p.WorkersOf[i])
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
	c.win = c.e.beginWindow()
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
	win := c.win
	c.mu.Unlock()
	return c.e.stop(win), nil
}

// ApplyDelta applies a re-optimization delta to the running topology.
// Each replica change and fusion undo is first rewritten as a plan diff
// (rescaleDiff, unfuseDiff) and then applied by applyDiff under its own
// epoch fence: pause the affected stations, rebuild the routing tables
// copy-on-write, hand keyed state over, swap, release. Tuples keep
// flowing through every unaffected station. Changes apply sequentially in
// deterministic (name-sorted) order, rescales before undos; on error the
// already-applied prefix stays applied and the failing change's fence is
// fully released, so the topology is always left running.
func (c *Controller) ApplyDelta(d *opt.DeltaPlan) (*ApplyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || c.e.isShutdown() {
		return nil, errors.New("runtime: controller is stopped")
	}
	rep := &ApplyReport{}
	defer func() { rep.Epoch = c.e.tab().epoch }()
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
		dd, err := c.rescaleChange(ch)
		if err == nil {
			err = c.apply(rep, dd)
		}
		if err != nil {
			return rep, fmt.Errorf("runtime: rescale %q: %w", ch.Operator, err)
		}
		if dd.next != nil {
			c.replicas[dd.op] = len(dd.next.WorkersOf[dd.op])
		}
		rep.Rescaled++
	}
	for _, u := range undos {
		dd, err := c.unfuseChange(u)
		if err == nil {
			err = c.apply(rep, dd)
		}
		if err != nil {
			return rep, fmt.Errorf("runtime: unfuse %q: %w", u.Operator, err)
		}
		rep.Unfused++
	}
	return rep, nil
}

// apply runs one change's diff under a fresh fence and folds its outcome
// into rep; a diff with nothing to change applies trivially.
func (c *Controller) apply(rep *ApplyReport, d diff) error {
	if d.next == nil {
		return nil
	}
	r, err := c.applyDiff(c.newFence(), d)
	if r.Stall > 0 {
		c.stalls = append(c.stalls, r.Stall)
		rep.Stall = max(rep.Stall, r.Stall)
	}
	rep.MigratedKeys += r.MigratedKeys
	rep.Demoted += r.Demoted
	return err
}

// rescaleChange validates one replica change against the live plan and
// rewrites it as a diff.
func (c *Controller) rescaleChange(ch opt.ReplicaChange) (diff, error) {
	id, ok := c.topo.Lookup(ch.Operator)
	if !ok {
		return diff{}, errors.New("unknown operator")
	}
	op := c.topo.Op(id)
	if ch.To < 1 {
		return diff{}, fmt.Errorf("replica degree %d out of range", ch.To)
	}
	p := c.e.tab().p
	if int(id) >= len(p.EntryOf) || p.EntryOf[id] < 0 {
		return diff{}, errors.New("operator has no station in the plan")
	}
	if p.Stations[p.EntryOf[id]].Role == plan.RoleSource {
		return diff{}, errors.New("the source cannot be rescaled")
	}
	if ch.To > 1 && !op.Kind.CanReplicate() {
		return diff{}, fmt.Errorf("operator kind %s cannot be replicated", op.Kind)
	}
	return rescaleDiff(p, plan.Unreplicated(id, op), ch.To, c.part)
}

// unfuseChange validates one fusion undo against the live plan and the
// binding, and rewrites it as a diff. Known limitation: the per-operator
// departure rate of an unfused operator sums all member stations, so
// internal member-to-member traffic is counted (vet's drift replay
// tolerates this via the operator's gain).
func (c *Controller) unfuseChange(u opt.FusionUndo) (diff, error) {
	id, ok := c.topo.Lookup(u.Operator)
	if !ok {
		return diff{}, errors.New("unknown operator")
	}
	meta := c.e.binding.Meta[id]
	if meta == nil {
		return diff{}, errors.New("operator has no meta-operator binding")
	}
	p := c.e.tab().p
	if int(id) >= len(p.EntryOf) || p.EntryOf[id] < 0 {
		return diff{}, errors.New("operator has no station in the plan")
	}
	return unfuseDiff(p, id, meta)
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

// cloneTables copies the routing tables for a new epoch that runs plan
// next. Slices are copied one level deep; stations the change does not
// touch keep their mailbox, sender-row and counter-cell pointers, which
// is what makes stale reads by unaffected stations safe.
func cloneTables(tb *tables, next *plan.Plan) *tables {
	return &tables{
		epoch:     tb.epoch + 1,
		p:         next,
		mailboxes: append([]*mailbox.Mailbox[operators.Tuple](nil), tb.mailboxes...),
		senders:   append([][]*mailbox.Sender[operators.Tuple](nil), tb.senders...),
		st:        append([]*obs.Station(nil), tb.st...),
		stFaults:  append([]*faultinject.StationFaults(nil), tb.stFaults...),
		retired:   append([]bool(nil), tb.retired...),
	}
}

// quiesced lists the stations of p, live under the retired mask, that
// applyDiff parks without draining before it drains d.drained: the
// producers of every drained station and every rewired station.
func quiesced(p *plan.Plan, retired []bool, d diff) []plan.StationID {
	var hold []plan.StationID
	for i := range p.Stations {
		id := plan.StationID(i)
		if retired[i] || slices.Contains(d.drained, id) {
			continue
		}
		feeds := slices.Contains(d.rewired, id)
		for _, ed := range p.Stations[i].Out {
			feeds = feeds || slices.Contains(d.drained, ed.To)
		}
		if feeds {
			hold = append(hold, id)
		}
	}
	return hold
}

// applyDiff applies one diff under fence f. Every live change runs this
// one sequence; the rewrites differ only in which lists are empty.
//
//  1. Pause, without draining and in topological order, the live
//     producers of every drained station and every rewired station; then
//     drain-pause the drained stations, also in topological order.
//  2. Clone the tables and install d.next.
//  3. Demote the inboxes d.next makes multi-producer (demoteTransports).
//  4. Allocate the added stations and rebind the sender rows of every
//     station whose out-edges or their targets' inboxes changed.
//  5. Hand state over: an added worker gets a fresh clone of the
//     operator — a member station, that member of the drained
//     meta-instance — and then every key a drained station holds moves to
//     its owner under d.keys unless the owner is the station itself.
//  6. Retire, publish the tables, spawn the added stations, and release
//     the fence, retiring the retired stations.
//
// On error the fence is released unchanged and the old epoch keeps
// running. The report carries the fence stall, the keys moved and the
// inboxes demoted.
func (c *Controller) applyDiff(f *fence, d diff) (ApplyReport, error) {
	e := c.e
	tb := e.tab()
	fail := func(err error) (ApplyReport, error) {
		f.abort()
		return ApplyReport{Stall: f.stall()}, err
	}
	order, err := topoIndex(tb.p)
	if err != nil {
		return fail(err)
	}
	// A paused producer only ever blocks sending to stations later in the
	// order, which are still running when it is paused, so the sequential
	// pauses cannot deadlock.
	hold := quiesced(tb.p, tb.retired, d)
	byOrder := func(ids []plan.StationID) []plan.StationID {
		sort.SliceStable(ids, func(a, b int) bool { return order[ids[a]] < order[ids[b]] })
		return ids
	}
	for _, id := range byOrder(hold) {
		if _, err := f.pause(id, false); err != nil {
			return fail(err)
		}
	}
	for _, id := range byOrder(slices.Clone(d.drained)) {
		if _, err := f.pause(id, true); err != nil {
			return fail(err)
		}
	}

	nt := cloneTables(tb, d.next)
	demoted, extra, fanIn, err := c.demoteTransports(f, nt, d.retired)
	if err != nil {
		return fail(err)
	}
	rows, err := e.allocStations(d.next, nt.mailboxes, fanIn)
	if err != nil {
		return fail(err)
	}
	nt.mailboxes = append(nt.mailboxes, rows.mailboxes...)
	nt.senders = append(nt.senders, rows.senders...)
	nt.st = append(nt.st, rows.st...)
	nt.stFaults = append(nt.stFaults, rows.stFaults...)
	nt.retired = append(nt.retired, rows.retired...)
	for _, id := range slices.Concat(d.rewired, extra) {
		nt.senders[id] = e.senderRow(nt.mailboxes, &d.next.Stations[id])
	}

	rep := ApplyReport{Demoted: len(demoted)}
	var members *metaInstance
	for _, id := range d.drained {
		if mi := f.pausedID[id].minst; mi != nil {
			members = mi
		}
	}
	proto := e.binding.Ops[d.op]
	presets := make(map[plan.StationID]operators.Operator, len(d.added))
	for _, id := range d.added {
		switch st := &d.next.Stations[id]; {
		case st.Member > 0 && members != nil:
			presets[id] = members.ops[core.OpID(st.Member-1)]
		case st.Member == 0 && st.Role == plan.RoleWorker && proto != nil:
			presets[id] = proto.Clone()
		}
	}
	slots := d.next.WorkersOf[d.op]
	owners := make([]operators.Operator, len(slots))
	for r, id := range slots {
		owners[r] = presets[id]
		if ctl := f.pausedID[id]; ctl != nil {
			owners[r] = ctl.inst
		}
	}
	for _, id := range d.drained {
		rep.MigratedKeys += migrateKeys(f, f.pausedID[id].inst, slices.Index(slots, id), owners, d.keys)
	}

	retire := make(map[*stationCtl]bool, len(d.retired))
	for _, id := range d.retired {
		nt.retired[id] = true
		nt.st[id].Retired.Store(true)
		retire[f.pausedID[id]] = true
	}
	e.live.Store(nt)
	for _, id := range d.added {
		e.spawnStation(id, c.seeds.Uint64(), presets[id], nil)
	}
	for _, ctl := range f.paused {
		ctl.resume(retire[ctl])
	}
	rep.Stall = f.stall()
	return rep, nil
}

// demoteTransports re-derives the per-inbox transports for the new epoch
// and swaps every proven-SPSC inbox the rewritten plan makes
// multi-producer onto the batched MPSC path, inside the change's fence.
// The demotion target's producers are all inside the fence already: its
// old single producer is being retired (or is paused), and any new
// producers are added stations that have not spawned yet — so a
// drain-pause of the target empties the ring exactly, and the swap
// conserves every admitted tuple. It runs before the added stations are
// allocated so their sender rows bind to the replacement mailbox; it
// returns the demoted targets, the live pre-existing producers whose
// sender rows must be rebuilt against the new mailbox, and the
// retiring-masked fan-in vector the added inboxes are sized with. Rings
// are never promoted back (a rescale to degree 1 keeps the batched
// path), which keeps every fence local to the operator being changed.
func (c *Controller) demoteTransports(f *fence, nt *tables, retiring []plan.StationID) (demoted, rewired []plan.StationID, fanIn []int, err error) {
	// nt.retired does not yet cover the added stations (they are
	// allocated later); extend the mask to the rewritten plan.
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
		if f.pausedID[target] != nil {
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
			if retired[j] || c.e.ctl(plan.StationID(j)) == nil || f.pausedID[plan.StationID(j)] != nil {
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

// migrateKeys moves every keyed entry of src onto the destination the
// key->replica assignment chooses, except keys whose owner is src's own
// slot self (-1 when src owns none); it reports how many keys moved. The
// fence is the capability proving src's station is paused and drained —
// exporting keys from a running operator would race its own updates.
// (Unit tests exercising the bare data movement may pass nil.)
func migrateKeys(f *fence, src operators.Operator, self int, dests []operators.Operator, assignment []int) int {
	_ = f // capability only: callers must hold the change's fence
	ks, ok := src.(operators.KeyedState)
	if !ok || len(assignment) == 0 {
		return 0
	}
	moved := 0
	for _, k := range ks.StateKeys() {
		r := assignment[int(k)%len(assignment)]
		if r == self || r < 0 || r >= len(dests) {
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
