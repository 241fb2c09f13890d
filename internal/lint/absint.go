package lint

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/plan"
)

// Bounded-queue abstract interpretation over the physical plan: the
// SS3xxx family. The fluid solver (SS11xx) models unbounded queues, so a
// topology can converge on paper and still wedge under the runtime's
// bounded mailboxes with BAS blocking — any saturated station inside a
// feedback loop eventually propagates back-pressure all the way around
// the loop, and a loop blocked on itself never drains. These checks run
// the plan as a fluid network of finite queues and inspect the fixpoint:
//
//   - SS3001: a waits-on cycle at the fixpoint — stations of a feedback
//     loop all throttled by full mailboxes owned by the same loop;
//   - SS3002: an inbox whose capacity fills before a declared burst
//     envelope ends, pushing back-pressure into its producers mid-burst.

// defaultMailboxCapacity mirrors runtime.Config.MailboxSize's default.
const defaultMailboxCapacity = 64

func (cfg Config) mailboxCapacity() int {
	if cfg.MailboxCapacity > 0 {
		return cfg.MailboxCapacity
	}
	return defaultMailboxCapacity
}

// planChecks expands the deployed plan and runs the bounded-queue
// analyses that need physical structure: blocking-cycle detection
// (SS3001) on cyclic plans and burst-capacity feasibility (SS3002) when
// a burst envelope is declared. Structural errors are someone else's
// diagnostics; the expansion failing silently defers to them.
func planChecks(rep *Report, t *core.Topology, cfg Config) {
	cyclic := false
	if _, err := t.TopologicalOrder(); err != nil {
		cyclic = true
	}
	burst := cfg.BurstFactor > 1 && cfg.BurstSeconds > 0
	if !cyclic && !burst {
		return
	}
	p, err := plan.Build(t, plan.Options{Replicas: cfg.Replicas, AllowCycles: cfg.AllowCycles})
	if err != nil {
		return
	}
	if cyclic {
		// A divergent loop (SS1101) wedges a fortiori; the bounded-queue
		// finding would only restate it.
		for _, d := range rep.Diagnostics {
			if d.Code == CodeNonConvergent {
				return
			}
		}
		checkBlockingCycles(rep, t, p, cfg)
	} else if burst {
		checkBurstCapacity(rep, t, p, cfg)
	}
}

// VerifyPlan runs only the plan-level SS3xxx checks against a topology
// and its deployed configuration. The optimizer pipeline calls it as a
// post-pass on the rewritten topology: the pre-pass vets the input, this
// vets the plan the rewrites produced.
func VerifyPlan(t *core.Topology, cfg Config) *Report {
	rep := &Report{File: cfg.File}
	planChecks(rep, t, cfg)
	return rep
}

// fluid is the abstract state of the bounded-queue interpretation: one
// finite fluid queue per station, service as rate mu, routing as
// gain-weighted flow along plan edges, and BAS back-pressure as
// proportional throttling of the producers of any queue that would
// overfill.
type fluid struct {
	p         *plan.Plan
	cap       float64   // mailbox capacity C, in tuples
	mu        []float64 // service rate per station (items/s)
	q         []float64 // queue depth per station, in [0, C]
	producers [][]plan.StationID
}

func newFluid(p *plan.Plan, capacity int) *fluid {
	f := &fluid{
		p:   p,
		cap: float64(capacity),
		mu:  make([]float64, len(p.Stations)),
		q:   make([]float64, len(p.Stations)),
	}
	for i := range p.Stations {
		st := &p.Stations[i]
		if st.ServiceTime > 0 {
			f.mu[i] = 1 / st.ServiceTime
		}
	}
	in := plan.FanIn(p)
	f.producers = make([][]plan.StationID, len(in))
	copy(f.producers, in)
	return f
}

// step advances the fluid state by dt: each station asks to serve
// want = mu*dt (sources) or min(q, mu*dt), then a few relaxation rounds
// scale down the producers of any queue that would exceed capacity —
// the fluid image of a blocked BAS send stalling the whole sequential
// station loop. It returns the realized service.
func (f *fluid) step(dt float64) (serve []float64) {
	n := len(f.p.Stations)
	serve = make([]float64, n)
	for i := range f.p.Stations {
		want := f.mu[i] * dt
		if f.p.Stations[i].Role != plan.RoleSource {
			want = math.Min(f.q[i], want)
		}
		serve[i] = want
	}
	inflow := make([]float64, n)
	for round := 0; round < 8; round++ {
		for j := range inflow {
			inflow[j] = 0
		}
		for i := range f.p.Stations {
			st := &f.p.Stations[i]
			out := serve[i] * st.Gain
			for _, e := range st.Out {
				inflow[e.To] += out * e.Prob
			}
		}
		changed := false
		for j := 0; j < n; j++ {
			if f.p.Stations[j].Role == plan.RoleSource {
				continue
			}
			space := f.cap - f.q[j] + serve[j]
			if space < 0 {
				space = 0
			}
			if inflow[j] <= space*(1+1e-12)+1e-15 {
				continue
			}
			factor := 0.0
			if inflow[j] > 0 {
				factor = space / inflow[j]
			}
			for _, i := range f.producers[j] {
				if serve[i] == 0 {
					continue
				}
				serve[i] *= factor
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for j := range inflow {
		inflow[j] = 0
	}
	for i := range f.p.Stations {
		st := &f.p.Stations[i]
		out := serve[i] * st.Gain
		for _, e := range st.Out {
			inflow[e.To] += out * e.Prob
		}
	}
	for i := 0; i < n; i++ {
		if f.p.Stations[i].Role == plan.RoleSource {
			continue
		}
		f.q[i] += inflow[i] - serve[i]
		if f.q[i] < 0 {
			f.q[i] = 0
		}
		if f.q[i] > f.cap {
			f.q[i] = f.cap
		}
	}
	return serve
}

// checkBlockingCycles interprets a cyclic plan to its bounded-queue
// fixpoint and reports SS3001 for every feedback loop operating against
// a full mailbox of its own: a full inbox inside a cycle blocks, among
// its producers, the loop's own predecessor, so under the runtime's
// blocking BAS semantics the loop wedges as soon as slot scheduling runs
// against it for longer than one mailbox of slack. The fluid solver does
// not see this — its source correction keeps cyclic traffic convergent
// no matter how saturated a loop member is, and the fluid fixpoint here
// models the *fairest* possible slot sharing; a full loop mailbox even
// under fair sharing means the deployment has no safety margin at all.
func checkBlockingCycles(rep *Report, t *core.Topology, p *plan.Plan, cfg Config) {
	f := newFluid(p, cfg.mailboxCapacity())
	maxMu := 0.0
	for _, mu := range f.mu {
		maxMu = math.Max(maxMu, mu)
	}
	if maxMu <= 0 {
		return
	}
	dt := f.cap / (4 * maxMu)

	prev := make([]float64, len(f.q))
	settled := 0
	const maxSteps = 20000
	for s := 0; s < maxSteps; s++ {
		copy(prev, f.q)
		f.step(dt)
		delta := 0.0
		for i := range f.q {
			delta = math.Max(delta, math.Abs(f.q[i]-prev[i]))
		}
		if delta < 1e-9*f.cap {
			settled++
			if settled >= 10 {
				break
			}
		} else {
			settled = 0
		}
	}

	full := func(j plan.StationID) bool { return f.q[j] >= 0.99*f.cap }
	for _, scc := range stronglyConnected(p) {
		var fullMembers []string
		for _, id := range scc {
			if full(id) {
				fullMembers = append(fullMembers, fmt.Sprintf("%q", p.Stations[id].Name))
			}
		}
		if len(fullMembers) == 0 {
			continue
		}
		names := make([]string, len(scc))
		for i, id := range scc {
			names[i] = p.Stations[id].Name
		}
		op := t.Op(p.Stations[scc[0]].Op)
		rep.add(Diagnostic{Code: CodeBlockingCycle, Operator: op.Name,
			Message: fmt.Sprintf("bounded-queue interpretation (capacity %d) wedges the feedback loop %s: the mailbox of %s is full at the fixpoint, so BAS back-pressure blocks the loop's own upstream and the cycle deadlocks once scheduling runs against it; the fluid steady state converges regardless",
				cfg.mailboxCapacity(), strings.Join(names, " -> "), strings.Join(fullMembers, ", "))})
	}
}

// stronglyConnected returns the nontrivial strongly connected components
// of the plan's station graph (size >= 2, or a self-loop), each in
// ascending station order, components ordered by their smallest member.
// Tarjan's algorithm, iterated in index order, already yields
// deterministic output.
func stronglyConnected(p *plan.Plan) [][]plan.StationID {
	n := len(p.Stations)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]plan.StationID
	next := 0
	var visit func(int)
	visit = func(u int) {
		index[u] = next
		low[u] = next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, e := range p.Stations[u].Out {
			v := int(e.To)
			if index[v] < 0 {
				visit(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
			} else if onStack[v] && index[v] < low[u] {
				low[u] = index[v]
			}
		}
		if low[u] != index[u] {
			return
		}
		var comp []plan.StationID
		for {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[v] = false
			comp = append(comp, plan.StationID(v))
			if v == u {
				break
			}
		}
		if len(comp) == 1 {
			self := false
			for _, e := range p.Stations[comp[0]].Out {
				if e.To == comp[0] {
					self = true
				}
			}
			if !self {
				return
			}
		}
		sort.Slice(comp, func(a, b int) bool { return comp[a] < comp[b] })
		comps = append(comps, comp)
	}
	for u := 0; u < n; u++ {
		if index[u] < 0 {
			visit(u)
		}
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// checkBurstCapacity propagates the declared burst envelope through an
// acyclic plan and reports SS3002 for every fed inbox that fills before
// the burst ends: capacity / excess-rate < burst-seconds means
// back-pressure reaches its producers mid-burst. BAS capacity binds an
// inbox the same way whatever its producer count, so a collector behind
// replicas or a join input is checked like a pipeline stage.
func checkBurstCapacity(rep *Report, t *core.Topology, p *plan.Plan, cfg Config) {
	order, ok := p.TopologicalOrder()
	if !ok {
		return
	}
	steady := propagate(p, order, 1)
	burst := propagate(p, order, cfg.BurstFactor)
	in := plan.FanIn(p)
	capacity := float64(cfg.mailboxCapacity())
	for _, i := range order {
		st := &p.Stations[i]
		if st.Role == plan.RoleSource || len(in[i]) == 0 {
			continue
		}
		mu := 0.0
		if st.ServiceTime > 0 {
			mu = 1 / st.ServiceTime
		}
		if steady[i] >= mu {
			continue // saturated before any burst: SS1102's territory
		}
		excess := burst[i] - mu
		if excess <= 0 {
			continue
		}
		fill := capacity / excess
		if fill >= cfg.BurstSeconds {
			continue
		}
		need := int(math.Ceil(excess * cfg.BurstSeconds))
		op := t.Op(st.Op)
		rep.add(Diagnostic{Code: CodeBurstCapacity, Operator: op.Name,
			Message: fmt.Sprintf("inbox of %q (capacity %d) fills in %.2fs under a %.1fx burst of %.1fs: burst arrivals %.1f/s exceed service %.1f/s; size the mailbox to >= %d or accept BAS throttling mid-burst",
				st.Name, cfg.mailboxCapacity(), fill, cfg.BurstFactor, cfg.BurstSeconds, burst[i], mu, need)})
	}
}

// propagate pushes source rate x factor through the plan in topological
// order with service capping: each station forwards min(arrivals, mu) x
// gain along its weighted out-edges. The result is each station's
// arrival rate during a sustained burst of that factor.
func propagate(p *plan.Plan, order []plan.StationID, factor float64) []float64 {
	arrive := make([]float64, len(p.Stations))
	for _, i := range order {
		st := &p.Stations[i]
		rate := arrive[i]
		if st.Role == plan.RoleSource {
			if st.ServiceTime > 0 {
				rate = factor / st.ServiceTime
			}
		} else if st.ServiceTime > 0 {
			rate = math.Min(rate, 1/st.ServiceTime)
		}
		out := rate * st.Gain
		for _, e := range st.Out {
			arrive[e.To] += out * e.Prob
		}
	}
	return arrive
}
