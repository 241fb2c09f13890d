package runtime

import (
	"errors"
	"slices"

	"spinstreams/internal/core"
	"spinstreams/internal/keypart"
	"spinstreams/internal/plan"
)

// diff is one live change as a pure plan rewrite: everything applyDiff
// needs to know, computed from the current plan alone — no goroutines,
// fence or tables — so the planner-parity and property tests can check a
// rewrite without running anything.
type diff struct {
	// op is the logical operator the change restructures.
	op core.OpID
	// next is the rewritten plan: a clone of the current one with stations
	// appended and edges retargeted. Nil means there is nothing to change.
	// An added station with Member set takes over that member of the
	// drained meta-instance.
	next *plan.Plan
	// added lists the appended stations in ID order.
	added []plan.StationID
	// retired lists the stations next no longer routes through.
	retired []plan.StationID
	// drained lists the stations whose inboxes the fence empties before
	// the swap: every retiring station, plus surviving workers whose keyed
	// state may move.
	drained []plan.StationID
	// rewired lists the stations whose out-edges next changed.
	rewired []plan.StationID
	// keys is op's key -> replica-slot assignment in next, slot r being
	// next.WorkersOf[op][r]; nil when no keyed state moves.
	keys []int
}

// add appends s to next as a new station.
func (d *diff) add(s plan.Station) plan.StationID {
	s.ID = plan.StationID(len(d.next.Stations))
	d.next.Stations = append(d.next.Stations, s)
	d.added = append(d.added, s.ID)
	return s.ID
}

// deployDiff is the deployment as a diff from the empty plan: next is p,
// and every station of p is added.
func deployDiff(p *plan.Plan) diff {
	d := diff{next: p, added: make([]plan.StationID, len(p.Stations))}
	for i := range d.added {
		d.added[i] = plan.StationID(i)
	}
	return d
}

// rescaleDiff re-lays operator w.Op over `to` replicas of w, its
// unreplicated station (fewer when keypart consolidates the key load), as
// the scaffold plan.Fission builds. The stations p already has for that
// scaffold — emitter, collector, the first replicas — keep their IDs, the
// rest are appended, and surplus replicas retire. An unreplicated
// operator has none of them, so its worker retires and a whole scaffold
// takes over its edges: the 1 -> m expand is the same rewrite. A scaffold
// never collapses back to a plain worker (degree 1 keeps emitter and
// collector around one replica), a documented deviation that keeps the
// fence local to one operator.
func rescaleDiff(p *plan.Plan, w plan.Station, to int, part keypart.Partitioner) (diff, error) {
	op := w.Op
	asg := keypart.Assignment{Replicas: to}
	if len(w.KeyFreq) > 0 {
		var err error
		if asg, err = part.Partition(w.KeyFreq, to); err != nil {
			return diff{}, err
		}
	}
	old, entry := p.WorkersOf[op], p.EntryOf[op]
	scaffold := p.CollectorOf[op] >= 0
	// At an unchanged degree a new key assignment still moves keys.
	if scaffold && asg.Replicas == len(old) && slices.Equal(asg.Replica, p.Stations[entry].KeyReplica) ||
		!scaffold && asg.Replicas < 2 {
		return diff{}, nil
	}
	d := diff{op: op, next: clonePlan(p), keys: asg.Replica}
	lay := plan.Fission(w, asg, plan.DefaultEmitterServiceTime)
	last := len(lay) - 1
	// at[i] is the station layout position i lands on, -1 until placed.
	at := make([]plan.StationID, len(lay))
	for i := range at {
		at[i] = -1
	}
	if scaffold {
		keep := min(len(old), asg.Replicas)
		at[0], at[last] = entry, p.CollectorOf[op]
		copy(at[1:], old[:keep])
		d.retired = old[keep:]
		d.rewired = []plan.StationID{entry}
	} else {
		d.retired = []plan.StationID{entry}
	}
	d.drained = d.retired
	if scaffold && len(d.keys) > 0 {
		d.drained = old
	}
	for i := range lay {
		if at[i] < 0 {
			at[i] = d.add(lay[i])
		}
	}
	// The emitter and the added stations take the layout's links; kept
	// replicas and a kept collector already have them.
	for i := range lay {
		if i > 0 && int(at[i]) < len(p.Stations) {
			continue
		}
		st := &d.next.Stations[at[i]]
		st.Out = make([]plan.Edge, len(lay[i].Out))
		for j, e := range lay[i].Out {
			st.Out[j] = plan.Edge{To: at[e.To], Prob: e.Prob}
		}
	}
	d.next.Stations[at[0]].KeyReplica = lay[0].KeyReplica
	if !scaffold {
		d.next.Stations[at[last]].Out = append([]plan.Edge(nil), p.Stations[entry].Out...)
		d.rewired = retarget(d.next, entry, at[0])
	}
	d.next.EntryOf[op], d.next.CollectorOf[op] = at[0], at[last]
	d.next.WorkersOf[op] = append([]plan.StationID(nil), at[1:last]...)
	return d, nil
}

// unfuseDiff splits operator op's fused station back into one station per
// member of meta's subgraph, undoing Algorithm 3: member stations wired
// as meta.Sub wires the members, edges leaving the subgraph retargeted to
// the survivors' entry stations with their ports kept, and the fused
// station's in-edges retargeted to the front-end member.
func unfuseDiff(p *plan.Plan, op core.OpID, meta *MetaOperator) (diff, error) {
	w := p.EntryOf[op]
	if p.CollectorOf[op] >= 0 || len(p.WorkersOf[op]) != 1 || p.Stations[w].Member > 0 {
		return diff{}, errors.New("operator is not a single fused station")
	}
	fused := p.Stations[w]
	d := diff{op: op, next: clonePlan(p), retired: []plan.StationID{w}, drained: []plan.StationID{w}}
	stationOf := make(map[core.OpID]plan.StationID, len(meta.Members))
	for _, v := range meta.Members {
		s := plan.Unreplicated(op, meta.Sub.Op(v))
		s.Name = fused.Name + "/" + s.Name
		s.Member = int(v) + 1
		stationOf[v] = d.add(s)
	}
	for _, v := range meta.Members {
		st := &d.next.Stations[stationOf[v]]
		for _, se := range meta.Sub.Out(v) {
			if mid, ok := stationOf[se.To]; ok {
				st.Out = append(st.Out, plan.Edge{To: mid, Prob: se.Prob})
				continue
			}
			survivor, ok := meta.SurvivorIDs[se.To]
			if !ok {
				continue
			}
			target := p.EntryOf[survivor]
			port := 0
			for _, we := range fused.Out {
				if we.To == target {
					port = we.Port
					break
				}
			}
			st.Out = append(st.Out, plan.Edge{To: target, Prob: se.Prob, Port: port})
		}
	}
	d.next.EntryOf[op] = stationOf[meta.Front]
	d.next.WorkersOf[op] = append([]plan.StationID(nil), d.added...)
	d.rewired = retarget(d.next, w, stationOf[meta.Front])
	return d, nil
}

// retarget points every edge into old at new instead, returning the
// stations whose out-edges changed.
func retarget(p *plan.Plan, old, new plan.StationID) []plan.StationID {
	var rewired []plan.StationID
	for i := range p.Stations {
		changed := false
		for j := range p.Stations[i].Out {
			if p.Stations[i].Out[j].To == old {
				p.Stations[i].Out[j].To = new
				changed = true
			}
		}
		if changed {
			rewired = append(rewired, plan.StationID(i))
		}
	}
	return rewired
}

// clonePlan deep-copies the plan's station list and operator maps; Out
// slices are copied per station so a rewrite never mutates the plan a
// running station may still be reading.
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
