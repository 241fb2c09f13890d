package runtime

import (
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

// The dataplane: one station loop and one source loop, written once
// against the mailbox's window protocol. A consumer takes a window of at
// most Batch queued tuples (Peek), processes it in place, releases it
// (Consume) and delivers what it produced along its out-edges
// (sendManyFn, which copies the tuples out before it returns). Per-tuple
// is Batch 1 of the same loop; the two mailbox implementations differ
// only in what a window is made of (ring slots, the micro-batch in
// hand). Between windows a station holds no tuple outside a mailbox, so a
// pause or a shutdown never finds anything to flush.

// drainPending reports whether a station whose take was interrupted must
// keep consuming: a pause that asked for a drain parks the station only
// once its inbox is empty (producers are already parked then, so no new
// input arrives, and the engine-wide done channel is the only other way
// out). Shutdown and a plain pause end the segment at once.
func (e *engine) drainPending(inbox *mailbox.Mailbox[operators.Tuple], ctl *stationCtl) bool {
	return !e.isShutdown() && ctl.drainRequested() && inbox.Pending() > 0
}

// runDegraded drains the station's inbox after its restart budget is
// exhausted, so upstream backpressure cannot deadlock on a dead
// operator: every tuple is still consumed, counted as failed, and its
// capacity credit returned.
func (e *engine) runDegraded(tb *tables, st *plan.Station, ctl *stationCtl) {
	inbox, self := tb.mailboxes[st.ID], tb.st[st.ID]
	stop := ctl.stopCh()
	for {
		win, ok := inbox.Peek(stop)
		if !ok && e.drainPending(inbox, ctl) {
			win, ok = inbox.Peek(e.done)
		}
		if !ok {
			return
		}
		n := len(win)
		self.Consumed.Add(uint64(n))
		self.Failed.Add(uint64(n))
		inbox.Consume(n)
	}
}

// bindStation resolves the operator instance for one epoch: a preset
// carried across a pause (or installed by a migration) wins; otherwise
// the binding clones a fresh instance. Either way the live instance is
// published on the ctl so the controller can migrate its state while the
// station is parked.
func (e *engine) bindStation(st *plan.Station, ctl *stationCtl) (exec func(operators.Tuple, *[]routed), selfPaced bool, inst operators.Operator, minst *metaInstance) {
	if mi := ctl.presetMeta; mi != nil {
		ctl.preset, ctl.presetMeta = nil, nil
		ctl.publish(nil, mi)
		return mi.process, true, nil, mi
	}
	if op := ctl.preset; op != nil {
		ctl.preset, ctl.presetMeta = nil, nil
		ctl.publish(op, nil)
		return opExec(op), false, op, nil
	}
	exec, selfPaced, inst, minst = e.binding.executor(st, e.cfg)
	ctl.publish(inst, minst)
	return exec, selfPaced, inst, minst
}

// outbox stages one station's routed outputs per out-edge between the
// release of the window that produced them and their delivery.
type outbox struct {
	e    *engine
	tb   *tables
	st   *plan.Station
	rng  *stats.RNG
	rr   int
	bufs [][]operators.Tuple
}

func (e *engine) newOutbox(tb *tables, st *plan.Station, rng *stats.RNG) *outbox {
	o := &outbox{e: e, tb: tb, st: st, rng: rng, bufs: make([][]operators.Tuple, len(st.Out))}
	for i := range o.bufs {
		o.bufs[i] = make([]operators.Tuple, 0, e.cfg.Batch)
	}
	return o
}

// add stages one output on the edge its destination (an explicit
// meta-operator destination, or -1 for the station's routing discipline)
// selects, dropping it when it has none.
func (o *outbox) add(t *operators.Tuple, dest core.OpID) {
	idx := o.e.pickEdge(o.tb, o.st, dest, t.Key, o.rng, &o.rr)
	if idx < 0 {
		return
	}
	buf := append(o.bufs[idx], *t)
	buf[len(buf)-1].Port = o.st.Out[idx].Port
	o.bufs[idx] = buf
}

// deliver sends every staged buffer along its edge; a full mailbox blocks
// (BAS). It returns false when shutdown aborted a delivery: the send path
// accounted the failing buffer, the buffers behind it never reached a
// mailbox and are abandoned here.
func (o *outbox) deliver() bool {
	ok := true
	for idx, buf := range o.bufs {
		if len(buf) == 0 {
			continue
		}
		if !ok {
			o.tb.st[o.st.ID].Abandoned.Add(uint64(len(buf)))
		} else {
			ok = o.e.sendManyFn(o.st.ID, idx, &o.st.Out[idx], buf)
		}
		o.bufs[idx] = buf[:0]
	}
	return ok
}

// stationEpoch is the station loop: it runs the operator over input
// windows until the segment ends (true) or a recovered panic (false).
// Each epoch binds its operator instance through the lifecycle seam: a
// pause presets the live instance so state survives the park, a restart
// binds a fresh one so a panic cannot resurrect state it may have
// corrupted. Operator execution, pacing, tracer timing, routing decisions
// and shedding are all per tuple; queue synchronization and counter
// updates are amortized over the window.
func (e *engine) stationEpoch(tb *tables, st *plan.Station, ctl *stationCtl, rng *stats.RNG) (clean bool) {
	exec, selfPaced, inst, minst := e.bindStation(st, ctl)
	pace := newPacer(st.ServiceTime)
	// Without padding the clock read per item is pure dataplane overhead
	// (the pacer never runs); skip it so raw throughput measures the
	// transport, not the vDSO.
	usePace := !e.cfg.NoServicePadding && !selfPaced
	inbox, self := tb.mailboxes[st.ID], tb.st[st.ID]
	stop := ctl.stopCh()
	sink := len(st.Out) == 0
	fl := tb.stFaults[st.ID]
	traced := len(e.tracers) != 0
	out := e.newOutbox(tb, st, rng)
	outs := make([]routed, 0, 8)
	// n is the size of the window in hand (0 between windows), k the
	// index of the tuple in hand within it.
	n, k := 0, 0
	if e.cfg.MaxRestarts != 0 {
		defer func() {
			if r := recover(); r != nil {
				// The k tuples before the one in hand were served and
				// their outputs are staged; the tuple in hand died with
				// the panic, and its partial outputs with it. Release
				// exactly those k+1 — the rest of the window stays queued
				// for the restarted epoch, so nothing is left for the
				// shutdown drain to count a second time.
				if n > 0 {
					self.Consumed.Add(uint64(k + 1))
					self.Failed.Add(1)
					inbox.Consume(k + 1)
				}
				out.deliver()
				clean = false
			}
		}()
	}
	// Trivial pass-through on a single edge (the common pipeline shape):
	// forward the window wholesale — no closure call, no routed slice, no
	// per-tuple routing decision, and on a ring no copy-out either.
	// Pacing still needs the per-tuple loop, and injected faults must
	// observe every tuple for the schedule to stay deterministic, so both
	// disable it.
	forwardWhole := exec == nil && len(st.Out) == 1 && !usePace && fl == nil
	// The sink analogue: an unbound pass-through sink just counts the
	// window out of the system. OnSink callbacks, pacing, and fault
	// schedules all need to see individual tuples, so any of them
	// disables it.
	sinkWhole := exec == nil && sink && !usePace && fl == nil && e.cfg.OnSink == nil
	if exec == nil {
		exec = forward
	}
	for {
		win, ok := inbox.Peek(stop)
		if !ok && e.drainPending(inbox, ctl) {
			win, ok = inbox.Peek(e.done)
		}
		if !ok {
			// Nothing is staged between windows, so only the operator
			// instance needs to cross a park.
			ctl.carry(inst, minst)
			return true
		}
		n = len(win)
		for _, t := range e.tracers {
			t.OnReceive(int(st.ID), n)
		}
		sent := true
		switch {
		case sinkWhole:
			self.Emitted.Add(uint64(n))
			if traced {
				e.fireEmit(st.ID, n)
			}
		case forwardWhole:
			for i := range win {
				win[i].Port = st.Out[0].Port
			}
			sent = e.sendManyFn(st.ID, 0, &st.Out[0], win)
		default:
			for k = 0; k < n; k++ {
				var started time.Time
				if usePace || traced {
					started = time.Now()
				}
				if fl != nil {
					fl.OnProcess()
				}
				outs = outs[:0]
				exec(win[k], &outs)
				if usePace {
					pace.wait(started)
				}
				if traced {
					e.fireServe(st.ID, started)
				}
				if sink {
					// Sink: results leave the system.
					self.Emitted.Add(uint64(len(outs)))
					if traced && len(outs) > 0 {
						e.fireEmit(st.ID, len(outs))
					}
					if e.cfg.OnSink != nil {
						for _, o := range outs {
							e.cfg.OnSink(st.Op, o.tuple)
						}
					}
					continue
				}
				for i := range outs {
					out.add(&outs[i].tuple, outs[i].dest)
				}
			}
		}
		// Release the whole window before delivering what it produced:
		// the service episodes above exclude downstream blocking, and a
		// delivery that shutdown aborts has accounted every tuple it was
		// given, so none may stay behind for the drain to count again.
		self.Consumed.Add(uint64(n))
		inbox.Consume(n)
		n, k = 0, 0
		if !sent || !out.deliver() {
			return true
		}
	}
}

// sourceRing returns the downstream SPSC ring when the source may
// generate straight into reserved ring slots: a single out-edge whose
// target inbox is a ring, no send-timeout shedding (Reserve blocks under
// BAS; per-tuple timeout windows need SendMany), and no injected faults
// (send delays are scheduled per delivery).
func (e *engine) sourceRing(tb *tables, st *plan.Station) *mailbox.Mailbox[operators.Tuple] {
	if len(st.Out) != 1 || e.cfg.SendTimeout != 0 || tb.stFaults[st.ID] != nil {
		return nil
	}
	if m := tb.mailboxes[st.Out[0].To]; m.Mode() == mailbox.SPSC {
		return m
	}
	return nil
}

// runSource is the source loop: it generates the input stream at the
// source's service rate, a window of at most Batch tuples at a time, and
// delivers each window before starting the next — subject to
// backpressure on its output mailboxes. The window is a run of reserved
// slots of the downstream ring when sourceRing allows it (fill in place,
// publish once) and a staging buffer routed per edge otherwise. Under
// padding the linger bound closes a window early so a slow source still
// feeds the pipeline promptly. Nothing is held between windows, so a
// pause parks the source with nothing to flush; the ring is re-resolved
// every segment because a reconfiguration may have demoted it.
func (e *engine) runSource(tb *tables, st *plan.Station, ctl *stationCtl, rng *stats.RNG) {
	pace := newPacer(st.ServiceTime)
	usePace := !e.cfg.NoServicePadding
	traced := len(e.tracers) != 0
	stop := ctl.stopCh()
	gen := e.cfg.Generator
	self := tb.st[st.ID]
	ring := e.sourceRing(tb, st)
	port := 0 // staged tuples get their edge's port when they are routed
	if ring != nil {
		port = st.Out[0].Port
	}
	out := e.newOutbox(tb, st, rng)
	var stage []operators.Tuple
	if ring == nil {
		stage = make([]operators.Tuple, e.cfg.Batch)
	}
	for !stopped(stop) {
		win := stage
		if ring != nil {
			var ok bool
			if win, ok = ring.Reserve(e.cfg.Batch, stop); !ok {
				return
			}
		}
		n := 0
		var opened time.Time
		for n < len(win) {
			t := &win[n]
			// The clocked episode is a branch of its own so the unpaced,
			// untraced fill stays a bare NextInto: written as one
			// straight-line body the loop generated ~8% fewer tuples/s.
			if usePace || traced {
				started := time.Now()
				gen.NextInto(t)
				if usePace {
					pace.wait(started)
				}
				if traced {
					e.fireServe(st.ID, started)
				}
				if n == 0 {
					opened = started
				}
			} else {
				gen.NextInto(t)
			}
			t.Port = port
			n++
			if usePace && (time.Since(opened) >= e.cfg.Linger || stopped(stop)) {
				break
			}
		}
		self.Consumed.Add(uint64(n))
		if ring == nil {
			for i := range win[:n] {
				out.add(&win[i], -1)
			}
			if !out.deliver() {
				return
			}
			continue
		}
		ring.Publish(n)
		self.Emitted.Add(uint64(n))
		tb.st[st.Out[0].To].Arrived.Add(uint64(n))
		if len(e.tracers) != 0 {
			e.fireEmit(st.ID, n)
		}
	}
}

// stopped reports whether the stop channel has been closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}
