package runtime

import (
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// The dataplane: one station loop and one source loop, written once
// against the mailbox's window protocol. A consumer takes a window of at
// most Batch queued tuples (Peek), processes it in place — each output is
// routed into its out-edge's buffer as it is emitted — releases it
// (Consume) and delivers the buffers (sendManyFn, which copies the tuples
// out before it returns). Per-tuple is Batch 1 of the same loop. Between
// windows a station holds no tuple outside a mailbox, so a pause or a
// shutdown never finds anything to flush.

// drainPending reports whether a station whose take was interrupted must
// keep consuming: a pause that asked for a drain parks the station only
// once its inbox is empty (producers are already parked then, so no new
// input arrives, and the engine-wide done channel is the only other way
// out). Shutdown and a plain pause end the segment at once.
func (e *engine) drainPending(inbox *mailbox.Mailbox[operators.Tuple], ctl *stationCtl) bool {
	return !e.isShutdown() && ctl.drainRequested() && inbox.Queued() > 0
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
func (e *engine) bindStation(st *plan.Station, ctl *stationCtl) (exec func(operators.Tuple, *outbox), selfPaced bool, inst operators.Operator, minst *metaInstance) {
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

// outbox is the target of every executor's emit: it routes each output
// as it is emitted into its out-edge's buffer, which is delivered once the
// window is released. A sink stages the outputs of the tuple in hand in
// sunk instead, which the station loop reports once the call returns.
type outbox struct {
	e  *engine
	tb *tables
	st *plan.Station
	op uint64 // the station's routing identity, opIdent(st.OpName, Seed)
	// emits is the next output's emit index (outputs of the tuple in
	// hand so far); the station loop zeroes it before each tuple.
	emits int
	// replica marks a fissioned operator's replica. Its collector routes
	// for the operator, so its outputs carry their emit index there in
	// Port, which an intra-operator link does not use.
	replica bool
	rr      int
	bufs    [][]operators.Tuple
	sunk    []operators.Tuple
	marks   []int // each buffer's length before the tuple in hand (see mark)
	held    int   // tuples a PreserveOrder collector holds for reordering
}

func (e *engine) newOutbox(tb *tables, st *plan.Station) *outbox {
	o := &outbox{
		e: e, tb: tb, st: st, op: opIdent(st.OpName, e.cfg.Seed),
		replica: st.Role == plan.RoleWorker && tb.p.CollectorOf[st.Op] >= 0,
		bufs:    make([][]operators.Tuple, len(st.Out)), marks: make([]int, len(st.Out)),
	}
	for i := range o.bufs {
		o.bufs[i] = make([]operators.Tuple, 0, e.cfg.Batch)
	}
	return o
}

// add stages one output on the edge its destination (an explicit
// meta-operator destination, or -1 for the station's routing discipline)
// selects, dropping it when it has none; at a sink it stages it in sunk.
func (o *outbox) add(t *operators.Tuple, dest core.OpID) {
	emit := o.emits
	o.emits++
	if o.st.Role == plan.RoleCollector {
		emit = t.Port
	}
	idx := pickEdge(o.tb, o.st, dest, t, o.op, emit, &o.rr)
	if idx < 0 {
		if len(o.st.Out) == 0 {
			o.sunk = append(o.sunk, *t)
		}
		return
	}
	buf := append(o.bufs[idx], *t)
	buf[len(buf)-1].Port = o.st.Out[idx].Port
	if o.replica {
		buf[len(buf)-1].Port = emit
	}
	o.bufs[idx] = buf
}

// mark records each buffer's length before the tuple in hand, so a
// recovered panic can drop the outputs that tuple staged.
func (o *outbox) mark() {
	for i, buf := range o.bufs {
		o.marks[i] = len(buf)
	}
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
// corrupted. Operator execution, pacing, tracer timing, routing (at emit,
// inside the service episode) and shedding are all per tuple; queue
// synchronization and counter updates are amortized over the window.
func (e *engine) stationEpoch(tb *tables, st *plan.Station, ctl *stationCtl) (clean bool) {
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
	out := e.newOutbox(tb, st)
	// What a reorder buffer still holds when the epoch ends is drained.
	defer func() { self.Drained.Add(uint64(out.held)) }()
	// n is the size of the window in hand (0 between windows), k the
	// index of the tuple in hand within it.
	n, k := 0, 0
	recovering := e.cfg.MaxRestarts != 0
	if recovering {
		defer func() {
			if r := recover(); r != nil {
				// The k tuples before the one in hand were served and
				// their outputs are staged; the tuple in hand died with
				// the panic, and the outputs it staged since its mark go
				// too. Release exactly those k+1 — the rest of the window
				// stays queued for the restarted epoch, so nothing is
				// left for the shutdown drain to count a second time.
				if n > 0 {
					self.Consumed.Add(uint64(k + 1))
					self.Failed.Add(1)
					inbox.Consume(k + 1)
					for i, m := range out.marks {
						out.bufs[i] = out.bufs[i][:m]
					}
				}
				out.deliver()
				clean = false
			}
		}()
	}
	// Trivial pass-through on a single edge (the common pipeline shape):
	// forward the window wholesale — no closure call, no per-tuple routing
	// decision.
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
				// Marked before the fault hook, which may panic: a mark
				// taken after it would rewind the previous tuple's outputs.
				if recovering {
					out.mark()
				}
				var started time.Time
				if usePace || traced {
					started = time.Now()
				}
				if fl != nil {
					fl.OnProcess()
				}
				out.emits = 0
				exec(win[k], out)
				if usePace && pace.wait(started) {
					self.PadResets.Add(1)
				}
				if traced {
					e.fireServe(st.ID, started)
				}
				if sink {
					// Sink: the tuple's results leave the system only now
					// that its call has returned.
					self.Emitted.Add(uint64(len(out.sunk)))
					if traced && len(out.sunk) > 0 {
						e.fireEmit(st.ID, len(out.sunk))
					}
					if e.cfg.OnSink != nil {
						for _, t := range out.sunk {
							e.cfg.OnSink(st.Op, t)
						}
					}
					out.sunk = out.sunk[:0]
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

// runSource is the source loop: it generates the input stream at the
// source's service rate into a staging window of at most Batch tuples,
// routes the window per edge and delivers it before starting the next —
// subject to backpressure on its output mailboxes. Under padding the
// linger bound closes a window early so a slow source still feeds the
// pipeline promptly. Nothing is held between windows, so a pause parks
// the source with nothing to flush.
func (e *engine) runSource(tb *tables, st *plan.Station, ctl *stationCtl) {
	pace := newPacer(st.ServiceTime)
	usePace := !e.cfg.NoServicePadding
	traced := len(e.tracers) != 0
	stop := ctl.stopCh()
	gen := e.cfg.Generator
	self := tb.st[st.ID]
	out := e.newOutbox(tb, st)
	win := make([]operators.Tuple, e.cfg.Batch)
	for !stopped(stop) {
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
				if usePace && pace.wait(started) {
					self.PadResets.Add(1)
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
			n++
			if usePace && (time.Since(opened) >= e.cfg.Linger || stopped(stop)) {
				break
			}
		}
		self.Consumed.Add(uint64(n))
		for i := range win[:n] {
			out.emits = 0
			out.add(&win[i], -1)
		}
		if !out.deliver() {
			return
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
