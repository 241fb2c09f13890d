package runtime

import (
	"sync"

	"spinstreams/internal/faultinject"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// tables is the swappable routing state of one engine epoch: the physical
// plan, the mailboxes and per-station sender arrays bound to it, the
// observability cells and fault streams indexed by station. The engine
// publishes tables through an atomic pointer; a live reconfiguration
// builds a new value copy-on-write (station entries it does not touch
// keep their mailbox, sender and counter-cell pointers) and swaps it in
// while every affected station is parked, so running stations only ever
// observe a consistent epoch. Stale reads are safe by construction: a
// station that was not paused sees identical entries in the old and new
// tables.
type tables struct {
	// epoch counts table swaps; epoch 0 is the initial deployment.
	epoch uint64
	p     *plan.Plan
	// mailboxes[i] is station i's inbox.
	mailboxes []*mailbox.Mailbox[operators.Tuple]
	// senders[station][edgeIdx] is the station's producer handle for its
	// edgeIdx-th output edge; each station goroutine owns its senders (a
	// ring's single-producer contract). The controller only touches a
	// station's senders while it is parked.
	senders [][]*mailbox.Sender[operators.Tuple]
	// st[i] is station i's observability cell (the accounting path).
	st []*obs.Station
	// stFaults[i] is station i's injected fault stream (nil entries when
	// no injector is configured).
	stFaults []*faultinject.StationFaults
	// retired[i] marks stations a reconfiguration drained and stopped;
	// they keep their plan slot (and their lifetime counters) but no
	// longer run.
	retired []bool
}

// tab returns the engine's current tables.
func (e *engine) tab() *tables { return e.live.Load() }

// stationCtl is the lifecycle seam between one station goroutine and the
// reconfiguration controller: stop interrupts the station's blocking
// receive, parked/release form the pause handshake, and inst/preset hand
// the live operator instance across the fence. The station only touches
// its own ctl; the controller touches it only around the park handshake,
// whose channel operations order every unsynchronized field access.
type stationCtl struct {
	mu sync.Mutex
	// stop interrupts the station's blocking receive. The controller
	// closes it to pause the station (resume installs a fresh channel);
	// engine shutdown closes every station's stop for good.
	stop       chan struct{}
	stopClosed bool
	// draining asks the station to empty its inbox before parking (set
	// for stations about to be drained out of the plan or migrated).
	draining bool
	// parked is closed by the station once it has quiesced; release is
	// closed by the controller to let it continue. Both are recreated by
	// requestPause for each pause cycle.
	parked  chan struct{}
	release chan struct{}
	// retired tells a released station to exit instead of resuming.
	retired bool
	// inst / minst expose the live operator instance the station bound
	// for the current epoch; the controller reads them only while the
	// station is parked (the parked close orders the accesses).
	inst  operators.Operator
	minst *metaInstance
	// preset / presetMeta carry an operator instance into the station's
	// next epoch: a station re-binds on every resume, so without a
	// preset a pause would wipe operator state. The pause path presets
	// the station's own live instance; migrations override it.
	preset     operators.Operator
	presetMeta *metaInstance
}

// stopCh returns the current stop channel; stations fetch it once per
// lifecycle segment (resume replaces the channel).
func (ctl *stationCtl) stopCh() chan struct{} {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.stop
}

// closeStop interrupts the station's receive; idempotent.
func (ctl *stationCtl) closeStop() {
	ctl.mu.Lock()
	if !ctl.stopClosed {
		close(ctl.stop)
		ctl.stopClosed = true
	}
	ctl.mu.Unlock()
}

// drainRequested reports whether the pending pause asked the station to
// empty its inbox before parking.
func (ctl *stationCtl) drainRequested() bool {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.draining
}

// publish exposes the instance the station bound for this epoch.
func (ctl *stationCtl) publish(inst operators.Operator, minst *metaInstance) {
	ctl.inst, ctl.minst = inst, minst
}

// carry presets the station's live instance for its next epoch, so
// operator state survives a pause/resume cycle. Called on the pause exit
// path only — a panic exit leaves the preset empty and the restart binds
// a fresh instance, as restarts always have.
func (ctl *stationCtl) carry(inst operators.Operator, minst *metaInstance) {
	ctl.preset, ctl.presetMeta = inst, minst
}

// requestPause arms a pause: fresh handshake channels, the drain flag,
// then the stop close that the station will observe.
func (ctl *stationCtl) requestPause(drain bool) {
	ctl.mu.Lock()
	ctl.draining = drain
	ctl.parked = make(chan struct{})
	ctl.release = make(chan struct{})
	if !ctl.stopClosed {
		close(ctl.stop)
		ctl.stopClosed = true
	}
	ctl.mu.Unlock()
}

// parkedCh returns the channel the station closes once parked.
func (ctl *stationCtl) parkedCh() chan struct{} {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.parked
}

// resume releases a parked station: a fresh stop channel is installed
// before the release close, so the station's next segment blocks
// normally. With retire set the station exits instead.
func (ctl *stationCtl) resume(retire bool) {
	ctl.mu.Lock()
	if retire {
		ctl.retired = true
	}
	ctl.draining = false
	ctl.stop = make(chan struct{})
	ctl.stopClosed = false
	release := ctl.release
	ctl.mu.Unlock()
	if release != nil {
		close(release)
	}
}

// isRetired reports whether the controller retired the station.
func (ctl *stationCtl) isRetired() bool {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.retired
}

// park completes the pause handshake from the station side: it signals
// the controller and blocks until released (continue), retired or
// shutdown (both: exit). It returns true to continue running.
func (ctl *stationCtl) park(done <-chan struct{}) bool {
	ctl.mu.Lock()
	parked, release := ctl.parked, ctl.release
	ctl.mu.Unlock()
	if parked == nil {
		// Stop closed without a pause request: shutdown raced the
		// station's exit checks.
		return false
	}
	close(parked)
	select {
	case <-release:
	case <-done:
		return false
	}
	return !ctl.isRetired()
}

// ctl returns station id's lifecycle handle, or nil when the station was
// never spawned.
func (e *engine) ctl(id plan.StationID) *stationCtl {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	if int(id) >= len(e.ctls) {
		return nil
	}
	return e.ctls[id]
}

// spawnStation registers a lifecycle handle for the station and starts
// its goroutine; a non-nil preset seeds its first epoch with a migrated
// operator instance.
func (e *engine) spawnStation(id plan.StationID, seed uint64, preset operators.Operator) {
	ctl := &stationCtl{stop: make(chan struct{}), preset: preset}
	e.ctlMu.Lock()
	for len(e.ctls) <= int(id) {
		e.ctls = append(e.ctls, nil)
	}
	e.ctls[id] = ctl
	e.ctlMu.Unlock()
	e.wg.Add(1)
	go e.runStation(id, ctl, seed)
}

// isShutdown reports whether the engine-wide done channel fired.
func (e *engine) isShutdown() bool { return stopped(e.done) }

// interruptStations closes every station's stop channel so blocked
// receives return; with e.done already closed the stations exit instead
// of parking.
func (e *engine) interruptStations() {
	e.ctlMu.Lock()
	ctls := append([]*stationCtl(nil), e.ctls...)
	e.ctlMu.Unlock()
	for _, ctl := range ctls {
		if ctl != nil {
			ctl.closeStop()
		}
	}
}

// shutdown stops every station (the engine-wide done close aborts
// blocked sends, the per-station stop closes interrupt receives), waits
// for them, settles the transport, and drains the mailboxes so every
// surviving tuple is accounted. It returns the tuples the transport lost
// in flight.
func (e *engine) shutdown() (lost uint64) {
	close(e.done)
	e.interruptStations()
	e.wg.Wait()
	if e.settleTransport != nil {
		lost = e.settleTransport()
	}
	e.drainMailboxes()
	return lost
}
