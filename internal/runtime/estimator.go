package runtime

import (
	"time"

	"spinstreams/internal/obs"
)

// Online estimator sampling (Config.Estimator): one engine-owned goroutine
// wakes every estimatorInterval, reads each station's mailbox occupancy
// (an atomic depth the dataplane already accounts) and cumulative
// counters, derives the regime signal, and feeds the tick into the
// registry's obs.Estimator. No per-tuple work: the dataplane hot paths are
// untouched.
//
// Lifecycle: the sampler reads whatever tables the engine currently
// publishes, so a mid-run ApplyDelta is handled naturally — stations are
// append-only across epochs, retired stations arrive flagged (the
// estimator freezes their accumulators), and stations an epoch added start
// accumulating from their first sample. The goroutine joins the engine's
// WaitGroup and exits on the engine-wide done close, before mailboxes are
// drained.

// estimatorInterval is the occupancy sampling period.
const estimatorInterval = time.Millisecond

// startEstimator installs an estimator on the run's registry and starts
// the occupancy sampler when Config.Estimator is set.
func (e *engine) startEstimator() {
	if !e.cfg.Estimator {
		return
	}
	est := obs.NewEstimator(obs.EstimatorConfig{})
	e.reg.SetEstimator(est)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		ticker := time.NewTicker(estimatorInterval)
		defer ticker.Stop()
		last := time.Now()
		var buf []obs.StationSample
		for {
			select {
			case <-e.done:
				return
			case now := <-ticker.C:
				dt := now.Sub(last).Seconds()
				last = now
				if dt <= 0 {
					continue
				}
				buf = e.sampleStations(buf[:0])
				// The only error is a shrinking station set, which the
				// append-only epoch tables rule out.
				_ = est.Observe(dt, buf)
			}
		}
	}()
}

// sampleStations reads one occupancy sample of every station in the
// current epoch. The tables value is immutable once published (plans are
// cloned per epoch, Out slices included), so the reads race only against
// atomic counter writes.
func (e *engine) sampleStations(buf []obs.StationSample) []obs.StationSample {
	tb := e.tab()
	for i := range tb.mailboxes {
		cell := tb.st[i]
		queued, capacity := tb.mailboxes[i].Occupancy()
		s := obs.StationSample{
			Info:     cell.Info,
			Queued:   uint64(queued),
			Capacity: uint64(capacity),
			Consumed: cell.Consumed.Load(),
			Emitted:  cell.Emitted.Load(),
			Arrived:  cell.Arrived.Load(),
			Dropped:  cell.Dropped.Load(),
			Retired:  tb.retired[i] || cell.Retired.Load(),
		}
		// Blocked-downstream: some mailbox this station sends into is at
		// capacity. A shared downstream mailbox can flag a producer that
		// happened not to be sending this instant — that only excludes the
		// interval from the busy pool (lower confidence), it cannot bias
		// the rate estimate.
		for _, edge := range tb.p.Stations[i].Out {
			if q, c := tb.mailboxes[edge.To].Occupancy(); q >= c {
				s.Blocked = true
				break
			}
		}
		buf = append(buf, s)
	}
	return buf
}
