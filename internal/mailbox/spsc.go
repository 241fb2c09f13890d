// The SPSC ring transport: a lock-free bounded queue for inboxes the
// topology analyzer proves have exactly one producer station.
//
// Layout: ring has exactly Capacity slots; head and tail are monotonic
// item counts (never wrapped), so tail-head is the queue depth and a
// full ring is tail-head == Capacity — the BAS bound falls out of the
// slot accounting with no separate credit counter. Each side keeps a
// plain (non-atomic) mirror of its own index plus a cached view of the
// other side's, so the hot path costs one atomic load per *batch* of
// work, not per tuple: the producer re-reads head only when its cached
// view says the ring is full, the consumer re-reads tail only when its
// last view is exhausted.
//
// Publication is batched: SendMany copies a whole run of items into the
// ring (at most two memcpy segments across the wrap) and publishes them
// with a single tail store, then checks the consumer's waiting flag.
// Every admitted item is published immediately, which is also what
// makes the cross-epoch producer handoff safe: the ring keeps no
// producer-goroutine-local state (the mirrors live on the mailbox), so a
// reconfiguration can retarget the single producer role to a new station
// as long as the pause fence orders old-producer-stops-before-new-
// producer-starts, which it does.
//
// Blocking uses a waiting-flag + 1-buffered channel handshake per side:
// the waiter sets its flag, re-checks the index, then parks on the
// channel; the releasing side updates its index, swaps the flag false
// and signals. The re-check after flag-set closes the lost-wakeup race,
// and a stale token in the 1-buffered channel only costs a spurious loop
// iteration.
package mailbox

import "time"

// publishRing makes the producer's pending writes visible and wakes the
// consumer if it is parked.
func (m *Mailbox[T]) publishRing() {
	m.tail.Store(m.ptail)
	if m.consWait.Load() && m.consWait.Swap(false) {
		select {
		case m.notEmpty <- struct{}{}:
		default:
		}
	}
}

// freeRing returns the producer's view of the free slot count,
// refreshing the cached head from the consumer when the cache says full.
func (m *Mailbox[T]) freeRing() int {
	free := m.capacity - int(m.ptail-m.phead)
	if free == 0 {
		m.phead = m.head.Load()
		free = m.capacity - int(m.ptail-m.phead)
	}
	return free
}

// waitRingSpace blocks the producer until at least one slot frees
// (Sent), the timeout expires (Dropped; zero blocks forever), or done
// closes (Closed). One call is one backpressure episode for Blocked().
func (m *Mailbox[T]) waitRingSpace(timeout time.Duration, done <-chan struct{}) SendResult {
	m.blocked.Add(1)
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	for {
		m.prodWait.Store(true)
		m.phead = m.head.Load()
		if m.capacity-int(m.ptail-m.phead) > 0 {
			m.prodWait.Store(false)
			return Sent
		}
		select {
		case <-m.notFull:
		case <-timeoutC:
			m.prodWait.Store(false)
			return Dropped
		case <-done:
			m.prodWait.Store(false)
			return Closed
		}
	}
}

// Reserve hands the single producer a contiguous window of free ring
// slots to fill in place — the zero-copy produce path: the producer
// writes items directly into the ring and makes them visible with one
// Publish call, skipping the staging buffer and memcpy that Send/
// SendMany pay. The window holds at most max slots and never wraps (a
// reservation is one contiguous span; the next Reserve continues past
// the wrap). A full ring blocks under BAS until the consumer frees slots
// or done closes (ok == false; no slots were reserved). Reservations
// ignore the sender-level SendTimeout — callers that shed on timeout
// must use Send/SendMany.
//
// Only the proven single producer may call Reserve, and each Reserve
// must be completed by Publish(n) with n <= len(window) before the next
// Reserve. Unpublished slots are simply returned to the free pool by the
// next reservation — the consumer never observes them. Panics on
// non-SPSC mailboxes: the reservation protocol is exactly what the
// single-producer proof licenses.
func (m *Mailbox[T]) Reserve(max int, done <-chan struct{}) ([]T, bool) {
	if m.mode != SPSC {
		panic("mailbox: Reserve on non-SPSC mailbox")
	}
	free := m.freeRing()
	if free == 0 {
		if m.waitRingSpace(0, done) != Sent {
			return nil, false
		}
		free = m.capacity - int(m.ptail-m.phead)
	}
	n := free
	if n > max {
		n = max
	}
	start := int(m.ptail % uint64(m.capacity))
	if first := m.capacity - start; n > first {
		n = first
	}
	return m.ring[start : start+n : start+n], true
}

// Publish makes the first n slots of the current reservation visible to
// the consumer and wakes it if parked. n == 0 is a no-op reservation
// release.
func (m *Mailbox[T]) Publish(n int) {
	if m.mode != SPSC {
		panic("mailbox: Publish on non-SPSC mailbox")
	}
	if n == 0 {
		return
	}
	m.ptail += uint64(n)
	m.publishRing()
}

// peekRing is Peek on the ring, dual to Reserve: the window is the next
// contiguous run of published slots themselves — no copy-out, no buffer.
// The run never wraps (the next window continues past the wrap) and is
// capped at the batch size, so a consumer working through a full ring
// frees slots for the producer a batch at a time instead of holding all
// of them until it is done with the last. An empty ring blocks until the
// producer publishes or done closes (ok == false).
func (m *Mailbox[T]) peekRing(done <-chan struct{}) ([]T, bool) {
	h := m.chead
	for {
		if t := m.tail.Load(); t != h {
			n := min(int(t-h), m.batch)
			start := int(h % uint64(m.capacity))
			if first := m.capacity - start; n > first {
				n = first
			}
			return m.ring[start : start+n : start+n], true
		}
		// Park: flag first, then re-check tail so a publication racing
		// with the flag store is never missed (the producer re-reads the
		// flag after every tail store).
		m.consWait.Store(true)
		if m.tail.Load() != h {
			m.consWait.Store(false)
			continue
		}
		select {
		case <-m.notEmpty:
		case <-done:
			m.consWait.Store(false)
			return nil, false
		}
	}
}

// consumeRing frees the first n slots of the current window and wakes a
// producer blocked on a full ring.
func (m *Mailbox[T]) consumeRing(n int) {
	if n == 0 {
		return
	}
	m.chead += uint64(n)
	m.head.Store(m.chead)
	if m.prodWait.Load() && m.prodWait.Swap(false) {
		select {
		case m.notFull <- struct{}{}:
		default:
		}
	}
}

// sendManyRing admits a slice of items with the exact per-tuple
// semantics of repeated Send calls: a full ring blocks at the same queue
// depth, and with a timeout each blocked tuple gets its own timeout
// window and is shed individually. Free slots are taken in whole runs —
// one two-segment copy and one tail publication per run.
func (s *Sender[T]) sendManyRing(ts []T, done <-chan struct{}) (sent, dropped int, ok bool) {
	m := s.m
	i := 0
	for i < len(ts) {
		free := m.freeRing()
		if free == 0 {
			switch m.waitRingSpace(s.timeout, done) {
			case Sent:
				continue
			case Dropped:
				dropped++
				i++
				continue
			default:
				return sent, dropped, false
			}
		}
		n := len(ts) - i
		if n > free {
			n = free
		}
		start := int(m.ptail % uint64(m.capacity))
		first := m.capacity - start
		if first > n {
			first = n
		}
		copy(m.ring[start:start+first], ts[i:i+first])
		copy(m.ring[:n-first], ts[i+first:i+n])
		m.ptail += uint64(n)
		m.publishRing()
		sent += n
		i += n
	}
	return sent, dropped, true
}
