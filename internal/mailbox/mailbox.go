// Package mailbox is the runtime's dataplane: a bounded, tuple-capacity-
// accounted queue connecting one producer set to a single consumer actor.
// It offers three interchangeable transports behind one API — producers
// deliver with Send/SendMany, the consumer takes a window of queued tuples
// with Peek and releases it with Consume:
//
//   - PerTuple: each item is one bounded-channel operation — the classic
//     Akka BoundedMailbox analog the cost models were validated against.
//   - Batched: senders accumulate items into pooled micro-batches (flushed
//     on batch-full or after a linger timeout so low-rate edges don't
//     stall) and the consumer drains whole batches, amortizing the
//     synchronization cost of a queue operation over many tuples.
//   - SPSC: a lock-free cached-index ring for inboxes the topology
//     analyzer proves have a single producer station — no mutex, no
//     channel, no credit CAS on the hot path; the ring's slot count is
//     the capacity, so slot accounting is tuple accounting (see spsc.go).
//
// All transports preserve Blocking-After-Service semantics exactly: a
// mailbox of capacity C admits at most C tuples before senders block
// (or, with a send timeout, shed), regardless of batch size. Capacity is
// accounted in tuples via a credit token per admitted item (a ring slot
// in SPSC mode), never in batches, so the steady-state model's
// predictions remain valid under any transport. Items already admitted
// (holding a credit) are never dropped — a send timeout can only reject
// the item being admitted.
package mailbox

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the transport of a mailbox.
type Mode int

const (
	// PerTuple delivers each item as an individual channel send.
	PerTuple Mode = iota
	// Batched delivers items in pooled micro-batches.
	Batched
	// SPSC delivers items through a lock-free single-producer ring. A
	// mailbox may only run in this mode when exactly one station sends
	// to it; the runtime derives that proof from the deployed plan.
	SPSC
	// Auto is not a transport but a selection policy: the runtime binds
	// each inbox per-edge from the plan's producer-set analysis — the
	// SPSC ring where the inbox is provably single-producer, the batched
	// transport everywhere else. New rejects it; resolve before
	// construction.
	Auto
)

// String returns the canonical flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case PerTuple:
		return "tuple"
	case Batched:
		return "batch"
	case SPSC:
		return "spsc"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -mailbox flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "tuple", "per-tuple", "pertuple":
		return PerTuple, nil
	case "batch", "batched":
		return Batched, nil
	case "spsc", "ring":
		return SPSC, nil
	case "auto", "plan":
		return Auto, nil
	default:
		return 0, fmt.Errorf("mailbox: unknown mode %q (valid modes: tuple, batch, spsc, auto)", s)
	}
}

// Transport defaults; a zero Config field selects these.
const (
	// DefaultBatch is the micro-batch size of the batched transport.
	DefaultBatch = 32
	// DefaultLinger bounds how long a partial batch may wait before it is
	// flushed to the consumer.
	DefaultLinger = time.Millisecond
)

// Config sizes a mailbox.
type Config struct {
	// Capacity is the BAS bound: the maximum number of admitted tuples.
	Capacity int
	// Mode selects the transport.
	Mode Mode
	// Batch is the micro-batch size in Batched mode (default DefaultBatch).
	Batch int
	// Linger bounds the wait of a partial batch in Batched mode (default
	// DefaultLinger). It must be positive: partial batches hold capacity
	// credits, so an unbounded linger could stall the consumer forever.
	Linger time.Duration
}

// SendResult reports the outcome of one send.
type SendResult int

const (
	// Sent means the item was admitted into the mailbox.
	Sent SendResult = iota
	// Dropped means the send timeout expired before a capacity credit
	// became available; the item was never admitted.
	Dropped
	// Closed means the done channel fired while the send was blocked.
	Closed
)

// Mailbox is a bounded single-consumer queue. Producers send through
// Sender values (one per producer, from NewSender); the consumer calls
// Recv. The zero value is not usable; construct with New.
type Mailbox[T any] struct {
	mode     Mode
	capacity int
	batch    int
	linger   time.Duration

	// ch is the PerTuple transport.
	ch chan T

	// avail counts free capacity credits; one credit is taken per
	// admitted tuple, so avail == 0 is exactly "C tuples queued" and
	// blocks admission (BAS). An atomic counter (with wake for blocked
	// senders) instead of a token channel keeps the per-tuple admission
	// cost to one CAS and lets the consumer release a whole batch's
	// credits in a single add.
	avail atomic.Int64
	// wake carries at most one pending wakeup for senders blocked on
	// exhausted credits; a woken sender re-signals while credits remain,
	// so one release fans out to every waiter that can proceed.
	wake chan struct{}
	// batches carries flushed micro-batches. Its capacity equals the
	// tuple capacity: every queued batch holds at least one credited
	// tuple, so at most Capacity batches can be outstanding and a flush
	// by a credit-holding sender never blocks.
	batches chan []T
	// blocked counts send episodes that found the mailbox full and had to
	// wait (or shed): the BAS backpressure events the observability layer
	// reports as credit stalls.
	blocked atomic.Uint64
	// free recycles batch buffers from the consumer back to the senders.
	// A channel rather than a sync.Pool because a pool boxes the slice
	// header on every Put — one allocation per batch on the consumer
	// side. Sized like batches, which bounds the buffers in the queue; a
	// put that still finds it full leaves the buffer to the GC.
	free chan []T

	// cur/idx is the consumer's window cursor on the copying transports:
	// cur is the batch in hand (Batched) or slot[:] (PerTuple), idx the
	// first tuple not yet released by Consume. Only the single consumer
	// touches them. The ring has no cursor — its window is the slots
	// between head and tail themselves.
	cur  []T
	idx  int
	slot [1]T

	// SPSC ring transport state (mode == SPSC); see spsc.go. The ring
	// has exactly capacity slots, so slot accounting is tuple-capacity
	// accounting. head/tail are monotonic positions (not wrapped
	// indices); the pads keep the consumer-written and producer-written
	// fields on separate cache lines so the indices don't ping-pong.
	head  atomic.Uint64 // consumed count; written only by the consumer
	chead uint64        // consumer's mirror of head (plain, consumer-only)
	_     [6]uint64
	tail  atomic.Uint64 // published count; written only by the producer
	ptail uint64        // producer's mirror of tail (plain, producer-only)
	phead uint64        // producer's cached view of head
	_     [5]uint64
	// prodWait/consWait flag a parked side; the releasing side swaps the
	// flag false and signals the matching 1-buffered channel, so a wait
	// never misses a wakeup and a stale token only costs a spurious loop.
	prodWait atomic.Bool
	consWait atomic.Bool
	notFull  chan struct{}
	notEmpty chan struct{}
	// ring is the slot array; written at tail by the producer, read at
	// head by the consumer, never resized.
	ring []T
}

// Mode reports the transport the mailbox was built with; the runtime's
// source loop reads it to decide whether it may reserve ring slots, the
// reconfiguration controller's demotion scan to find the rings.
func (m *Mailbox[T]) Mode() Mode { return m.mode }

// New builds a mailbox with capacity cfg.Capacity tuples.
func New[T any](cfg Config) (*Mailbox[T], error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("mailbox: capacity %d, want > 0", cfg.Capacity)
	}
	m := &Mailbox[T]{mode: cfg.Mode, capacity: cfg.Capacity}
	switch cfg.Mode {
	case PerTuple:
		m.ch = make(chan T, cfg.Capacity)
	case Batched:
		m.batch = cfg.Batch
		if m.batch <= 0 {
			m.batch = DefaultBatch
		}
		m.linger = cfg.Linger
		if m.linger <= 0 {
			m.linger = DefaultLinger
		}
		m.avail.Store(int64(cfg.Capacity))
		m.wake = make(chan struct{}, 1)
		m.batches = make(chan []T, cfg.Capacity)
		m.free = make(chan []T, cfg.Capacity)
	case SPSC:
		m.batch = cfg.Batch
		if m.batch <= 0 {
			m.batch = DefaultBatch
		}
		m.ring = make([]T, cfg.Capacity)
		m.notFull = make(chan struct{}, 1)
		m.notEmpty = make(chan struct{}, 1)
	case Auto:
		return nil, fmt.Errorf("mailbox: mode auto is a per-edge selection policy; resolve it to a concrete transport before construction")
	default:
		return nil, fmt.Errorf("mailbox: unknown mode %v", cfg.Mode)
	}
	return m, nil
}

// Queued reports the number of admitted tuples not yet taken by the
// consumer (approximate under concurrency; exact when quiescent).
func (m *Mailbox[T]) Queued() int {
	switch m.mode {
	case PerTuple:
		return len(m.ch)
	case SPSC:
		// The two loads are not a consistent snapshot when sampled from
		// a third goroutine; clamp the transient skew so a reading never
		// leaves [0, capacity] (exact whenever either side is quiescent).
		q := int(m.tail.Load() - m.head.Load())
		if q < 0 {
			q = 0
		} else if q > m.capacity {
			q = m.capacity
		}
		return q
	default:
		return m.capacity - int(m.avail.Load())
	}
}

// Capacity returns the BAS bound the mailbox was built with.
func (m *Mailbox[T]) Capacity() int { return m.capacity }

// Occupancy reports the instantaneous depth together with the BAS bound
// in one call — the sampling hook the online service-rate estimator
// polls. Like Queued it is a single atomic read (channel length or credit
// counter) in either transport mode, so a high-frequency sampler costs
// the dataplane nothing.
func (m *Mailbox[T]) Occupancy() (queued, capacity int) {
	return m.Queued(), m.capacity
}

// Pending reports how many tuples the consumer can still receive: the
// queued tuples plus, on the copying transports, the unreleased part of
// the window in hand (a batch's credits are released when it is taken, a
// channel item left the channel, so Queued misses both; an unreleased
// ring window still occupies its slots and is already in Queued). It may
// only be called from the consumer's goroutine; the runtime's
// drain-before-pause protocol uses it to decide when a station has fully
// quiesced.
func (m *Mailbox[T]) Pending() int {
	n := m.Queued()
	if m.mode != SPSC {
		n += len(m.cur) - m.idx
	}
	return n
}

// Blocked returns the number of send episodes that found the mailbox at
// capacity and had to wait for a credit (or shed on timeout) — one count
// per stall, not per tuple. It is the mailbox's backpressure signal.
func (m *Mailbox[T]) Blocked() uint64 { return m.blocked.Load() }

// Drain removes and counts every tuple still queued — including the
// remainder of a batch the consumer was part-way through — returning
// their capacity credits so the mailbox ends back at full capacity.
// It must only be called once all producers and the consumer have
// stopped; the runtime's drain-on-shutdown pass uses it to account for
// in-flight tuples, and Queued() == 0 afterwards is the "credits
// restored" invariant the chaos suite checks.
func (m *Mailbox[T]) Drain() int {
	// The unreleased part of the consumer's window left the queue when it
	// was taken (the ring's never did: its slots sit between head and
	// tail).
	n := 0
	if m.mode != SPSC {
		n = len(m.cur) - m.idx
		m.cur, m.idx = nil, 0
	}
	switch m.mode {
	case PerTuple:
		for {
			select {
			case <-m.ch:
				n++
			default:
				return n
			}
		}
	case SPSC:
		// Quiescent by contract, so head/tail are exact: everything
		// between them is an admitted, undelivered tuple. Advancing head
		// to tail frees every slot, which is the ring's "credits
		// restored" state.
		h, t := m.head.Load(), m.tail.Load()
		m.chead = t
		m.head.Store(t)
		return n + int(t-h)
	default:
		for {
			select {
			case b := <-m.batches:
				n += len(b)
				m.release(len(b))
			default:
				return n
			}
		}
	}
}

// tryAcquire takes one capacity credit if any remain.
func (m *Mailbox[T]) tryAcquire() bool {
	for {
		v := m.avail.Load()
		if v <= 0 {
			return false
		}
		if m.avail.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// tryAcquireN takes up to want credits in one CAS and reports how many it
// got. Capacity stays tuple-accounted: a bulk admission takes exactly what
// is free and the caller blocks for the rest, so BAS blocking occurs at
// the same queue depth as single-credit admission.
func (m *Mailbox[T]) tryAcquireN(want int) int {
	for {
		v := m.avail.Load()
		if v <= 0 {
			return 0
		}
		n := int64(want)
		if n > v {
			n = v
		}
		if m.avail.CompareAndSwap(v, v-n) {
			return int(n)
		}
	}
}

// release returns n credits and wakes one blocked sender; the woken
// sender cascades the wakeup while credits remain.
func (m *Mailbox[T]) release(n int) {
	m.avail.Add(int64(n))
	m.signalWake()
}

func (m *Mailbox[T]) signalWake() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Peek takes the consumer's next window: a run of queued tuples, at most
// Batch long, that the consumer reads (or mutates) in place and releases
// with Consume. It is the one consumer protocol of every transport — the
// ring hands out its slots themselves (no copy), Batched the micro-batch
// in hand, PerTuple an inline one-tuple slot — and blocks while the
// mailbox is empty until a producer delivers or done closes (ok ==
// false). The window stays valid until its last tuple is released;
// releasing fewer tuples than were taken is allowed, and the remainder
// leads the next window. Only the single consumer goroutine may call it.
func (m *Mailbox[T]) Peek(done <-chan struct{}) ([]T, bool) {
	if m.mode == SPSC {
		return m.peekRing(done)
	}
	if m.idx < len(m.cur) {
		return m.cur[m.idx:], true
	}
	if m.mode == PerTuple {
		select {
		case m.slot[0] = <-m.ch:
			m.cur, m.idx = m.slot[:], 0
			return m.cur, true
		case <-done:
			return nil, false
		}
	}
	if m.cur != nil {
		m.putBuf(m.cur)
		m.cur, m.idx = nil, 0
	}
	select {
	case b := <-m.batches:
		// The whole batch leaves the queue in one operation; its capacity
		// credits are released together, which is what amortizes the
		// queue synchronization over the batch.
		m.release(len(b))
		m.cur, m.idx = b, 0
		return b, true
	case <-done:
		return nil, false
	}
}

// Consume releases the first n tuples of the window Peek handed out; on
// the ring that frees their slots and wakes a producer blocked on a full
// ring.
func (m *Mailbox[T]) Consume(n int) {
	if m.mode == SPSC {
		m.consumeRing(n)
		return
	}
	m.idx += n
}

// Recv returns the next tuple — a one-tuple take and release — blocking
// until one is available or done is closed (ok == false).
func (m *Mailbox[T]) Recv(done <-chan struct{}) (t T, ok bool) {
	w, ok := m.Peek(done)
	if !ok {
		return t, false
	}
	t = w[0]
	m.Consume(1)
	return t, true
}

// RecvBatch and Recycle are Peek and Consume under their historical
// names: RecvBatch takes the next window, Recycle(b) releases all of it.
func (m *Mailbox[T]) RecvBatch(done <-chan struct{}) ([]T, bool) { return m.Peek(done) }

// Recycle releases the window RecvBatch returned.
func (m *Mailbox[T]) Recycle(b []T) { m.Consume(len(b)) }

// getBuf returns an empty batch buffer, recycled when one is free.
func (m *Mailbox[T]) getBuf() []T {
	select {
	case b := <-m.free:
		return b
	default:
		return make([]T, 0, m.batch)
	}
}

// putBuf hands a consumed batch buffer back to the senders.
func (m *Mailbox[T]) putBuf(b []T) {
	select {
	case m.free <- b[:0]:
	default:
	}
}

// Sender is one producer's handle on a mailbox. In Batched mode it owns
// the producer's partial batch, so each producing goroutine needs its own
// Sender; a Sender itself is safe against its own linger timer only.
type Sender[T any] struct {
	m *Mailbox[T]
	// timeout bounds how long Send may block on a full mailbox before
	// dropping the item; zero blocks forever (pure backpressure).
	timeout time.Duration

	mu    sync.Mutex
	buf   []T
	timer *time.Timer
}

// NewSender returns a producer handle. A non-zero timeout gives Akka
// BoundedMailbox shedding semantics: Send drops the item (Dropped) when no
// capacity credit frees up within the timeout.
func (m *Mailbox[T]) NewSender(timeout time.Duration) *Sender[T] {
	return &Sender[T]{m: m, timeout: timeout}
}

// Send admits one item, blocking while the mailbox holds its full
// capacity in tuples. done aborts a blocked send (Closed).
func (s *Sender[T]) Send(t T, done <-chan struct{}) SendResult {
	if s.m.mode == PerTuple {
		return s.sendTuple(t, done)
	}
	if s.m.mode == SPSC {
		return s.sendRing(t, done)
	}
	// Admission: one credit per tuple, acquired before the item enters
	// the partial batch. Fast path first: an immediate credit avoids the
	// flush and the timer.
	if !s.m.tryAcquire() {
		if r := s.acquireSlow(done); r != Sent {
			return r
		}
	}
	s.mu.Lock()
	if s.buf == nil {
		s.buf = s.m.getBuf()
	}
	s.buf = append(s.buf, t)
	switch {
	case len(s.buf) >= s.m.batch:
		s.flushLocked()
	case len(s.buf) == 1:
		s.armTimerLocked()
	}
	s.mu.Unlock()
	return Sent
}

// acquireSlow blocks for a capacity credit after the fast path failed.
func (s *Sender[T]) acquireSlow(done <-chan struct{}) SendResult {
	// About to block: hand the partial batch to the consumer first, both
	// so it can make progress draining the queue and so the items we
	// already admitted aren't held back by our stall.
	s.Flush()
	return s.m.waitCredit(s.timeout, done)
}

// waitCredit blocks until one capacity credit is acquired (Sent), the
// timeout expires (Dropped; zero timeout blocks forever), or done closes
// (Closed).
func (m *Mailbox[T]) waitCredit(timeout time.Duration, done <-chan struct{}) SendResult {
	m.blocked.Add(1)
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	for {
		select {
		case <-m.wake:
			got := m.tryAcquire()
			// Pass the wakeup on while credits remain: one bulk release
			// must reach every waiter it can satisfy, and a waiter that
			// lost the race must not strand the token it consumed.
			if m.avail.Load() > 0 {
				m.signalWake()
			}
			if got {
				return Sent
			}
		case <-timeoutC:
			return Dropped
		case <-done:
			return Closed
		}
	}
}

// SendMany admits a slice of items with the exact per-tuple semantics of
// repeated Send calls — capacity is still accounted per tuple, a full
// mailbox blocks at the same queue depth, and with a timeout each blocked
// tuple gets its own timeout window and is shed individually (items
// already admitted are never dropped). What the bulk path buys is
// amortization: free credits are taken in one CAS for a whole run of
// items and the sender's batch lock is taken once per run instead of once
// per tuple.
func (s *Sender[T]) SendMany(ts []T, done <-chan struct{}) (sent, dropped int, ok bool) {
	if s.m.mode == PerTuple {
		for _, t := range ts {
			switch s.sendTuple(t, done) {
			case Sent:
				sent++
			case Dropped:
				dropped++
			default:
				return sent, dropped, false
			}
		}
		return sent, dropped, true
	}
	if s.m.mode == SPSC {
		return s.sendManyRing(ts, done)
	}
	i := 0
	for i < len(ts) {
		n := s.m.tryAcquireN(len(ts) - i)
		if n == 0 {
			// Blocked: hand the partial batch over first, then wait for
			// one credit at a time so shedding stays per-tuple.
			s.Flush()
			switch s.m.waitCredit(s.timeout, done) {
			case Sent:
				n = 1
			case Dropped:
				dropped++
				i++
				continue
			default:
				return sent, dropped, false
			}
		}
		s.mu.Lock()
		for k := 0; k < n; k++ {
			if s.buf == nil {
				s.buf = s.m.getBuf()
			}
			s.buf = append(s.buf, ts[i+k])
			if len(s.buf) >= s.m.batch {
				s.flushLocked()
			}
		}
		s.mu.Unlock()
		sent += n
		i += n
	}
	// The caller hands over complete output batches, so anything left in
	// the buffer is the tail of this delivery: push it now rather than
	// waiting for a linger.
	s.Flush()
	return sent, dropped, true
}

// sendTuple is the PerTuple transport: the existing bounded-channel dance.
func (s *Sender[T]) sendTuple(t T, done <-chan struct{}) SendResult {
	select {
	case s.m.ch <- t:
		return Sent
	default:
	}
	s.m.blocked.Add(1)
	if s.timeout > 0 {
		timer := time.NewTimer(s.timeout)
		defer timer.Stop()
		select {
		case s.m.ch <- t:
			return Sent
		case <-timer.C:
			return Dropped
		case <-done:
			return Closed
		}
	}
	select {
	case s.m.ch <- t:
		return Sent
	case <-done:
		return Closed
	}
}

// Flush hands the partial batch to the consumer immediately. A no-op in
// PerTuple mode, on an empty batch, and in SPSC mode (the ring publishes
// every admitted item at send time; there is never a held-back partial).
func (s *Sender[T]) Flush() {
	if s.m.mode != Batched {
		return
	}
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

// flushLocked pushes the batch into the mailbox. Every buffered item
// holds a credit, so at most Capacity batches exist and the channel send
// cannot block (see the batches field).
func (s *Sender[T]) flushLocked() {
	if len(s.buf) > 0 {
		s.m.batches <- s.buf
		s.buf = nil
	}
	if s.timer != nil {
		s.timer.Stop()
	}
}

// armTimerLocked schedules the linger flush for a freshly started batch.
// A stale fire after a batch-full flush only flushes whatever partial
// batch exists then — harmless, just a smaller batch.
func (s *Sender[T]) armTimerLocked() {
	if s.timer == nil {
		s.timer = time.AfterFunc(s.m.linger, s.Flush)
		return
	}
	s.timer.Reset(s.m.linger)
}
