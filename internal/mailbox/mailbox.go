// Package mailbox is the runtime's dataplane: a bounded, tuple-capacity-
// accounted queue connecting one producer set to a single consumer actor.
// It has two implementations behind one protocol — producers deliver with
// Send/SendMany, the consumer takes a window of queued tuples with Peek
// and releases it with Consume:
//
//   - Batched: the multi-producer queue. A delivery takes one capacity
//     credit per tuple, copies the tuples into recycled micro-batches of
//     at most Batch and queues them before it returns; the consumer takes
//     one micro-batch per window, so the synchronization cost of a queue
//     operation is amortized over the batch. PerTuple is this queue with
//     Batch forced to 1.
//   - SPSC: a lock-free cached-index ring for inboxes the topology
//     analyzer proves have a single producer station — no channel and no
//     credit CAS on the hot path; the ring's slot count is the capacity,
//     so slot accounting is tuple accounting (see spsc.go).
//
// Both preserve Blocking-After-Service semantics exactly: a mailbox of
// capacity C admits at most C tuples before senders block (or, with a
// send timeout, shed), regardless of batch size. Capacity is accounted in
// tuples via a credit per admitted item (a ring slot in SPSC mode), never
// in batches, so the steady-state model's predictions remain valid under
// either. Items already admitted are never dropped — a send timeout can
// only reject the item being admitted — and a sender holds nothing
// between calls: every admitted tuple is visible to the consumer by the
// time its Send/SendMany returns, so Queued counts exactly the tuples the
// consumer can take.
package mailbox

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Mode names a mailbox implementation, or the policy that picks one.
type Mode int

const (
	// Auto is not a transport but the selection policy, and the zero
	// value: the runtime binds each inbox per edge from the plan's
	// producer-set analysis — the SPSC ring where the inbox is provably
	// single-producer, the batched queue everywhere else. New rejects it;
	// resolve before construction.
	Auto Mode = iota
	// Batched delivers items in recycled micro-batches of at most Batch.
	Batched
	// PerTuple is Batched with Batch forced to 1: every tuple is its own
	// queue operation and its own window.
	PerTuple
	// SPSC delivers items through a lock-free single-producer ring. A
	// mailbox may only run in this mode when exactly one station sends
	// to it; the runtime derives that proof from the deployed plan.
	SPSC
)

// String returns the short name of the mode.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Batched:
		return "batch"
	case PerTuple:
		return "tuple"
	case SPSC:
		return "spsc"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultBatch is the window size a zero Config.Batch selects.
const DefaultBatch = 32

// Config sizes a mailbox.
type Config struct {
	// Capacity is the BAS bound: the maximum number of admitted tuples.
	Capacity int
	// Mode selects the implementation.
	Mode Mode
	// Batch is the most tuples one window holds (default DefaultBatch;
	// PerTuple forces 1).
	Batch int
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
// Sender values (from NewSender); the consumer calls Peek/Consume or
// Recv. The zero value is not usable; construct with New.
type Mailbox[T any] struct {
	mode     Mode // Batched or SPSC; New folds PerTuple into Batched
	capacity int
	batch    int

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
	// batches carries the queued micro-batches. Its capacity equals the
	// tuple capacity: every queued batch holds at least one credited
	// tuple, so at most Capacity batches can be outstanding and queueing
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

	// cur/idx is the consumer's window cursor on the batched queue: cur is
	// the micro-batch in hand, idx the first tuple not yet released by
	// Consume. Only the single consumer touches them. The ring has no
	// cursor — its window is the slots between head and tail themselves.
	cur []T
	idx int

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

// Mode reports the implementation the mailbox runs on — Batched or SPSC;
// the runtime's source loop reads it to decide whether it may reserve
// ring slots, the reconfiguration controller's demotion scan to find the
// rings.
func (m *Mailbox[T]) Mode() Mode { return m.mode }

// New builds a mailbox with capacity cfg.Capacity tuples.
func New[T any](cfg Config) (*Mailbox[T], error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("mailbox: capacity %d, want > 0", cfg.Capacity)
	}
	m := &Mailbox[T]{mode: cfg.Mode, capacity: cfg.Capacity, batch: cfg.Batch}
	if m.batch <= 0 {
		m.batch = DefaultBatch
	}
	switch cfg.Mode {
	case PerTuple:
		m.mode, m.batch = Batched, 1
		fallthrough
	case Batched:
		m.avail.Store(int64(cfg.Capacity))
		m.wake = make(chan struct{}, 1)
		m.batches = make(chan []T, cfg.Capacity)
		m.free = make(chan []T, cfg.Capacity)
	case SPSC:
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
// consumer (approximate under concurrency; exact when quiescent). Every
// one of them is deliverable: a sender holds nothing between calls.
func (m *Mailbox[T]) Queued() int {
	if m.mode != SPSC {
		return m.capacity - int(m.avail.Load())
	}
	// The two loads are not a consistent snapshot when sampled from a
	// third goroutine; clamp the transient skew so a reading never leaves
	// [0, capacity] (exact whenever either side is quiescent).
	q := int(m.tail.Load() - m.head.Load())
	if q < 0 {
		q = 0
	} else if q > m.capacity {
		q = m.capacity
	}
	return q
}

// Capacity returns the BAS bound the mailbox was built with.
func (m *Mailbox[T]) Capacity() int { return m.capacity }

// Occupancy reports the instantaneous depth together with the BAS bound
// in one call — the sampling hook the online service-rate estimator
// polls. Like Queued it costs one atomic read of the credit counter (two
// of the ring's indices), so a high-frequency sampler costs the dataplane
// nothing.
func (m *Mailbox[T]) Occupancy() (queued, capacity int) {
	return m.Queued(), m.capacity
}

// Pending reports how many tuples the consumer can still receive: the
// queued tuples plus, on the batched queue, the unreleased part of the
// micro-batch in hand (a batch's credits are released when it is taken,
// so Queued misses it; an unreleased ring window still occupies its slots
// and is already in Queued). It may only be called from the consumer's
// goroutine; the runtime's drain-before-pause protocol uses it to decide
// when a station has fully quiesced.
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
	if m.mode == SPSC {
		// Quiescent by contract, so head/tail are exact: everything
		// between them is an admitted, undelivered tuple. Advancing head
		// to tail frees every slot, which is the ring's "credits
		// restored" state.
		h, t := m.head.Load(), m.tail.Load()
		m.chead = t
		m.head.Store(t)
		return int(t - h)
	}
	// The unreleased part of the batch in hand left the queue when it was
	// taken.
	n := len(m.cur) - m.idx
	m.cur, m.idx = nil, 0
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
		n := min(int64(want), v)
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
// with Consume. It is the one consumer protocol of both implementations —
// the ring hands out its slots themselves (no copy), the batched queue
// the micro-batch in hand — and blocks while the mailbox is empty until a
// producer delivers or done closes (ok == false). A closed done wins over
// queued tuples, so a consumer whose inbox never runs empty still sees
// its stop signal at the next window; the tuples stay queued. The window
// stays valid until its last tuple is released; releasing fewer tuples
// than were taken is allowed, and the remainder leads the next window.
// Only the single consumer goroutine may call it.
func (m *Mailbox[T]) Peek(done <-chan struct{}) ([]T, bool) {
	select {
	case <-done:
		return nil, false
	default:
	}
	if m.mode == SPSC {
		return m.peekRing(done)
	}
	if m.idx < len(m.cur) {
		return m.cur[m.idx:], true
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

// Sender is one producer's handle on a mailbox: the mailbox plus that
// producer's shedding timeout. It holds no tuples, so on the batched
// queue any number of goroutines may share one; the ring's
// single-producer contract is the caller's to keep.
type Sender[T any] struct {
	m *Mailbox[T]
	// timeout bounds how long a send may block on a full mailbox before
	// dropping the item; zero blocks forever (pure backpressure).
	timeout time.Duration
}

// NewSender returns a producer handle. A non-zero timeout gives Akka
// BoundedMailbox shedding semantics: a send drops the item (Dropped) when
// no capacity credit frees up within the timeout.
func (m *Mailbox[T]) NewSender(timeout time.Duration) *Sender[T] {
	return &Sender[T]{m: m, timeout: timeout}
}

// Send admits one item — the one-tuple form of SendMany — blocking while
// the mailbox holds its full capacity in tuples. done aborts a blocked
// send (Closed).
func (s *Sender[T]) Send(t T, done <-chan struct{}) SendResult {
	one := [1]T{t}
	switch _, dropped, ok := s.SendMany(one[:], done); {
	case !ok:
		return Closed
	case dropped > 0:
		return Dropped
	}
	return Sent
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
			got := m.tryAcquireN(1) == 1
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
// repeated Send calls — capacity is accounted per tuple, a full mailbox
// blocks at the same queue depth, and with a timeout each blocked tuple
// gets its own timeout window and is shed individually (items already
// admitted are never dropped). Every admitted item is queued before the
// call returns. What the bulk path buys is amortization: free credits are
// taken in one CAS and queued as one micro-batch per run of items.
func (s *Sender[T]) SendMany(ts []T, done <-chan struct{}) (sent, dropped int, ok bool) {
	m := s.m
	if m.mode == SPSC {
		return s.sendManyRing(ts, done)
	}
	for i := 0; i < len(ts); {
		n := m.tryAcquireN(len(ts) - i)
		if n == 0 {
			// Blocked: wait for one credit at a time so shedding stays
			// per-tuple, then take whatever else the release freed.
			switch m.waitCredit(s.timeout, done) {
			case Sent:
				n = 1 + m.tryAcquireN(len(ts)-i-1)
			case Dropped:
				dropped++
				i++
				continue
			default:
				return sent, dropped, false
			}
		}
		// Every tuple queued holds a credit, so at most Capacity batches
		// exist and the channel send cannot block (see the batches field).
		for run := ts[i : i+n]; len(run) > 0; {
			k := min(len(run), m.batch)
			m.batches <- append(m.getBuf(), run[:k]...)
			run = run[k:]
		}
		sent += n
		i += n
	}
	return sent, dropped, true
}
