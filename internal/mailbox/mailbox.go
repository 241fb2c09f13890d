// Package mailbox is the runtime's dataplane: a bounded, tuple-capacity-
// accounted queue connecting one producer set to a single consumer actor.
// Producers deliver with Send/SendMany, the consumer takes a window of
// queued tuples with Peek and releases it with Consume.
//
// A delivery takes one capacity credit per tuple, copies the tuples into
// recycled micro-batches of at most Batch and queues them before it
// returns. A window is everything queued, up to Batch tuples: Peek takes
// one micro-batch and appends the queued ones behind it while they fit,
// so the synchronization cost of a queue operation is amortized over the
// window whether the producers deliver in runs or one tuple at a time.
// Consume returns the released tuples' credits.
//
// This preserves Blocking-After-Service semantics exactly: a mailbox of
// capacity C holds at most C tuples that are admitted and not yet
// released — queued or in the consumer's hand — and senders block (or,
// with a send timeout, shed) beyond that, regardless of batch size.
// Capacity is accounted in tuples, never in batches, so the steady-state
// model's predictions hold. Items already admitted are never dropped — a
// send timeout can only reject the item being admitted — and a sender
// holds nothing between calls: every admitted tuple is visible to the
// consumer by the time its Send/SendMany returns.
package mailbox

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Mode names a window policy. Every mode builds the same queue; only
// PerTuple changes it, by forcing Batch to 1.
type Mode int

const (
	// Auto is the zero value: the queue at the configured Batch.
	Auto Mode = iota
	// Batched is the queue at the configured Batch, like Auto.
	Batched
	// PerTuple is the queue with Batch forced to 1: every tuple is its
	// own queue operation and its own window.
	PerTuple
	// SPSC names the single-producer ring the queue replaced; it builds
	// the queue at the configured Batch.
	//
	// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
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
	// Capacity is the BAS bound: the maximum number of admitted tuples
	// not yet released by the consumer.
	Capacity int
	// Mode selects the window policy.
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
	capacity int
	batch    int

	// avail counts free capacity credits; one credit is taken per
	// admitted tuple and returned when the consumer releases it, so
	// avail == 0 is exactly "C tuples admitted and unreleased" and blocks
	// admission (BAS). An atomic counter (with wake for blocked senders)
	// instead of a token channel keeps the per-tuple admission cost to
	// one CAS and lets the consumer return a whole window's credits in a
	// single add.
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

	// cur/idx is the consumer's window: cur the buffer in hand, idx the
	// first tuple not yet released by Consume. held is a queued batch
	// that did not fit the last window; it leads the next one. Only the
	// single consumer touches them.
	cur  []T
	idx  int
	held []T

	// res is the buffer the last Reserve handed out, until Publish.
	res []T
}

// New builds a mailbox with capacity cfg.Capacity tuples.
func New[T any](cfg Config) (*Mailbox[T], error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("mailbox: capacity %d, want > 0", cfg.Capacity)
	}
	m := &Mailbox[T]{capacity: cfg.Capacity, batch: cfg.Batch}
	if m.batch <= 0 {
		m.batch = DefaultBatch
	}
	switch cfg.Mode {
	case Auto, Batched, SPSC:
	case PerTuple:
		m.batch = 1
	default:
		return nil, fmt.Errorf("mailbox: unknown mode %v", cfg.Mode)
	}
	m.avail.Store(int64(cfg.Capacity))
	m.wake = make(chan struct{}, 1)
	m.batches = make(chan []T, cfg.Capacity)
	m.free = make(chan []T, cfg.Capacity)
	return m, nil
}

// Queued reports the number of admitted tuples the consumer has not yet
// released — queued or in its hand (approximate under concurrency; exact
// when quiescent). Every one of them is deliverable: a sender holds
// nothing between calls.
func (m *Mailbox[T]) Queued() int { return m.capacity - int(m.avail.Load()) }

// Capacity returns the BAS bound the mailbox was built with.
func (m *Mailbox[T]) Capacity() int { return m.capacity }

// Occupancy reports the instantaneous depth together with the BAS bound
// in one call — the sampling hook the online service-rate estimator
// polls. Like Queued it costs one atomic read of the credit counter, so a
// high-frequency sampler costs the dataplane nothing.
func (m *Mailbox[T]) Occupancy() (queued, capacity int) {
	return m.Queued(), m.capacity
}

// Blocked returns the number of send episodes that found the mailbox at
// capacity and had to wait for a credit (or shed on timeout) — one count
// per stall, not per tuple. It is the mailbox's backpressure signal.
func (m *Mailbox[T]) Blocked() uint64 { return m.blocked.Load() }

// Drain removes and counts every tuple still queued — including the
// unreleased remainder of the window in hand — returning their capacity
// credits so the mailbox ends back at full capacity. It must only be
// called once all producers and the consumer have stopped; the runtime's
// drain-on-shutdown pass uses it to account for in-flight tuples, and
// Queued() == 0 afterwards is the "credits restored" invariant the chaos
// suite checks.
func (m *Mailbox[T]) Drain() int {
	n := len(m.cur) - m.idx + len(m.held)
	m.cur, m.idx, m.held = nil, 0, nil
	for {
		select {
		case b := <-m.batches:
			n += len(b)
		default:
			m.release(n)
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

// Peek takes the consumer's next window: everything queued, up to Batch
// tuples, that the consumer reads (or mutates) in place and releases with
// Consume. The unreleased remainder of the previous window leads it, and
// queued micro-batches are appended behind while they fit; one that does
// not fit waits to lead the next window, so FIFO order holds. Peek blocks
// while the mailbox is empty until a producer delivers or done closes
// (ok == false). A closed done wins over queued tuples, so a consumer
// whose inbox never runs empty still sees its stop signal at the next
// window; the tuples stay queued. The window is valid until the next Peek
// or Drain. Only the single consumer goroutine may call it.
func (m *Mailbox[T]) Peek(done <-chan struct{}) ([]T, bool) {
	select {
	case <-done:
		return nil, false
	default:
	}
	switch {
	case m.idx == len(m.cur):
		if m.cur != nil {
			m.putBuf(m.cur)
			m.cur, m.idx = nil, 0
		}
		if m.held == nil {
			select {
			case m.held = <-m.batches:
			case <-done:
				return nil, false
			}
		}
		m.cur, m.held = m.held, nil
	case m.idx > 0:
		m.cur = m.cur[:copy(m.cur, m.cur[m.idx:])]
		m.idx = 0
	}
	for len(m.cur) < m.batch {
		b := m.held
		if b == nil {
			select {
			case b = <-m.batches:
			default:
				return m.cur, true
			}
		}
		if len(m.cur)+len(b) > m.batch {
			m.held = b
			break
		}
		m.held = nil
		m.cur = append(m.cur, b...)
		m.putBuf(b)
	}
	return m.cur, true
}

// Consume releases the first n tuples of the window Peek handed out and
// returns their capacity credits, waking a sender blocked on a full
// mailbox.
func (m *Mailbox[T]) Consume(n int) {
	if n == 0 {
		return
	}
	m.idx += n
	m.release(n)
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

// Reserve hands a single producer a buffer of up to min(limit, Batch)
// tuples to fill in place, holding one capacity credit per tuple: it
// blocks under BAS until one credit is free (ignoring any send timeout)
// or done closes (ok == false; nothing was reserved), then takes what
// else is free up to the length. Each Reserve must be completed by
// Publish before the next.
//
// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
func (m *Mailbox[T]) Reserve(limit int, done <-chan struct{}) ([]T, bool) {
	want := min(max(limit, 1), m.batch)
	n := m.tryAcquireN(want)
	if n == 0 {
		if m.waitCredit(0, done) != Sent {
			return nil, false
		}
		n = 1 + m.tryAcquireN(want-1)
	}
	m.res = m.getBuf()[:n]
	return m.res, true
}

// Publish queues the first n tuples of the last reservation as one
// micro-batch and returns the credits of the rest.
//
// Deprecated: bench/ is the only caller. ROADMAP item 1(c) removes it.
func (m *Mailbox[T]) Publish(n int) {
	b := m.res
	m.res = nil
	if n < len(b) {
		m.release(len(b) - n)
	}
	if n == 0 {
		m.putBuf(b)
		return
	}
	m.batches <- b[:n]
}

// Sender is one producer's handle on a mailbox: the mailbox plus that
// producer's shedding timeout. It holds no tuples, so any number of
// goroutines may share one.
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
