package mailbox

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestSPSCFIFOProperty drives one producer and one consumer through the
// ring with randomized run lengths on both sides (Send vs SendMany,
// Recv vs RecvBatch) and a capacity small enough to wrap the ring
// thousands of times, then asserts exactly-once in-order delivery.
// Run under -race in CI: the only synchronization on the hot path is the
// ring's own index protocol, so this is the memory-model property test.
func TestSPSCFIFOProperty(t *testing.T) {
	const total = 50000
	rng := rand.New(rand.NewSource(1))
	m, err := New[int](Config{Capacity: 7, Mode: SPSC, Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s := m.NewSender(0)
		prng := rand.New(rand.NewSource(2))
		i := 0
		for i < total {
			if prng.Intn(3) == 0 {
				if s.Send(i, done) != Sent {
					return
				}
				i++
				continue
			}
			n := 1 + prng.Intn(13)
			if i+n > total {
				n = total - i
			}
			run := make([]int, n)
			for k := range run {
				run[k] = i + k
			}
			sent, dropped, ok := s.SendMany(run, done)
			if !ok || dropped != 0 || sent != n {
				return
			}
			i += n
		}
	}()
	next := 0
	for next < total {
		if rng.Intn(3) == 0 {
			v, ok := m.Recv(done)
			if !ok {
				t.Fatal("Recv aborted")
			}
			if v != next {
				t.Fatalf("tuple %d arrived as %d: FIFO violated", next, v)
			}
			next++
			continue
		}
		b, ok := m.RecvBatch(done)
		if !ok {
			t.Fatal("RecvBatch aborted")
		}
		for _, v := range b {
			if v != next {
				t.Fatalf("tuple %d arrived as %d: FIFO violated", next, v)
			}
			next++
		}
		m.Recycle(b)
	}
	if q := m.Pending(); q != 0 {
		t.Fatalf("Pending = %d after exact delivery, want 0", q)
	}
	close(done)
}

// TestSPSCCapacityAccounting samples Queued from a third goroutine while
// the ring churns and asserts the BAS bound is never exceeded: slot
// accounting is tuple accounting, so Queued must stay within
// [0, capacity] at every instant, and Occupancy must agree on the bound.
func TestSPSCCapacityAccounting(t *testing.T) {
	const capacity, total = 5, 30000
	m, err := New[int](Config{Capacity: capacity, Mode: SPSC, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var consumed atomic.Int64
	var violations atomic.Int64
	stop := make(chan struct{})
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, c := m.Occupancy()
			if q < 0 || q > c || c != capacity {
				violations.Add(1)
			}
		}
	}()
	go func() {
		s := m.NewSender(0)
		buf := make([]int, 0, 9)
		for i := 0; i < total; {
			n := 1 + i%9
			if i+n > total {
				n = total - i
			}
			buf = buf[:0]
			for k := 0; k < n; k++ {
				buf = append(buf, i+k)
			}
			if _, _, ok := s.SendMany(buf, done); !ok {
				return
			}
			i += n
		}
	}()
	for consumed.Load() < total {
		b, ok := m.RecvBatch(done)
		if !ok {
			t.Fatal("RecvBatch aborted")
		}
		consumed.Add(int64(len(b)))
		m.Recycle(b)
	}
	close(stop)
	<-sampler
	if v := violations.Load(); v > 0 {
		t.Fatalf("observed %d occupancy readings outside [0, %d]", v, capacity)
	}
	close(done)
}

// TestSPSCReservePublish drives the zero-copy produce path against a
// concurrent consumer: randomized reservation sizes, partial publishes
// (unpublished slots must be silently returned by the next Reserve, never
// observed by the consumer), and a capacity small enough to wrap the ring
// thousands of times. Asserts exactly-once in-order delivery. Run under
// -race in CI: Reserve/Publish writes ring slots the consumer reads with
// no lock, so this is the reservation protocol's memory-model test.
func TestSPSCReservePublish(t *testing.T) {
	const total = 50000
	m, err := New[int](Config{Capacity: 7, Mode: SPSC, Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		prng := rand.New(rand.NewSource(5))
		i := 0
		for i < total {
			win, ok := m.Reserve(1+prng.Intn(9), done)
			if !ok {
				return
			}
			n := len(win)
			if i+n > total {
				n = total - i
			}
			// One in four reservations publishes a strict prefix; the
			// tail slots must come back from the next Reserve.
			if n > 1 && prng.Intn(4) == 0 {
				n = 1 + prng.Intn(n-1)
			}
			for k := 0; k < n; k++ {
				win[k] = i + k
			}
			// Poison the unpublished tail: if a slot past n ever reaches
			// the consumer, the FIFO check below catches the sentinel.
			for k := n; k < len(win); k++ {
				win[k] = -1
			}
			m.Publish(n)
			i += n
		}
	}()
	rng := rand.New(rand.NewSource(6))
	next := 0
	for next < total {
		switch rng.Intn(3) {
		case 0:
			v, ok := m.Recv(done)
			if !ok {
				t.Fatal("Recv aborted")
			}
			if v != next {
				t.Fatalf("tuple %d arrived as %d: reservation protocol broke FIFO", next, v)
			}
			next++
		case 1:
			b, ok := m.RecvBatch(done)
			if !ok {
				t.Fatal("RecvBatch aborted")
			}
			for _, v := range b {
				if v != next {
					t.Fatalf("tuple %d arrived as %d: reservation protocol broke FIFO", next, v)
				}
				next++
			}
			m.Recycle(b)
		default:
			// The zero-copy consume path, sometimes releasing only a
			// prefix: the unconsumed tail must reappear at the next take.
			win, ok := m.Peek(done)
			if !ok {
				t.Fatal("Peek aborted")
			}
			n := len(win)
			if n > 1 && rng.Intn(4) == 0 {
				n = 1 + rng.Intn(n-1)
			}
			for _, v := range win[:n] {
				if v != next {
					t.Fatalf("tuple %d peeked as %d: consume protocol broke FIFO", next, v)
				}
				next++
			}
			m.Consume(n)
		}
	}
	if q := m.Pending(); q != 0 {
		t.Fatalf("Pending = %d after exact delivery, want 0", q)
	}
	close(done)
}

// TestReserveRequiresSPSC pins the guard: the reservation protocol is
// licensed by the single-producer proof, so Reserve and Publish must
// refuse MPSC mailboxes outright. (The consumer half, Peek/Consume, is
// total: every mailbox has a single consumer.)
func TestReserveRequiresSPSC(t *testing.T) {
	for _, mode := range []Mode{PerTuple, Batched} {
		m, err := New[int](Config{Capacity: 8, Mode: mode, Batch: 4})
		if err != nil {
			t.Fatal(err)
		}
		for name, call := range map[string]func(){
			"Reserve": func() { m.Reserve(1, nil) },
			"Publish": func() { m.Publish(0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %v mailbox did not panic", name, mode)
					}
				}()
				call()
			}()
		}
	}
}

// TestSPSCConservationUnderShedding round-trips the conservation
// identity through a shedding ring: with a tiny send timeout and a
// deliberately stalling consumer, every produced tuple must end up
// exactly one of delivered, dropped, or drained — and after Drain the
// ring must report empty (credits restored).
func TestSPSCConservationUnderShedding(t *testing.T) {
	const total = 4000
	m, err := New[int](Config{Capacity: 8, Mode: SPSC, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var sent, dropped atomic.Int64
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		s := m.NewSender(200 * time.Microsecond)
		prng := rand.New(rand.NewSource(3))
		for i := 0; i < total; {
			n := 1 + prng.Intn(6)
			if i+n > total {
				n = total - i
			}
			run := make([]int, n)
			for k := range run {
				run[k] = i + k
			}
			ns, nd, ok := s.SendMany(run, done)
			sent.Add(int64(ns))
			dropped.Add(int64(nd))
			if !ok {
				t.Error("SendMany aborted with done open")
				return
			}
			i += n
		}
	}()
	delivered := 0
	deadline := time.After(30 * time.Second)
	prng := rand.New(rand.NewSource(4))
	for {
		select {
		case <-produced:
			// Producer finished; take what is immediately pending, leave
			// the rest for Drain.
			for m.Pending() > 0 && prng.Intn(4) != 0 {
				b, ok := m.RecvBatch(done)
				if !ok {
					t.Fatal("RecvBatch aborted")
				}
				delivered += len(b)
				m.Recycle(b)
			}
			drained := m.Drain()
			if got := delivered + int(dropped.Load()) + drained; got != total {
				t.Fatalf("conservation violated: delivered %d + dropped %d + drained %d = %d, want %d",
					delivered, dropped.Load(), drained, got, total)
			}
			if int(sent.Load())+int(dropped.Load()) != total {
				t.Fatalf("producer accounting: sent %d + dropped %d != %d", sent.Load(), dropped.Load(), total)
			}
			if q := m.Pending(); q != 0 {
				t.Fatalf("Pending = %d after Drain, want 0", q)
			}
			close(done)
			return
		case <-deadline:
			t.Fatal("conservation test did not complete")
		default:
		}
		// Stall sometimes so the producer's timeout fires and sheds.
		if prng.Intn(3) == 0 {
			time.Sleep(time.Duration(prng.Intn(800)) * time.Microsecond)
			continue
		}
		// Only take from a non-empty ring: a blocking RecvBatch could park
		// past the producer's exit (close(produced) does not wake the
		// ring), and with a single consumer a non-zero Pending guarantees
		// the receive completes without parking.
		if m.Pending() == 0 {
			continue
		}
		b, ok := m.RecvBatch(done)
		if !ok {
			t.Fatal("RecvBatch aborted")
		}
		delivered += len(b)
		m.Recycle(b)
	}
}
