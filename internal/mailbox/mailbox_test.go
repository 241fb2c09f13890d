package mailbox

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// modes lists the modes the suites run on. They all build the one queue:
// PerTuple at Batch 1, Batched at the configured Batch, and SPSC — a
// name kept for bench/ — like Batched; its rows pin that it still builds
// a working queue.
func modes() []Mode { return []Mode{PerTuple, Batched, SPSC} }

// TestBASCapacityExact pins the core BAS invariant: a mailbox of capacity
// C admits exactly C tuples with no consumer running, regardless of batch
// size, and the C+1-th send blocks.
func TestBASCapacityExact(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			const capacity = 5
			// Batch larger than the capacity: credits, not batch-full
			// flushes, must provide the bound.
			m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: 64})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			s := m.NewSender(0)
			for i := 0; i < capacity; i++ {
				if got := s.Send(i, done); got != Sent {
					t.Fatalf("send %d = %v, want Sent", i, got)
				}
			}
			if q := m.Queued(); q != capacity {
				t.Fatalf("Queued = %d, want %d", q, capacity)
			}
			blocked := make(chan SendResult, 1)
			go func() { blocked <- s.Send(capacity, done) }()
			select {
			case r := <-blocked:
				t.Fatalf("send %d returned %v, want block at exactly C queued tuples", capacity, r)
			case <-time.After(50 * time.Millisecond):
			}
			// One Recv releases one tuple, whose credit unblocks the
			// sender.
			if _, ok := m.Recv(done); !ok {
				t.Fatal("Recv failed")
			}
			select {
			case r := <-blocked:
				if r != Sent {
					t.Fatalf("unblocked send = %v, want Sent", r)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("sender still blocked after capacity freed")
			}
		})
	}
}

// TestTimeoutDropsOnlyUnadmitted pins the shedding contract: a send
// timeout rejects only the item being admitted — items that already
// entered the mailbox (including a partially filled batch) are never
// dropped and arrive in order.
func TestTimeoutDropsOnlyUnadmitted(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			const capacity = 4
			m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: 3})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			s := m.NewSender(5 * time.Millisecond)
			for i := 0; i < capacity; i++ {
				if got := s.Send(i, done); got != Sent {
					t.Fatalf("send %d = %v, want Sent", i, got)
				}
			}
			for i := capacity; i < capacity+3; i++ {
				if got := s.Send(i, done); got != Dropped {
					t.Fatalf("send %d = %v, want Dropped", i, got)
				}
			}
			// Every admitted tuple is delivered exactly once, in order,
			// despite the drops that followed.
			for i := 0; i < capacity; i++ {
				v, ok := m.Recv(done)
				if !ok || v != i {
					t.Fatalf("Recv = %d,%v, want %d,true", v, ok, i)
				}
			}
			if q := m.Queued(); q != 0 {
				t.Fatalf("Queued = %d after drain, want 0", q)
			}
		})
	}
}

// TestSenderHoldsNothingBetweenCalls pins what the occupancy the estimator
// samples means: once a Send or SendMany has returned, every tuple Queued
// counts is one the consumer can take at once — no partly filled batch
// sits with the sender, credited and counted but invisible until a batch
// fills or a linger timer fires. It replaces TestBatchFullFlush and
// TestLingerFlushesPartialBatch, whose subject (the sender-side batch and
// its two flush triggers) no longer exists; in-order delivery of full
// batches stays covered by TestWindowProtocolAllTransports.
func TestSenderHoldsNothingBetweenCalls(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 64, Mode: mode, Batch: 16})
			if err != nil {
				t.Fatal(err)
			}
			s := m.NewSender(0)
			// takeable guards Peek against blocking: the test must see
			// what is deliverable now, not what a timer delivers later.
			takeable := func() bool {
				return m.idx < len(m.cur) || m.held != nil || len(m.batches) > 0
			}
			check := func(step string) {
				t.Helper()
				queued, taken := m.Queued(), 0
				for takeable() {
					w, _ := m.Peek(nil)
					taken += len(w)
					m.Consume(len(w))
				}
				if queued == 0 || taken != queued {
					t.Fatalf("after %s: Queued = %d but the consumer could take %d", step, queued, taken)
				}
			}
			if r := s.Send(1, nil); r != Sent {
				t.Fatalf("Send = %v", r)
			}
			check("one Send below Batch")
			for i := 0; i < 3; i++ {
				if r := s.Send(i, nil); r != Sent {
					t.Fatalf("Send = %v", r)
				}
			}
			check("three Sends below Batch")
			for _, n := range []int{5, 16, 40} {
				if sent, _, ok := s.SendMany(make([]int, n), nil); !ok || sent != n {
					t.Fatalf("SendMany(%d) sent %d, ok %v", n, sent, ok)
				}
				check("SendMany")
			}
		})
	}
}

// TestDoneUnblocksBothSides verifies closing done aborts a blocked send
// and a blocked receive.
func TestDoneUnblocksBothSides(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 1, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			s := m.NewSender(0)
			if r := s.Send(1, done); r != Sent {
				t.Fatalf("Send = %v", r)
			}
			res := make(chan SendResult, 1)
			recvOK := make(chan bool, 1)
			go func() { res <- s.Send(2, done) }()
			empty, err := New[int](Config{Capacity: 1, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			go func() { _, ok := empty.Recv(done); recvOK <- ok }()
			time.Sleep(10 * time.Millisecond)
			close(done)
			if r := <-res; r != Closed {
				t.Errorf("blocked send = %v, want Closed", r)
			}
			if ok := <-recvOK; ok {
				t.Error("blocked recv returned ok after done")
			}
		})
	}
}

// TestClosedDoneWinsOverQueuedTuples pins the stop half of Peek: with done
// closed the take is refused however much is queued, and nothing is lost.
// A station whose inbox never ran empty once ignored its pause request
// until the reconfiguration's stall budget expired.
func TestClosedDoneWinsOverQueuedTuples(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 8, Mode: mode, Batch: 4})
			if err != nil {
				t.Fatal(err)
			}
			if sent, _, ok := m.NewSender(0).SendMany(make([]int, 8), nil); !ok || sent != 8 {
				t.Fatalf("prefill sent %d, ok %v", sent, ok)
			}
			if w, ok := m.Peek(nil); !ok || len(w) == 0 {
				t.Fatal("Peek refused a full mailbox")
			}
			m.Consume(1) // leave a window part-way through, too
			closed := make(chan struct{})
			close(closed)
			for i := 0; i < 50; i++ {
				if w, ok := m.Peek(closed); ok {
					t.Fatalf("Peek handed out %d tuples with done closed", len(w))
				}
			}
			if got := m.Drain(); got != 7 {
				t.Fatalf("Drain = %d, want the 7 unreleased tuples", got)
			}
		})
	}
}

// TestConcurrentSenders drives many producers through one mailbox at
// Batch 1 and 8 and checks exactly-once delivery (run under -race in CI).
func TestConcurrentSenders(t *testing.T) {
	const senders, each = 8, 2000
	for _, mode := range []Mode{PerTuple, Batched} {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 16, Mode: mode, Batch: 8})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := m.NewSender(0)
					for i := 0; i < each; i++ {
						if s.Send(g*each+i, done) != Sent {
							t.Errorf("sender %d: unexpected non-Sent", g)
							return
						}
					}
				}(g)
			}
			seen := make(map[int]bool, senders*each)
			for len(seen) < senders*each {
				v, ok := m.Recv(done)
				if !ok {
					t.Fatal("Recv aborted")
				}
				if seen[v] {
					t.Fatalf("tuple %d delivered twice", v)
				}
				seen[v] = true
			}
			wg.Wait()
			close(done)
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](Config{Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New[int](Config{Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New[int](Config{Capacity: 1, Mode: Mode(42)}); err == nil {
		t.Error("unknown mode accepted")
	}
	// Every declared mode builds the queue, the zero value Auto included.
	for _, mode := range []Mode{Auto, Batched, PerTuple, SPSC} {
		if _, err := New[int](Config{Capacity: 1, Mode: mode}); err != nil {
			t.Errorf("mode %v rejected: %v", mode, err)
		}
	}
}

// TestPerTupleIsBatchOne pins the one thing PerTuple still means: the
// batched queue with the window forced to one tuple, whatever Batch says.
func TestPerTupleIsBatchOne(t *testing.T) {
	m, err := New[int](Config{Capacity: 8, Mode: PerTuple, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if sent, _, ok := m.NewSender(0).SendMany(make([]int, 5), nil); !ok || sent != 5 {
		t.Fatalf("SendMany sent %d, ok %v", sent, ok)
	}
	for i := 0; i < 5; i++ {
		w, _ := m.Peek(nil)
		if len(w) != 1 {
			t.Fatalf("window %d holds %d tuples, want 1", i, len(w))
		}
		m.Consume(1)
	}
}

// TestWindowProtocolAllTransports drives the one consumer protocol in
// every mode against a concurrent producer: windows are at most Batch
// long, a partial Consume leaves the remainder at the head of the next
// window, Recv and Peek interleave, and delivery is exactly-once in FIFO
// order.
func TestWindowProtocolAllTransports(t *testing.T) {
	const total, batch = 20000, 5
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 7, Mode: mode, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			defer close(done)
			go func() {
				s := m.NewSender(0)
				buf := make([]int, 0, 9)
				for i := 0; i < total; {
					buf = buf[:0]
					for k := 0; k < 1+i%9 && i+k < total; k++ {
						buf = append(buf, i+k)
					}
					if _, _, ok := s.SendMany(buf, done); !ok {
						return
					}
					i += len(buf)
				}
			}()
			next := 0
			for step := 0; next < total; step++ {
				if step%3 == 0 {
					v, ok := m.Recv(done)
					if !ok || v != next {
						t.Fatalf("Recv = %d, %v; want %d", v, ok, next)
					}
					next++
					continue
				}
				win, ok := m.Peek(done)
				if !ok {
					t.Fatal("Peek aborted")
				}
				if len(win) == 0 || len(win) > batch {
					t.Fatalf("window of %d tuples, want 1..%d", len(win), batch)
				}
				n := len(win)
				if step%4 == 0 {
					n = 1 // release a strict prefix; the rest must reappear
				}
				for _, v := range win[:n] {
					if v != next {
						t.Fatalf("tuple %d arrived as %d", next, v)
					}
					next++
				}
				m.Consume(n)
			}
			// An aborted take on the drained mailbox must leave the books
			// at zero (a stale window cursor once made the count negative).
			aborted := make(chan struct{})
			close(aborted)
			if _, ok := m.Peek(aborted); ok {
				t.Fatal("Peek on an empty mailbox with done closed returned a window")
			}
			if q, d := m.Queued(), m.Drain(); q != 0 || d != 0 {
				t.Fatalf("after exact delivery Queued = %d, Drain = %d; want 0, 0", q, d)
			}
		})
	}
}

// TestConsumerSideAllocatesNothing pins the consumer half at zero
// allocations per window, entered through the thin RecvBatch/Recycle
// forms so they are covered too. The prefill arrives in runs of 3, so
// every window is merged from several queued batches and leaves one
// waiting.
func TestConsumerSideAllocatesNothing(t *testing.T) {
	const capacity, batch, runs = 4096, 16, 200
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			s := m.NewSender(0)
			for i := 0; i+3 <= capacity; i += 3 {
				if sent, _, ok := s.SendMany(make([]int, 3), nil); !ok || sent != 3 {
					t.Fatalf("prefill sent %d, ok %v", sent, ok)
				}
			}
			taken := 0
			allocs := testing.AllocsPerRun(runs, func() {
				b, _ := m.RecvBatch(nil)
				taken += len(b)
				m.Recycle(b)
			})
			if allocs != 0 {
				t.Errorf("%v allocations per window, want 0", allocs)
			}
			if taken == 0 || taken > capacity {
				t.Fatalf("took %d tuples from %d queued", taken, capacity)
			}
		})
	}
}

// The TestSPSC* suites drive a single producer and a single consumer
// (SPSC) through the queue in every mode.

// TestSPSCFIFOProperty drives one producer and one consumer with
// randomized run lengths on both sides (Send vs SendMany, Recv vs
// RecvBatch) and a capacity small enough to cycle the credits thousands
// of times, then asserts exactly-once in-order delivery. Run under -race
// in CI.
func TestSPSCFIFOProperty(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) { spscFIFO(t, mode) })
	}
}

func spscFIFO(t *testing.T, mode Mode) {
	const total = 50000
	rng := rand.New(rand.NewSource(1))
	m, err := New[int](Config{Capacity: 7, Mode: mode, Batch: 5})
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
	if q := m.Queued(); q != 0 {
		t.Fatalf("Queued = %d after exact delivery, want 0", q)
	}
	close(done)
}

// TestSPSCCapacityAccounting samples Queued from a third goroutine while
// the queue churns and asserts the BAS bound is never exceeded: Queued
// must stay within [0, capacity] at every instant, and Occupancy must
// agree on the bound.
func TestSPSCCapacityAccounting(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) { spscCapacity(t, mode) })
	}
}

func spscCapacity(t *testing.T, mode Mode) {
	const capacity, total = 5, 30000
	m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: 16})
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

// TestSPSCReservePublish drives the single-producer Reserve/Publish pair
// against a concurrent consumer: randomized reservation sizes and partial
// publishes (unpublished tuples must never be observed by the consumer,
// and their credits must come back). Asserts exactly-once in-order
// delivery and that no reservation exceeds Batch.
func TestSPSCReservePublish(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) { spscReservePublish(t, mode) })
	}
}

func spscReservePublish(t *testing.T, mode Mode) {
	const total, batch = 50000, 5
	m, err := New[int](Config{Capacity: 7, Mode: mode, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	var oversized atomic.Int64
	done := make(chan struct{})
	go func() {
		prng := rand.New(rand.NewSource(5))
		i := 0
		for i < total {
			win, ok := m.Reserve(1+prng.Intn(9), done)
			if !ok {
				return
			}
			if len(win) > m.batch {
				oversized.Add(1)
			}
			n := len(win)
			if i+n > total {
				n = total - i
			}
			// One in four reservations publishes a strict prefix; the
			// tail's credits must come back.
			if n > 1 && prng.Intn(4) == 0 {
				n = 1 + prng.Intn(n-1)
			}
			for k := 0; k < n; k++ {
				win[k] = i + k
			}
			// Poison the unpublished tail: if a tuple past n ever reaches
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
	if q := m.Queued(); q != 0 {
		t.Fatalf("Queued = %d after exact delivery, want 0", q)
	}
	if n := oversized.Load(); n != 0 {
		t.Fatalf("%d reservations longer than Batch %d", n, m.batch)
	}
	close(done)
}

// TestSPSCConservationUnderShedding round-trips the conservation
// identity through a shedding mailbox: with a tiny send timeout and a
// deliberately stalling consumer, every produced tuple must end up
// exactly one of delivered, dropped, or drained — and after Drain the
// mailbox must report empty (credits restored).
func TestSPSCConservationUnderShedding(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) { spscConservation(t, mode) })
	}
}

func spscConservation(t *testing.T, mode Mode) {
	const total = 4000
	m, err := New[int](Config{Capacity: 8, Mode: mode, Batch: 4})
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
			for m.Queued() > 0 && prng.Intn(4) != 0 {
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
			if q := m.Queued(); q != 0 {
				t.Fatalf("Queued = %d after Drain, want 0", q)
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
		// Only take from a non-empty mailbox: a blocking RecvBatch could
		// park past the producer's exit (close(produced) does not wake
		// the mailbox), and with a single consumer a non-zero Queued
		// guarantees the receive completes — the producer queues every
		// credit it took before its call returns.
		if m.Queued() == 0 {
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

// TestPeekCoalescesQueuedBatches pins that a window is everything queued,
// up to Batch: micro-batches queued by separate deliveries merge into one
// window, a batch that does not fit waits and leads the next window
// behind the unreleased remainder, and FIFO order holds throughout.
func TestPeekCoalescesQueuedBatches(t *testing.T) {
	m, err := New[int](Config{Capacity: 64, Mode: Batched, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSender(0)
	next := 0
	send := func(n int) {
		t.Helper()
		run := make([]int, n)
		for i := range run {
			run[i] = next
			next++
		}
		if sent, _, ok := s.SendMany(run, nil); !ok || sent != n {
			t.Fatalf("SendMany(%d) sent %d, ok %v", n, sent, ok)
		}
	}
	want := 0
	take := func(wantLen, release int) {
		t.Helper()
		w, ok := m.Peek(nil)
		if !ok || len(w) != wantLen {
			t.Fatalf("Peek = %d tuples (ok %v), want %d", len(w), ok, wantLen)
		}
		for i, v := range w {
			if v != want+i {
				t.Fatalf("window[%d] = %d, want %d", i, v, want+i)
			}
		}
		want += release
		m.Consume(release)
	}
	for i := 0; i < 3; i++ {
		send(5)
	}
	take(15, 15)
	send(20)
	send(20)
	take(20, 10) // the second 20 does not fit behind the first
	take(30, 30) // the unreleased 10 lead, the waiting batch follows
	if q, d := m.Queued(), m.Drain(); q != 0 || d != 0 {
		t.Fatalf("Queued = %d, Drain = %d after exact delivery; want 0, 0", q, d)
	}
}

// TestWindowInHandHoldsCapacity pins where credits come back: at Consume,
// not when a window is taken. A full mailbox whose tuples are all in the
// consumer's hand is still full, and the BAS bound counts them.
func TestWindowInHandHoldsCapacity(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 8, Mode: mode, Batch: 32})
			if err != nil {
				t.Fatal(err)
			}
			s := m.NewSender(5 * time.Millisecond)
			if sent, _, ok := s.SendMany(make([]int, 8), nil); !ok || sent != 8 {
				t.Fatalf("prefill sent %d, ok %v", sent, ok)
			}
			w, ok := m.Peek(nil)
			if !ok || len(w) == 0 {
				t.Fatal("Peek refused a full mailbox")
			}
			if r := s.Send(9, nil); r != Dropped {
				t.Fatalf("Send with the window in hand = %v, want Dropped", r)
			}
			if q := m.Queued(); q != 8 {
				t.Fatalf("Queued = %d with the window in hand, want 8", q)
			}
			m.Consume(len(w))
			if r := s.Send(9, nil); r != Sent {
				t.Fatalf("Send after Consume = %v, want Sent", r)
			}
			if d := m.Drain(); d != 8-len(w)+1 {
				t.Fatalf("Drain = %d, want %d", d, 8-len(w)+1)
			}
		})
	}
}
