package mailbox

import (
	"sync"
	"testing"
	"time"
)

// modes lists every constructible mode — both implementations plus
// PerTuple, the batched queue at Batch 1; the suites below drive at most
// one producer goroutine at a time, so the SPSC ring is a legal target.
func modes() []Mode { return []Mode{PerTuple, Batched, SPSC} }

// transports lists the two implementations for the suites whose subject
// is the window protocol itself, where PerTuple is only a smaller Batch.
func transports() []Mode { return []Mode{Batched, SPSC} }

// TestBASCapacityExact pins the core BAS invariant for both transports: a
// mailbox of capacity C admits exactly C tuples with no consumer running,
// regardless of batch size, and the C+1-th send blocks.
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
			// One Recv frees capacity (per-tuple: one slot; batched: the
			// dequeued batch's credits) and unblocks the sender.
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
				if m.mode == SPSC {
					return m.tail.Load() != m.chead
				}
				return m.idx < len(m.cur) || len(m.batches) > 0
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
// A station whose ring inbox never ran empty once ignored its pause
// request until the reconfiguration's stall budget expired.
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

// TestConcurrentSenders drives many producers through one mailbox in both
// modes and checks exactly-once delivery (run under -race in CI).
func TestConcurrentSenders(t *testing.T) {
	const senders, each = 8, 2000
	// Multi-producer by construction, so only the MPSC transports apply
	// (the SPSC ring's single-producer contract is the analyzer's to
	// prove, not the mailbox's to tolerate).
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
	// Auto is the zero value and a policy, not a transport.
	if _, err := New[int](Config{Capacity: 1}); err == nil {
		t.Error("unresolved Auto accepted")
	}
}

// TestPerTupleIsBatchOne pins the one thing PerTuple still means: the
// batched queue with the window forced to one tuple, whatever Batch says.
func TestPerTupleIsBatchOne(t *testing.T) {
	m, err := New[int](Config{Capacity: 8, Mode: PerTuple, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != Batched {
		t.Fatalf("Mode = %v, want the batched queue", m.Mode())
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

// TestWindowProtocolAllTransports drives the one consumer protocol on
// every transport against a concurrent producer: windows are at most
// Batch long, a partial Consume leaves the remainder at the head of the
// next window, Recv and Peek interleave, and delivery is exactly-once in
// FIFO order.
func TestWindowProtocolAllTransports(t *testing.T) {
	const total, batch = 20000, 5
	for _, mode := range transports() {
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
			// at zero (a stale window cursor once made Pending negative).
			aborted := make(chan struct{})
			close(aborted)
			if _, ok := m.Peek(aborted); ok {
				t.Fatal("Peek on an empty mailbox with done closed returned a window")
			}
			if p, d := m.Pending(), m.Drain(); p != 0 || d != 0 {
				t.Fatalf("after exact delivery Pending = %d, Drain = %d; want 0, 0", p, d)
			}
		})
	}
}

// TestConsumerSideAllocatesNothing pins the consumer half of both
// transports at zero allocations per window, entered through the thin
// RecvBatch/Recycle forms so they are covered too.
func TestConsumerSideAllocatesNothing(t *testing.T) {
	const capacity, batch, runs = 4096, 16, 200
	for _, mode := range transports() {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			fill := make([]int, capacity)
			if sent, _, ok := m.NewSender(0).SendMany(fill, nil); !ok || sent != capacity {
				t.Fatalf("prefill sent %d, ok %v", sent, ok)
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
