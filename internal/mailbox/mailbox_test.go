package mailbox

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// modes lists every concrete transport; the suites below drive at most
// one producer goroutine at a time, so the SPSC ring is a legal target.
func modes() []Mode { return []Mode{PerTuple, Batched, SPSC} }

// TestBASCapacityExact pins the core BAS invariant for both transports: a
// mailbox of capacity C admits exactly C tuples with no consumer running,
// regardless of batch size, and the C+1-th send blocks.
func TestBASCapacityExact(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			const capacity = 5
			// Batch larger than the capacity: credits, not batch-full
			// flushes, must provide the bound.
			m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: 64, Linger: time.Hour})
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
			m, err := New[int](Config{Capacity: capacity, Mode: mode, Batch: 3, Linger: time.Hour})
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

// TestBatchFullFlush verifies a full batch reaches the consumer without
// waiting for the linger.
func TestBatchFullFlush(t *testing.T) {
	m, err := New[int](Config{Capacity: 64, Mode: Batched, Batch: 4, Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	s := m.NewSender(0)
	for i := 0; i < 4; i++ {
		if r := s.Send(i, done); r != Sent {
			t.Fatalf("Send(%d) = %v", i, r)
		}
	}
	deadline := time.After(2 * time.Second)
	got := make(chan int, 4)
	go func() {
		for i := 0; i < 4; i++ {
			v, ok := m.Recv(done)
			if !ok {
				return
			}
			got <- v
		}
	}()
	for i := 0; i < 4; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("tuple %d = %d, want in-order delivery", i, v)
			}
		case <-deadline:
			t.Fatal("full batch did not flush")
		}
	}
}

// TestLingerFlushesPartialBatch verifies low-rate edges don't stall: a
// partial batch is delivered within the linger bound.
func TestLingerFlushesPartialBatch(t *testing.T) {
	m, err := New[int](Config{Capacity: 64, Mode: Batched, Batch: 1024, Linger: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	s := m.NewSender(0)
	start := time.Now()
	if r := s.Send(7, done); r != Sent {
		t.Fatalf("Send = %v", r)
	}
	v, ok := m.Recv(done)
	if !ok || v != 7 {
		t.Fatalf("Recv = %d,%v", v, ok)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("partial batch took %v to arrive", d)
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

// TestConcurrentSenders drives many producers through one mailbox in both
// modes and checks exactly-once delivery (run under -race in CI).
func TestConcurrentSenders(t *testing.T) {
	const senders, each = 8, 2000
	// Multi-producer by construction, so only the MPSC transports apply
	// (the SPSC ring's single-producer contract is the analyzer's to
	// prove, not the mailbox's to tolerate).
	for _, mode := range []Mode{PerTuple, Batched} {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := New[int](Config{Capacity: 16, Mode: mode, Batch: 8, Linger: 100 * time.Microsecond})
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
					s.Flush()
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

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{
		"": PerTuple, "tuple": PerTuple, "per-tuple": PerTuple,
		"batch": Batched, "batched": Batched,
		"spsc": SPSC, "ring": SPSC,
		"auto": Auto, "plan": Auto,
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseMode("bogus")
	if err == nil {
		t.Fatal("ParseMode accepted bogus mode")
	}
	// The error is the flag's usage text: it must enumerate every valid
	// spelling so a typo tells the operator what to type instead.
	for _, mode := range []Mode{PerTuple, Batched, SPSC, Auto} {
		if !strings.Contains(err.Error(), mode.String()) {
			t.Errorf("ParseMode error %q does not mention mode %q", err, mode)
		}
	}
	if PerTuple.String() != "tuple" || Batched.String() != "batch" ||
		SPSC.String() != "spsc" || Auto.String() != "auto" {
		t.Error("Mode.String not canonical")
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
}

// TestWindowProtocolAllTransports drives the one consumer protocol on
// every transport against a concurrent producer: windows are at most
// Batch long, a partial Consume leaves the remainder at the head of the
// next window, Recv and Peek interleave, and delivery is exactly-once in
// FIFO order.
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

// TestConsumerSideAllocatesNothing pins the consumer half of every
// transport at zero allocations per window. It enters through
// RecvBatch/Recycle because that is where the per-tuple transport used to
// allocate a fresh one-item slice per tuple — the default mode's hot path.
func TestConsumerSideAllocatesNothing(t *testing.T) {
	const capacity, batch, runs = 4096, 16, 200
	for _, mode := range modes() {
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
