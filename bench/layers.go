package main

import (
	goruntime "runtime"
	"sync"
	"time"

	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
)

// micro is one mailbox protocol driven flat out by producer goroutines
// and a consumer, nothing else: the mailbox layer's own cost.
type micro struct {
	nsPerTuple, allocsPerTuple float64
}

const (
	microCapacity = 512
	microBatch    = 128
)

// mailboxMicro moves tuples through one mailbox for dur. SPSC uses the
// zero-copy Reserve/Publish ↔ Peek/Consume protocol, Batched uses
// SendMany ↔ RecvBatch, PerTuple uses Send ↔ Recv — the pairs the
// runtime's station loops use on each transport.
func mailboxMicro(mode mailbox.Mode, producers int, dur time.Duration) (micro, error) {
	mb, err := mailbox.New[operators.Tuple](mailbox.Config{Capacity: microCapacity, Mode: mode, Batch: microBatch})
	if err != nil {
		return micro{}, err
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			produce(mb, mode, done)
		}()
	}
	stop := time.AfterFunc(dur, func() { close(done) })
	defer stop.Stop()
	n := consume(mb, mode, done)
	wall := time.Since(start)
	wg.Wait()
	goruntime.ReadMemStats(&after)
	if n == 0 {
		n = 1
	}
	return micro{
		nsPerTuple:     float64(wall.Nanoseconds()) / float64(n),
		allocsPerTuple: float64(after.Mallocs-before.Mallocs) / float64(n),
	}, nil
}

func produce(mb *mailbox.Mailbox[operators.Tuple], mode mailbox.Mode, done <-chan struct{}) {
	var seq uint64
	switch mode {
	case mailbox.SPSC:
		for {
			win, ok := mb.Reserve(microBatch, done)
			if !ok {
				return
			}
			for i := range win {
				seq++
				win[i] = operators.Tuple{Seq: seq}
			}
			mb.Publish(len(win))
		}
	case mailbox.Batched:
		s := mb.NewSender(0)
		buf := make([]operators.Tuple, microBatch)
		for {
			if _, _, ok := s.SendMany(buf, done); !ok {
				return
			}
		}
	default:
		s := mb.NewSender(0)
		for {
			seq++
			if s.Send(operators.Tuple{Seq: seq}, done) == mailbox.Closed {
				return
			}
		}
	}
}

func consume(mb *mailbox.Mailbox[operators.Tuple], mode mailbox.Mode, done <-chan struct{}) (n int) {
	for {
		switch mode {
		case mailbox.SPSC:
			win, ok := mb.Peek(done)
			if !ok {
				return n
			}
			n += len(win)
			mb.Consume(len(win))
		case mailbox.Batched:
			b, ok := mb.RecvBatch(done)
			if !ok {
				return n
			}
			n += len(b)
			mb.Recycle(b)
		default:
			if _, ok := mb.Recv(done); !ok {
				return n
			}
			n++
		}
	}
}
