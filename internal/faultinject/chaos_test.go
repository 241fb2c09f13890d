package faultinject_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinstreams/internal/faultinject"
	"spinstreams/internal/mailbox"
)

// chaosSchedules returns how many randomized fault schedules the chaos
// tests run per case. SS_CHAOS_SCHEDULES overrides the default of 3, so
// CI can run a single-schedule smoke in the fast job and the full sweep
// under -race.
func chaosSchedules(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("SS_CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SS_CHAOS_SCHEDULES=%q", s)
		}
		return n
	}
	return 3
}

// TestChaosMailboxConservation hammers one mailbox with multiple
// shedding producers and one consumer, both slowed by injected faults,
// and asserts the dataplane's conservation invariant: every produced
// tuple is admitted, shed, or left queued (then drained) — nothing
// vanishes — and after the drain every capacity credit is back.
func TestChaosMailboxConservation(t *testing.T) {
	const (
		producers   = 4
		perProducer = 3000
		capacity    = 16
	)
	for sched := 0; sched < chaosSchedules(t); sched++ {
		for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched} {
			name := fmt.Sprintf("seed%d/%v", sched, mode)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				inj := faultinject.New(faultinject.Config{
					Seed:          uint64(1000 + sched),
					SlowdownProb:  0.01,
					SlowdownFor:   50 * time.Microsecond,
					SendDelayProb: 0.01,
					SendDelayFor:  50 * time.Microsecond,
				})
				m, err := mailbox.New[int](mailbox.Config{
					Capacity: capacity,
					Mode:     mode,
					Batch:    8,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				var sent, shed, consumed atomic.Uint64

				var consumers sync.WaitGroup
				consumers.Add(1)
				go func() {
					defer consumers.Done()
					cf := inj.Station(0)
					for {
						if _, ok := m.Recv(done); !ok {
							return
						}
						cf.OnProcess()
						consumed.Add(1)
					}
				}()

				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						pf := inj.Station(1 + p)
						snd := m.NewSender(100 * time.Microsecond)
						for i := 0; i < perProducer; i++ {
							pf.OnSend()
							switch snd.Send(i, done) {
							case mailbox.Sent:
								sent.Add(1)
							case mailbox.Dropped:
								shed.Add(1)
							default:
								t.Error("send aborted before shutdown")
								return
							}
						}
					}(p)
				}
				wg.Wait()
				close(done)
				consumers.Wait()
				drained := m.Drain()

				produced := uint64(producers * perProducer)
				got := sent.Load() + shed.Load()
				if got != produced {
					t.Fatalf("admission accounting: sent+shed = %d, produced %d", got, produced)
				}
				if c, d := consumed.Load(), uint64(drained); sent.Load() != c+d {
					t.Fatalf("conservation: sent %d != consumed %d + drained %d", sent.Load(), c, d)
				}
				if q := m.Queued(); q != 0 {
					t.Fatalf("credits not restored after drain: Queued() = %d", q)
				}
				c := inj.Counts()
				if c.Slowdowns == 0 && c.SendDelays == 0 {
					t.Fatal("fault schedule never fired")
				}
			})
		}
	}
}

// TestChaosScheduleParityAcrossModes verifies the injector's sequences
// are a pure function of (seed, station, tuple index): running the same
// schedule against both transports fires the same per-station faults.
func TestChaosScheduleParityAcrossModes(t *testing.T) {
	run := func(mode mailbox.Mode) faultinject.Counts {
		inj := faultinject.New(faultinject.Config{
			Seed:          77,
			SlowdownProb:  0.05,
			SlowdownFor:   time.Microsecond,
			SendDelayProb: 0.05,
			SendDelayFor:  time.Microsecond,
			Sleep:         func(time.Duration) {},
		})
		m, err := mailbox.New[int](mailbox.Config{Capacity: 8, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cf := inj.Station(0)
			for {
				if _, ok := m.Recv(done); !ok {
					return
				}
				cf.OnProcess()
			}
		}()
		snd := m.NewSender(0)
		pf := inj.Station(1)
		for i := 0; i < 2000; i++ {
			pf.OnSend()
			if snd.Send(i, done) != mailbox.Sent {
				t.Fatal("send failed")
			}
		}
		// Let the consumer finish everything so OnProcess sees all 2000.
		for m.Queued() > 0 {
			time.Sleep(time.Millisecond)
		}
		close(done)
		wg.Wait()
		if n := m.Drain(); n < 0 {
			t.Fatalf("Drain = %d", n)
		}
		return inj.Counts()
	}
	perTuple := run(mailbox.PerTuple)
	batched := run(mailbox.Batched)
	if perTuple != batched {
		t.Fatalf("fault schedule differs across transports: %+v vs %+v", perTuple, batched)
	}
	if perTuple.Slowdowns == 0 || perTuple.SendDelays == 0 {
		t.Fatalf("schedule never fired: %+v", perTuple)
	}
}
