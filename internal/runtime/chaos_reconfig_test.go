package runtime

import (
	"fmt"
	"testing"
	"time"

	"spinstreams/internal/faultinject"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
)

// TestChaosReconfigConservation is the live-reconfiguration chaos
// invariant: faults (slowdowns, panics with unlimited restart, send
// delays, plus shedding from a tight SendTimeout) keep firing WHILE the
// controller rescales operators in-flight — expand, expand, grow, shrink
// — and every generated tuple is still accounted for exactly, in every
// mailbox mode, across multiple fault schedules. A panic inside a pause
// fence restarts the station without wedging the fence; a fault inside a
// migration must not duplicate or lose keys' tuples.
func TestChaosReconfigConservation(t *testing.T) {
	for sched := 0; sched < chaosSchedules(t); sched++ {
		for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched, mailbox.Auto} {
			t.Run(fmt.Sprintf("seed%d/%v", sched, mode), func(t *testing.T) {
				t.Parallel()
				inj := faultinject.New(faultinject.Config{
					Seed:          uint64(5000 + sched),
					SlowdownProb:  0.002,
					SlowdownFor:   100 * time.Microsecond,
					PanicProb:     0.0005,
					SendDelayProb: 0.002,
					SendDelayFor:  50 * time.Microsecond,
				})
				topo := pipeline(t, 0.0002, 0.0002, 0.0001, 0.0001)
				cfg := Config{
					Seed:                uint64(5000 + sched),
					MailboxSize:         32,
					NoServicePadding:    true,
					SendTimeout:         200 * time.Microsecond,
					Mailbox:             mode,
					Batch:               16,
					Linger:              300 * time.Microsecond,
					MaxRestarts:         -1,
					Faults:              inj,
					Obs:                 obs.New(),
					ReconfigStallBudget: 10 * time.Second,
				}
				c, err := StartTopology(topo, nil, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				steps := []opt.ReplicaChange{
					{Operator: "sB", From: 1, To: 2},
					{Operator: "sC", From: 1, To: 3},
					{Operator: "sB", From: 2, To: 3},
					{Operator: "sB", From: 3, To: 2},
				}
				for i, chg := range steps {
					time.Sleep(60 * time.Millisecond)
					rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{chg}})
					if err != nil {
						t.Fatalf("step %d (%s %d->%d): %v", i, chg.Operator, chg.From, chg.To, err)
					}
					if rep.Epoch != uint64(i+1) {
						t.Errorf("step %d: epoch %d, want %d", i, rep.Epoch, i+1)
					}
				}
				time.Sleep(60 * time.Millisecond)
				m := mustStop(t, c)
				checkConservation(t, m)
				checkRegistryConservation(t, m, c.e.reg)
				checkCreditsRestored(t, c.e)
				if m.Totals.Delivered == 0 {
					t.Fatal("nothing delivered despite unlimited restarts")
				}
				if got := c.Replicas()[1]; got != 2 {
					t.Errorf("sB replicas = %d, want 2 after the shrink", got)
				}
				fc := inj.Counts()
				if fc.Slowdowns+fc.Panics+fc.SendDelays == 0 {
					t.Fatal("fault schedule never fired")
				}
			})
		}
	}
}

// TestChaosReconfigPanicDuringFence pins the hard case directly: a high
// panic rate guarantees panics land while a pause fence is draining the
// rescaled station, and the fence must still complete (restart, not
// deadlock) with exact accounting after Stop.
func TestChaosReconfigPanicDuringFence(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:      77,
		PanicProb: 0.01,
	})
	topo := pipeline(t, 0.0002, 0.0002, 0.0001, 0.0001)
	cfg := Config{
		Seed:                77,
		MailboxSize:         32,
		NoServicePadding:    true,
		SendTimeout:         200 * time.Microsecond,
		MaxRestarts:         -1,
		Faults:              inj,
		Obs:                 obs.New(),
		ReconfigStallBudget: 10 * time.Second,
	}
	c, err := StartTopology(topo, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{
		{Operator: "sB", From: 1, To: 3},
		{Operator: "sC", From: 1, To: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rescaled != 2 {
		t.Errorf("rescaled %d, want 2", rep.Rescaled)
	}
	time.Sleep(100 * time.Millisecond)
	m := mustStop(t, c)
	checkConservation(t, m)
	checkRegistryConservation(t, m, c.e.reg)
	checkCreditsRestored(t, c.e)
	if fc := inj.Counts(); fc.Panics == 0 {
		t.Fatal("fault schedule injected no panics")
	}
	if m.Restarts == 0 {
		t.Fatal("panics fired but no restarts recorded")
	}
}
