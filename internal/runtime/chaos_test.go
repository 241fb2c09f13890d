package runtime

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/faultinject"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// chaosSchedules returns how many randomized fault schedules each chaos
// test runs. SS_CHAOS_SCHEDULES overrides the default of 3, so CI can
// run a single-schedule smoke in the fast job and the full sweep under
// -race.
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

// chaosRun executes a unit-gain pipeline on the local engine with the
// given injector and returns the metrics plus the engine (for mailbox
// credit checks).
func chaosRun(t *testing.T, mode mailbox.Mode, inj *faultinject.Injector, maxRestarts int) (*Metrics, *engine) {
	t.Helper()
	topo := pipeline(t, 0.0002, 0.0002, 0.0001, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every chaos run binds a caller-style registry, so the registry's
	// recomputed totals can be cross-checked under faults.
	cfg := Config{
		Seed:             7,
		Duration:         500 * time.Millisecond,
		Warmup:           150 * time.Millisecond,
		MailboxSize:      32,
		NoServicePadding: true,
		SendTimeout:      200 * time.Microsecond,
		Mailbox:          mode,
		Batch:            16,
		Linger:           300 * time.Microsecond,
		MaxRestarts:      maxRestarts,
		Faults:           inj,
		Obs:              obs.New(),
	}
	cfg, err = cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(p, &Binding{}, cfg)
	if err == nil {
		err = e.deploy(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e.measure(context.Background()), e
}

// checkConservation asserts the exact lifetime identity for unit-gain
// topologies: Generated == Delivered + Shed + Failed + Drained +
// Abandoned.
func checkConservation(t *testing.T, m *Metrics) {
	t.Helper()
	tt := m.Totals
	out := tt.Delivered + tt.Shed + tt.Failed + tt.Drained + tt.Abandoned
	if tt.Generated != out {
		t.Fatalf("conservation violated: generated %d != delivered %d + shed %d + failed %d + drained %d + abandoned %d = %d",
			tt.Generated, tt.Delivered, tt.Shed, tt.Failed, tt.Drained, tt.Abandoned, out)
	}
	if tt.Generated == 0 {
		t.Fatal("source generated nothing")
	}
}

// checkRegistryConservation recomputes the conservation identity purely
// from registry counters — no engine state involved — and cross-checks the
// recomputed totals against the engine's Metrics view to the tuple: both
// read the same atomic cells, so any difference is a double- or
// under-count on one of the accounting paths.
func checkRegistryConservation(t *testing.T, m *Metrics, reg *obs.Registry) {
	t.Helper()
	tot := reg.Snapshot().Totals()
	if tot.Generated != tot.Sum() {
		t.Fatalf("registry conservation violated: %v (sum %d)", tot, tot.Sum())
	}
	want := obs.Totals{
		Generated: m.Totals.Generated,
		Delivered: m.Totals.Delivered,
		Shed:      m.Totals.Shed,
		Failed:    m.Totals.Failed,
		Drained:   m.Totals.Drained,
		Abandoned: m.Totals.Abandoned,
	}
	if tot != want {
		t.Fatalf("registry totals %v != engine totals %v", tot, want)
	}
}

// checkCreditsRestored asserts the drain pass returned every capacity
// credit: no mailbox still accounts queued tuples.
func checkCreditsRestored(t *testing.T, e *engine) {
	t.Helper()
	tb := e.tab()
	for i := range tb.mailboxes {
		if q := tb.mailboxes[i].Queued(); q != 0 {
			t.Fatalf("station %d mailbox still holds %d credits after drain", i, q)
		}
	}
}

// TestChaosConservationLocal is the core chaos invariant: under injected
// slowdowns, panics (with unlimited restart), and send delays — plus
// shedding from a tight SendTimeout — every generated tuple is accounted
// for exactly, in every mailbox mode, across multiple fault schedules.
func TestChaosConservationLocal(t *testing.T) {
	for sched := 0; sched < chaosSchedules(t); sched++ {
		for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched, mailbox.Auto} {
			t.Run(fmt.Sprintf("seed%d/%v", sched, mode), func(t *testing.T) {
				t.Parallel()
				inj := faultinject.New(faultinject.Config{
					Seed:          uint64(2000 + sched),
					SlowdownProb:  0.002,
					SlowdownFor:   100 * time.Microsecond,
					PanicProb:     0.0005,
					SendDelayProb: 0.002,
					SendDelayFor:  50 * time.Microsecond,
				})
				m, e := chaosRun(t, mode, inj, -1)
				checkConservation(t, m)
				checkRegistryConservation(t, m, e.reg)
				checkCreditsRestored(t, e)
				if m.Totals.Delivered == 0 {
					t.Fatal("nothing delivered despite unlimited restarts")
				}
				c := inj.Counts()
				if c.Slowdowns+c.Panics+c.SendDelays == 0 {
					t.Fatal("fault schedule never fired")
				}
				if c.Panics > 0 && m.Restarts == 0 {
					t.Fatalf("%d injected panics but no restarts recorded", c.Panics)
				}
			})
		}
	}
}

// TestChaosSheddingParityUnderFaults asserts the shedding semantics
// survive injected faults identically in every mailbox mode: tuples are
// shed (not lost) under pressure, and the conservation identity holds
// for each mode.
func TestChaosSheddingParityUnderFaults(t *testing.T) {
	for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched, mailbox.Auto} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			inj := faultinject.New(faultinject.Config{
				Seed:          99,
				SlowdownProb:  0.05,
				SlowdownFor:   300 * time.Microsecond,
				SendDelayProb: 0.01,
				SendDelayFor:  100 * time.Microsecond,
			})
			m, e := chaosRun(t, mode, inj, -1)
			checkConservation(t, m)
			checkRegistryConservation(t, m, e.reg)
			checkCreditsRestored(t, e)
			if m.Totals.Shed == 0 {
				t.Fatal("no shedding under injected slowdowns with a tight SendTimeout")
			}
			if m.Totals.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestChaosDegradedStation exhausts a station's restart budget and
// verifies graceful degradation: the run completes, the degraded station
// keeps consuming (so the upstream cannot deadlock), and accounting
// stays exact with the discarded tuples counted as failed.
func TestChaosDegradedStation(t *testing.T) {
	for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched, mailbox.Auto} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			inj := faultinject.New(faultinject.Config{
				Seed:      4,
				PanicProb: 0.02,
			})
			m, e := chaosRun(t, mode, inj, 2)
			checkConservation(t, m)
			checkRegistryConservation(t, m, e.reg)
			checkCreditsRestored(t, e)
			if m.Degraded == 0 {
				t.Fatal("no station degraded despite 2% panic rate and a budget of 2")
			}
			if m.Totals.Failed == 0 {
				t.Fatal("degraded stations recorded no failed tuples")
			}
			// The source must have kept producing long after the first
			// panics: a deadlocked pipeline would freeze Generated near
			// the mailbox capacity.
			if m.Totals.Generated < 1000 {
				t.Fatalf("source starved after degradation: generated only %d", m.Totals.Generated)
			}
			var restarts uint64
			for _, st := range m.Stations {
				restarts += st.Restarts
			}
			if restarts != m.Restarts {
				t.Fatalf("per-station restarts sum %d != total %d", restarts, m.Restarts)
			}
		})
	}
}

// TestChaosRecoveryDisabledByDefault pins the backward-compatible
// default: MaxRestarts 0 installs no recover, so runs without faults
// behave exactly as before (and the accounting buckets stay empty except
// for shutdown residue).
func TestChaosRecoveryDisabledByDefault(t *testing.T) {
	t.Parallel()
	m, e := chaosRun(t, mailbox.PerTuple, nil, 0)
	checkConservation(t, m)
	checkCreditsRestored(t, e)
	if m.Restarts != 0 || m.Degraded != 0 {
		t.Fatalf("restarts %d degraded %d on a fault-free run", m.Restarts, m.Degraded)
	}
	if m.Totals.Failed != 0 {
		t.Fatalf("failed %d without any panics", m.Totals.Failed)
	}
}

// partialPanicOp forwards every tuple, except the chosen one: for it the
// operator emits two outputs and then panics, so a partial result of a
// failed tuple exists when the station recovers.
type partialPanicOp struct{ chosen uint64 }

func (partialPanicOp) Name() string                { return "partialpanic" }
func (partialPanicOp) Meta() operators.Meta        { return operators.Meta{Kind: core.KindStateless} }
func (o partialPanicOp) Clone() operators.Operator { return o }
func (o partialPanicOp) Process(in operators.Tuple, emit operators.Emit) {
	emit(in)
	if in.Seq == o.chosen {
		emit(in)
		panic("partialpanic: failing after two outputs")
	}
}

// TestChaosPanicDropsPartialOutputs holds the panic rule of the station
// loop where the failing operator sits in a bound station, inside a
// meta-operator (as the member whose outputs leave it), and at the sink.
// A recovered panic fails exactly the tuple in hand: none of its outputs
// reaches a sink, and every other tuple — those served before it in the
// same window included — is delivered, so on this FIFO pipeline the sink
// sees every sequence number up to its last one except the failed tuples.
// The "operator" case panics inside the operator after it has emitted;
// the "injected" case panics in the fault hook before the operator runs,
// at whatever position in a window each station's schedule lands.
func TestChaosPanicDropsPartialOutputs(t *testing.T) {
	identity := func() operators.Operator { return operators.MustBuild(operators.Spec{Impl: "identity"}) }
	const chosen = 1000
	rows := []struct {
		name string
		// build returns the topology to run and its binding around the
		// failing operator op.
		build func(t *testing.T, op operators.Operator) (*core.Topology, *Binding)
	}{
		{"bound", func(t *testing.T, op operators.Operator) (*core.Topology, *Binding) {
			topo := pipeline(t, 0.0001, 0.0001, 0.0001)
			return topo, &Binding{Ops: map[core.OpID]operators.Operator{1: op}}
		}},
		{"meta-member", func(t *testing.T, op operators.Operator) (*core.Topology, *Binding) {
			topo := pipeline(t, 0.0001, 0.0001, 0.0001, 0.0001)
			fused, report, err := core.Fuse(topo, nil, []core.OpID{1, 2}, "F")
			if err != nil {
				t.Fatal(err)
			}
			meta, err := NewMetaOperator(topo, report, map[core.OpID]operators.Operator{1: identity(), 2: op})
			if err != nil {
				t.Fatal(err)
			}
			return fused, &Binding{Meta: map[core.OpID]*MetaOperator{report.FusedID: meta}}
		}},
		{"sink", func(t *testing.T, op operators.Operator) (*core.Topology, *Binding) {
			topo := pipeline(t, 0.0001, 0.0001, 0.0001)
			return topo, &Binding{Ops: map[core.OpID]operators.Operator{1: identity(), 2: op}}
		}},
	}
	for _, row := range rows {
		for _, injected := range []bool{false, true} {
			name := row.name + "/operator"
			if injected {
				name = row.name + "/injected"
			}
			t.Run(name, func(t *testing.T) {
				op := partialPanicOp{chosen: chosen}
				var inj *faultinject.Injector
				if injected {
					// One panic per station, each restarted once.
					op.chosen = 0
					inj = faultinject.New(faultinject.Config{Seed: 12, PanicProb: 0.002, MaxPerStation: 1})
				}
				topo, binding := row.build(t, op)
				var mu sync.Mutex
				var last uint64
				var missing []uint64
				cfg := Config{
					Seed:             9,
					Duration:         300 * time.Millisecond,
					Warmup:           100 * time.Millisecond,
					NoServicePadding: true,
					Batch:            16,
					MaxRestarts:      1,
					Faults:           inj,
					OnSink: func(_ core.OpID, tp operators.Tuple) {
						mu.Lock()
						defer mu.Unlock()
						if tp.Seq <= last {
							t.Errorf("sink saw seq %d after %d: an output of a failed tuple leaked", tp.Seq, last)
						}
						for s := last + 1; s < tp.Seq; s++ {
							missing = append(missing, s)
						}
						last = tp.Seq
					},
				}
				m, err := RunTopology(context.Background(), topo, nil, binding, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkConservation(t, m)
				mu.Lock()
				defer mu.Unlock()
				panics := uint64(1)
				if injected {
					panics = inj.Counts().Panics
				}
				if panics == 0 || m.Restarts != panics || m.Degraded != 0 {
					t.Fatalf("%d panics, %d restarts, %d degraded stations", panics, m.Restarts, m.Degraded)
				}
				if m.Totals.Failed != panics || uint64(len(missing)) != panics {
					t.Fatalf("%d panics failed %d tuples, and the sink misses seqs %v below %d", panics, m.Totals.Failed, missing, last)
				}
				if !injected && missing[0] != chosen {
					t.Fatalf("sink misses seq %d, want the failed tuple %d", missing[0], chosen)
				}
			})
		}
	}
}

// countingTracer records how many times each lifecycle hook fired, plus
// the tuple totals passed through the hooks. All fields are atomic
// because tracers fire from every station goroutine concurrently.
type countingTracer struct {
	receives, received atomic.Uint64
	serves, served     atomic.Uint64
	emits, emitted     atomic.Uint64
	restarts, degrades atomic.Uint64
}

func (c *countingTracer) OnReceive(_, n int) {
	c.receives.Add(1)
	c.received.Add(uint64(n))
}
func (c *countingTracer) OnServe(_, n int, _ time.Duration) {
	c.serves.Add(1)
	c.served.Add(uint64(n))
}
func (c *countingTracer) OnEmit(_, n int) {
	c.emits.Add(1)
	c.emitted.Add(uint64(n))
}
func (c *countingTracer) OnRestart(_ int, _ uint64) { c.restarts.Add(1) }
func (c *countingTracer) OnDegrade(_ int)           { c.degrades.Add(1) }

// TestChaosTracerLifecycle runs a panicking schedule with a tracer
// attached and checks the hook contract: an installed tracer makes every
// station time every tuple it serves, so the tuples seen via OnServe equal
// the registry's consumed total, every injected restart and degradation
// surfaces through the hooks, and emit accounting covers both admitted
// and shed tuples.
func TestChaosTracerLifecycle(t *testing.T) {
	for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched, mailbox.Auto} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			inj := faultinject.New(faultinject.Config{
				Seed:      21,
				PanicProb: 0.01,
			})
			topo := pipeline(t, 0.0002, 0.0002, 0.0001, 0.0001)
			p, err := plan.Build(topo, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			tr := &countingTracer{}
			reg.AddTracer(tr)
			cfg := Config{
				Seed:             7,
				Duration:         500 * time.Millisecond,
				Warmup:           150 * time.Millisecond,
				MailboxSize:      32,
				NoServicePadding: true,
				SendTimeout:      200 * time.Microsecond,
				Mailbox:          mode,
				Batch:            16,
				Linger:           300 * time.Microsecond,
				MaxRestarts:      2,
				Faults:           inj,
				Obs:              reg,
			}
			cfg, err = cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			e, err := newEngine(p, &Binding{}, cfg)
			if err == nil {
				err = e.deploy(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			m := e.measure(context.Background())
			checkConservation(t, m)
			checkRegistryConservation(t, m, reg)

			// A tracer makes the stations time every tuple, so OnServe
			// must cover every successfully served tuple. Tuples a
			// panic or degradation counted as consumed never reach OnServe:
			// per-tuple that is exactly the failed bucket; batched epochs
			// additionally lose the partially-processed batch in hand
			// (bounded by Batch per panicked epoch).
			var consumed, failed uint64
			for _, st := range reg.Snapshot().Stations {
				consumed += st.Consumed
				failed += st.Failed
			}
			served := tr.served.Load()
			if served > consumed {
				t.Errorf("OnServe saw %d tuples but only %d consumed (double-fire)", served, consumed)
			}
			slack := failed + uint64(cfg.Batch)*(m.Restarts+uint64(m.Degraded))
			if consumed-served > slack {
				t.Errorf("OnServe saw %d of %d consumed tuples; gap %d exceeds panic-loss bound %d (tuples served untimed?)",
					served, consumed, consumed-served, slack)
			}
			if served == 0 {
				t.Error("OnServe never fired")
			}
			if tr.receives.Load() == 0 || tr.received.Load() == 0 {
				t.Error("OnReceive never fired")
			}
			if tr.emits.Load() == 0 {
				t.Error("OnEmit never fired")
			}
			if got, want := tr.restarts.Load(), m.Restarts; got != want {
				t.Errorf("OnRestart fired %d times, engine recorded %d restarts", got, want)
			}
			if got, want := tr.degrades.Load(), m.Degraded; got != uint64(want) {
				t.Errorf("OnDegrade fired %d times, engine degraded %d stations", got, want)
			}
			if c := inj.Counts(); c.Panics == 0 {
				t.Fatal("fault schedule injected no panics")
			}
		})
	}
}

// TestChaosDistributedConnReset injects periodic connection resets with
// partial writes into a two-node pipeline and verifies the retry/backoff
// path: the run survives, traffic keeps flowing after resets, and the
// conservation identity holds with network in-flight loss accounted.
func TestChaosDistributedConnReset(t *testing.T) {
	for sched := 0; sched < chaosSchedules(t); sched++ {
		t.Run(fmt.Sprintf("seed%d", sched), func(t *testing.T) {
			topo := pipeline(t, 0.0005, 0.0002, 0.0001)
			p, err := plan.Build(topo, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(faultinject.Config{
				Seed:              uint64(3000 + sched),
				ResetEveryWrites:  40,
				PartialWriteBytes: 7,
			})
			reg := obs.New()
			cfg := DistributedConfig{
				Config: Config{
					Seed:        uint64(sched),
					Duration:    1200 * time.Millisecond,
					Warmup:      300 * time.Millisecond,
					MailboxSize: 32,
					MaxRestarts: -1,
					Faults:      inj,
					Obs:         reg,
				},
				Nodes:        2,
				RetryBackoff: time.Millisecond,
				SendDeadline: 2 * time.Second,
			}
			m, err := RunDistributed(context.Background(), p, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, m)
			// Registry recomputation must survive the network accounting
			// too: cross-node edges contribute their in-flight loss from
			// the edge frame counters.
			checkRegistryConservation(t, m, reg)
			c := inj.Counts()
			if c.ConnResets == 0 {
				t.Fatal("no connection resets fired")
			}
			// Retry/backoff must keep the pipeline alive across resets:
			// the source paces at 2000/s, so a dead edge would strand
			// nearly everything.
			if m.Totals.Delivered < m.Totals.Generated/2 {
				t.Fatalf("pipeline did not survive resets: delivered %d of %d (resets %d)",
					m.Totals.Delivered, m.Totals.Generated, c.ConnResets)
			}
		})
	}
}

// TestChaosDistributedDeadlineSheds pins the one failure path: on an edge
// whose every frame write is severed (the handshake before it goes
// through, so redials succeed), each frame is retried until SendDeadline,
// then shed at the target — the edge keeps taking traffic, nothing is
// delivered twice or lost from the books, and the run still ends.
func TestChaosDistributedDeadlineSheds(t *testing.T) {
	topo := pipeline(t, 0.0005, 0.0002, 0.0001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 12, ResetEveryWrites: 2, PartialWriteBytes: 9})
	reg := obs.New()
	cfg := DistributedConfig{
		Config: Config{
			Seed:        12,
			Duration:    900 * time.Millisecond,
			Warmup:      200 * time.Millisecond,
			MailboxSize: 32,
			Faults:      inj,
			Obs:         reg,
		},
		Nodes:        2,
		RetryBackoff: time.Millisecond,
		SendDeadline: 30 * time.Millisecond,
	}
	m, err := RunDistributed(context.Background(), p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, m)
	checkRegistryConservation(t, m, reg)
	// At most one frame per deadline gets through to being shed, so a few
	// dozen frames over the run; a dead edge would shed one at most.
	if m.Totals.Shed < 100 || m.Totals.Delivered != 0 {
		t.Errorf("shed %d, delivered %d of %d generated; want every frame shed at its deadline",
			m.Totals.Shed, m.Totals.Delivered, m.Totals.Generated)
	}
}
