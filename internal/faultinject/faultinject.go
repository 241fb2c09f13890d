// Package faultinject is a deterministic fault-injection layer for the
// SpinStreams runtime. An Injector is built from a seed and a set of
// probabilities; every fault it produces — operator slowdowns, transient
// operator panics, tuple-send delays, and (for the distributed engine)
// connection resets with optional partial writes — is drawn from
// per-station (or per-edge) RNG streams, so the schedule depends only on
// the seed and each station's own tuple sequence, never on goroutine
// interleaving. Two runs with the same seed and the same per-station
// tuple order see exactly the same faults, which is what makes the chaos
// suite's conservation invariants checkable.
//
// The runtime consumes an Injector through three hooks:
//
//   - StationFaults.OnProcess, called once per tuple before the operator
//     executes (may sleep, may panic with a *Panic value);
//   - StationFaults.OnSend, called once per downstream send (may sleep);
//   - Injector.WrapConn, which wraps a dialed net.Conn so that every
//     Nth write is severed, optionally after leaking a partial-frame
//     prefix. Write counts persist per edge across reconnects, so a
//     redialed connection keeps marching toward its next reset.
package faultinject

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spinstreams/internal/stats"
)

// Config selects the fault schedule. The zero value injects nothing.
type Config struct {
	// Seed derives every per-station and per-edge RNG stream.
	Seed uint64

	// SlowdownProb is the per-tuple probability that the operator pauses
	// for SlowdownFor before processing (models a stalling operator).
	SlowdownProb float64
	// SlowdownFor is the injected stall length (default 200µs).
	SlowdownFor time.Duration

	// PanicProb is the per-tuple probability that the operator panics
	// with a *Panic value before processing the tuple.
	PanicProb float64

	// SendDelayProb is the per-send probability that the sender pauses
	// for SendDelayFor before admitting the tuple downstream.
	SendDelayProb float64
	// SendDelayFor is the injected send delay (default 100µs).
	SendDelayFor time.Duration

	// MaxPerStation caps slowdowns+panics injected into any one station
	// (0 = unlimited). Useful to front-load faults into the start of a
	// run without turning the whole schedule off.
	MaxPerStation int

	// ResetEveryWrites severs a wrapped connection on every Nth write
	// (0 = never). The write counter is per edge and survives
	// reconnects. Handshakes and frames each count as writes.
	ResetEveryWrites int
	// PartialWriteBytes, when > 0, leaks up to that many bytes of the
	// severed write before closing, exercising partial-frame handling on
	// the receiver (a length-prefixed frame is decoded whole or not at all).
	PartialWriteBytes int

	// Sleep replaces time.Sleep for slowdown/delay faults; tests use it
	// to run against a virtual clock. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// Counts reports how many faults an Injector actually fired, so tests
// can assert the schedule was live.
type Counts struct {
	Slowdowns  uint64
	Panics     uint64
	SendDelays uint64
	ConnResets uint64
}

// Panic is the value thrown by an injected operator panic. The runtime's
// recovery path treats it like any other operator panic; tests match on
// the type to tell injected faults from real bugs.
type Panic struct {
	Station int
	Tuple   uint64 // 1-based index of the tuple within the station's stream
}

func (p *Panic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at station %d, tuple %d", p.Station, p.Tuple)
}

// Injector owns one run's fault schedule. Build a fresh Injector per run:
// its per-station streams advance as faults are drawn, so reusing one
// across runs would chain their schedules together.
type Injector struct {
	cfg   Config
	sleep func(time.Duration)

	slowdowns  atomic.Uint64
	panics     atomic.Uint64
	sendDelays atomic.Uint64
	connResets atomic.Uint64

	mu       sync.Mutex
	stations map[int]*StationFaults
	edges    map[int]*edgeFaults
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.SlowdownFor <= 0 {
		cfg.SlowdownFor = 200 * time.Microsecond
	}
	if cfg.SendDelayFor <= 0 {
		cfg.SendDelayFor = 100 * time.Microsecond
	}
	inj := &Injector{
		cfg:      cfg,
		sleep:    cfg.Sleep,
		stations: make(map[int]*StationFaults),
		edges:    make(map[int]*edgeFaults),
	}
	if inj.sleep == nil {
		inj.sleep = time.Sleep
	}
	return inj
}

// Counts snapshots the number of faults fired so far.
func (inj *Injector) Counts() Counts {
	return Counts{
		Slowdowns:  inj.slowdowns.Load(),
		Panics:     inj.panics.Load(),
		SendDelays: inj.sendDelays.Load(),
		ConnResets: inj.connResets.Load(),
	}
}

// Station returns the fault stream for one station. Calling it twice
// with the same id returns the same stream. The returned StationFaults
// must only be used from the station's own goroutine.
func (inj *Injector) Station(id int) *StationFaults {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if sf, ok := inj.stations[id]; ok {
		return sf
	}
	sf := &StationFaults{
		inj: inj,
		id:  id,
		// Offset the stream so station 0 with seed 0 still gets a
		// distinct, non-degenerate sequence.
		rng: stats.NewRNG(splitmix(inj.cfg.Seed, uint64(id)+0x9e3779b9)),
	}
	inj.stations[id] = sf
	return sf
}

// StationFaults is one station's deterministic fault stream. Not safe
// for concurrent use; the runtime fetches one per station goroutine.
type StationFaults struct {
	inj   *Injector
	id    int
	rng   *stats.RNG
	tuple uint64
	fired int
}

// OnProcess is called once per consumed tuple before the operator runs.
// It may sleep (injected slowdown) or panic with a *Panic (transient
// operator failure). The draw order is fixed — panic first, then
// slowdown — so the schedule is a pure function of (seed, station,
// tuple index).
func (sf *StationFaults) OnProcess() {
	sf.tuple++
	capped := sf.inj.cfg.MaxPerStation > 0 && sf.fired >= sf.inj.cfg.MaxPerStation
	if p := sf.inj.cfg.PanicProb; p > 0 {
		if hit := sf.rng.Float64() < p; hit && !capped {
			sf.fired++
			sf.inj.panics.Add(1)
			panic(&Panic{Station: sf.id, Tuple: sf.tuple})
		}
	}
	if p := sf.inj.cfg.SlowdownProb; p > 0 {
		if hit := sf.rng.Float64() < p; hit && !capped {
			sf.fired++
			sf.inj.slowdowns.Add(1)
			sf.inj.sleep(sf.inj.cfg.SlowdownFor)
		}
	}
}

// OnSend is called once per downstream send from the station goroutine;
// it may sleep to model a slow link or a stalled sender.
func (sf *StationFaults) OnSend() {
	if p := sf.inj.cfg.SendDelayProb; p > 0 && sf.rng.Float64() < p {
		sf.inj.sendDelays.Add(1)
		sf.inj.sleep(sf.inj.cfg.SendDelayFor)
	}
}

// edgeFaults is the persistent write counter for one distributed edge.
// It lives on the Injector, not the conn wrapper, so reconnects keep
// counting toward the next reset.
type edgeFaults struct {
	writes atomic.Uint64
}

// WrapConn wraps a freshly dialed connection for the given edge key. If
// ResetEveryWrites is zero the conn is returned unchanged. Edge keys are
// chosen by the caller (the distributed engine uses from<<16|to).
func (inj *Injector) WrapConn(edge int, conn net.Conn) net.Conn {
	if inj.cfg.ResetEveryWrites <= 0 {
		return conn
	}
	inj.mu.Lock()
	ef, ok := inj.edges[edge]
	if !ok {
		ef = &edgeFaults{}
		inj.edges[edge] = ef
	}
	inj.mu.Unlock()
	return &faultyConn{Conn: conn, inj: inj, ef: ef}
}

// faultyConn severs the underlying connection on every Nth write across
// the edge's lifetime, optionally leaking a partial prefix first.
type faultyConn struct {
	net.Conn
	inj *Injector
	ef  *edgeFaults
}

func (c *faultyConn) Write(p []byte) (int, error) {
	n := c.ef.writes.Add(1)
	every := uint64(c.inj.cfg.ResetEveryWrites)
	if n%every != 0 {
		return c.Conn.Write(p)
	}
	c.inj.connResets.Add(1)
	wrote := 0
	if k := c.inj.cfg.PartialWriteBytes; k > 0 {
		// Never leak the whole buffer: the receiver must see a truncated
		// frame, not a deliverable one, or a write reported as failed
		// would still arrive and the sender's retry would duplicate it.
		if k >= len(p) {
			k = len(p) - 1
		}
		if k > 0 {
			wrote, _ = c.Conn.Write(p[:k])
		}
	}
	c.Conn.Close()
	return wrote, fmt.Errorf("faultinject: injected connection reset after %d writes", n)
}

// splitmix mixes a seed and a stream id into an independent RNG seed
// (splitmix64 finalizer).
func splitmix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
