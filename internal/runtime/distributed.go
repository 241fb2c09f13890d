package runtime

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

var (
	// errShutdown aborts a remote send when the run is stopping.
	errShutdown = errors.New("runtime: shutdown")
	// errEdgeDown is the sticky legacy-mode error after a fatal write.
	errEdgeDown = errors.New("runtime: remote edge down")
)

// maxRetryBackoff caps the exponential redial backoff.
const maxRetryBackoff = 100 * time.Millisecond

// DistributedConfig tunes a distributed execution: the plan's stations are
// partitioned across nodes that exchange stream items over TCP — the
// analog of running the generated application on Akka's Remoting layer,
// which the paper names as its first future-work direction (Section 7).
//
// Backpressure keeps the Blocking-After-Service semantics across the
// network: a receiving node pushes incoming items into the target
// station's bounded mailbox with a blocking send, so when the mailbox
// fills the TCP reader stalls, the socket's flow-control window closes,
// and the remote sender's write blocks — exactly the stall the cost model
// assumes, with the socket buffers acting as extra mailbox capacity (a
// sliver at Batch 1, where tuneConn can keep them tight).
type DistributedConfig struct {
	Config
	// Nodes is the number of nodes to partition the plan across
	// (default 2). Nodes run in-process but exchange items over real
	// loopback TCP connections.
	Nodes int
	// Assignment maps each station to its home node; nil assigns whole
	// logical operators round-robin so replicas stay with their emitter
	// and collector.
	Assignment []int
	// RetryBackoff is the initial pause before redialing a cross-node
	// connection after a write error; it doubles per attempt, capped at
	// maxRetryBackoff. Zero or negative selects the default (2ms).
	RetryBackoff time.Duration
	// SendDeadline bounds the total retry time for one in-flight frame.
	// When it expires, the frame's tuples are counted as dropped at the
	// target operator and the edge keeps accepting traffic (graceful
	// degradation instead of a dead pipeline). Zero selects the default
	// (2s); negative disables retry entirely — the first write error
	// permanently kills the edge and shuts its sender down, the
	// behaviour before fault tolerance.
	SendDeadline time.Duration
}

// AssignByOperator maps stations to nodes so that all stations of a
// logical operator (emitter, replicas, collector) are co-located, with
// operators distributed round-robin.
func AssignByOperator(p *plan.Plan, nodes int) []int {
	if nodes < 1 {
		nodes = 1
	}
	asg := make([]int, len(p.Stations))
	for i, st := range p.Stations {
		asg[i] = int(st.Op) % nodes
	}
	return asg
}

// wire is the gob frame exchanged between nodes: up to Batch tuples,
// amortizing the gob and syscall cost of a TCP write over the window (at
// Batch 1, the per-tuple transport, every frame holds one).
type wire struct {
	Tuples []operators.Tuple
}

// handshake opens a cross-node stream for one physical edge.
type handshake struct {
	From   plan.StationID
	Target plan.StationID
}

// RunDistributed executes the plan partitioned across TCP-connected nodes
// and reports the same metrics as Run. Meta-operators and bound operators
// execute on the station's home node.
func RunDistributed(ctx context.Context, p *plan.Plan, binding *Binding, cfg DistributedConfig) (*Metrics, error) {
	if p == nil || len(p.Stations) == 0 {
		return nil, errors.New("runtime: empty plan")
	}
	base, err := cfg.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Config = base
	if cfg.Mailbox == mailbox.SPSC || cfg.Mailbox == mailbox.Auto {
		// The network read loops push decoded frames into local inboxes
		// alongside the plan's own stations, so the plan-derived
		// single-producer proof does not cover a partitioned deployment;
		// every inbox runs on the MPSC batched path instead.
		cfg.Mailbox = mailbox.Batched
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Assignment == nil {
		cfg.Assignment = AssignByOperator(p, cfg.Nodes)
	}
	if len(cfg.Assignment) != len(p.Stations) {
		return nil, fmt.Errorf("runtime: assignment covers %d stations, plan has %d",
			len(cfg.Assignment), len(p.Stations))
	}
	for sid, node := range cfg.Assignment {
		if node < 0 || node >= cfg.Nodes {
			return nil, fmt.Errorf("runtime: station %d assigned to invalid node %d", sid, node)
		}
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.SendDeadline == 0 {
		cfg.SendDeadline = 2 * time.Second
	}
	if binding == nil {
		binding = &Binding{}
	}
	if err := binding.validate(p); err != nil {
		return nil, err
	}

	eng, err := newEngine(p, binding, cfg.Config)
	if err != nil {
		return nil, err
	}
	d := &distEngine{
		engine:       eng,
		assignment:   cfg.Assignment,
		nodes:        cfg.Nodes,
		retryBackoff: cfg.RetryBackoff,
		sendDeadline: cfg.SendDeadline,
	}
	d.sendManyFn = d.sendMany

	if err := d.connect(); err != nil {
		d.shutdownTransport()
		return nil, err
	}
	metrics, err := d.run(ctx)
	d.shutdownTransport()
	return metrics, err
}

// distEngine extends the local engine with the TCP data plane.
type distEngine struct {
	*engine
	assignment   []int
	nodes        int
	retryBackoff time.Duration
	sendDeadline time.Duration

	mu        sync.Mutex
	listeners []net.Listener
	conns     []net.Conn
	// senders maps station ID -> target station ID -> remote outbox.
	senders map[plan.StationID]map[plan.StationID]*remoteOutbox
	readers sync.WaitGroup

	// edges maps edgeKey to the registry's per-cross-node-edge frame
	// accounting (tuples in successfully encoded / decoded frames); the
	// wrote-recvd difference after shutdown is the network in-flight
	// loss, folded into Totals.Abandoned. The map is fully built before
	// any listener accepts and is only read afterwards.
	edges map[int]*obs.Edge
}

// edgeKey identifies one cross-node physical edge in the counter maps
// and toward the fault injector.
func edgeKey(from, to plan.StationID) int { return int(from)<<16 | int(to) }

// remoteOutbox frames tuples onto one cross-node TCP stream. With batch 1
// every tuple is its own frame (the per-tuple transport); with a larger
// batch it accumulates a micro-batch, bounded by the linger so low-rate
// edges keep flowing. The blocking gob write is what propagates
// backpressure to the sending station.
//
// A write error triggers redial with exponential backoff: the failed
// frame is re-encoded on the fresh connection (a frame is only counted
// written after a successful Encode, and an injected partial write can
// never deliver a decodable frame, so the retry cannot duplicate
// delivery). Past the per-frame deadline the frame's tuples are counted
// as shed at the target and the edge stays alive. Accounting invariant:
// every error return from send means the tuple has already been counted,
// so callers just stop.
type remoteOutbox struct {
	d            *distEngine
	from, target plan.StationID
	addr         string
	batch        int
	linger       time.Duration
	// backoff is the initial redial pause; deadline bounds total retry
	// time per frame. deadline < 0 selects the legacy sticky-error mode.
	backoff  time.Duration
	deadline time.Duration
	// edge is the registry's frame accounting for this cross-node edge
	// (Wrote side written here, shared across reconnects).
	edge *obs.Edge

	mu    sync.Mutex
	conn  net.Conn
	enc   *gob.Encoder
	buf   []operators.Tuple
	timer *time.Timer
	err   error
}

// send enqueues one tuple, flushing when the frame is full.
func (o *remoteOutbox) send(t operators.Tuple) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		// Dead edge (legacy mode) or shutdown: account the tuple here so
		// the caller doesn't have to.
		o.d.tab().st[o.from].Abandoned.Add(1)
		return o.err
	}
	o.buf = append(o.buf, t)
	if len(o.buf) >= o.batch {
		return o.flushLocked()
	}
	if len(o.buf) == 1 {
		o.armTimerLocked()
	}
	return nil
}

func (o *remoteOutbox) flushLocked() error {
	if o.timer != nil {
		o.timer.Stop()
	}
	if len(o.buf) == 0 {
		return o.err
	}
	if err := o.enc.Encode(wire{Tuples: o.buf}); err == nil {
		o.edge.Wrote.Add(uint64(len(o.buf)))
		o.buf = o.buf[:0]
		return nil
	}
	if o.deadline < 0 {
		// Legacy mode: the first write error permanently kills the edge
		// and its sending station; the frame never left.
		o.err = errEdgeDown
		o.d.tab().st[o.from].Abandoned.Add(uint64(len(o.buf)))
		o.buf = o.buf[:0]
		return o.err
	}
	return o.retryLocked()
}

// retryLocked redials the edge with exponential backoff until the failed
// frame is delivered, the per-frame deadline expires (the frame is
// counted as shed at the target and the edge stays alive — graceful
// degradation), or the run shuts down (the frame is abandoned).
func (o *remoteOutbox) retryLocked() error {
	start := time.Now()
	back := o.backoff
	for {
		o.conn.Close()
		if !o.d.sleepBackoff(back) {
			o.err = errShutdown
			o.d.tab().st[o.from].Abandoned.Add(uint64(len(o.buf)))
			o.buf = o.buf[:0]
			return o.err
		}
		if back < maxRetryBackoff {
			back *= 2
		}
		if time.Since(start) >= o.deadline {
			o.d.tab().st[o.from].Emitted.Add(uint64(len(o.buf)))
			o.d.tab().st[o.target].Dropped.Add(uint64(len(o.buf)))
			o.buf = o.buf[:0]
			return nil
		}
		conn, enc, err := o.d.dialEdge(o.from, o.target, o.addr)
		if err != nil {
			continue
		}
		o.conn, o.enc = conn, enc
		// The fresh encoder re-sends gob type descriptors, which is
		// exactly what the receiver's fresh decoder on the new
		// connection expects.
		if o.enc.Encode(wire{Tuples: o.buf}) != nil {
			continue
		}
		o.edge.Wrote.Add(uint64(len(o.buf)))
		o.buf = o.buf[:0]
		return nil
	}
}

// abort accounts any frame still buffered at shutdown and kills the edge.
func (o *remoteOutbox) abort() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.timer != nil {
		o.timer.Stop()
	}
	if n := len(o.buf); n > 0 {
		o.d.tab().st[o.from].Abandoned.Add(uint64(n))
		o.buf = nil
	}
	if o.err == nil {
		o.err = errShutdown
	}
}

func (o *remoteOutbox) flush() {
	o.mu.Lock()
	_ = o.flushLocked()
	o.mu.Unlock()
}

func (o *remoteOutbox) armTimerLocked() {
	if o.timer == nil {
		o.timer = time.AfterFunc(o.linger, o.flush)
		return
	}
	o.timer.Reset(o.linger)
}

// sleepBackoff pauses between redial attempts; it returns false when the
// run shut down during the pause.
func (d *distEngine) sleepBackoff(dur time.Duration) bool {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-d.done:
		return false
	case <-t.C:
		return true
	}
}

// connect builds listeners per node and dials one stream per cross-node
// physical edge.
func (d *distEngine) connect() error {
	// The per-edge frame counters must exist before any acceptLoop can
	// hand a connection to a readLoop. The distributed engine never
	// reconfigures, so its initial tables stay current for the whole run.
	p := d.tab().p
	d.edges = make(map[int]*obs.Edge)
	for i := range p.Stations {
		for _, e := range p.Stations[i].Out {
			if d.assignment[i] != d.assignment[e.To] {
				k := edgeKey(plan.StationID(i), e.To)
				d.edges[k] = d.reg.Edge(i, int(e.To))
			}
		}
	}

	addrs := make([]string, d.nodes)
	for n := 0; n < d.nodes; n++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("runtime: node %d listen: %w", n, err)
		}
		d.listeners = append(d.listeners, ln)
		addrs[n] = ln.Addr().String()
		go d.acceptLoop(ln)
	}

	d.senders = make(map[plan.StationID]map[plan.StationID]*remoteOutbox)
	for i := range p.Stations {
		from := plan.StationID(i)
		for _, e := range p.Stations[i].Out {
			if d.assignment[from] == d.assignment[e.To] {
				continue
			}
			addr := addrs[d.assignment[e.To]]
			conn, enc, err := d.dialEdge(from, e.To, addr)
			if err != nil {
				return fmt.Errorf("runtime: dial edge %d->%d: %w", from, e.To, err)
			}
			if d.senders[from] == nil {
				d.senders[from] = make(map[plan.StationID]*remoteOutbox)
			}
			d.senders[from][e.To] = &remoteOutbox{
				d: d, from: from, target: e.To, addr: addr,
				conn: conn, enc: enc, batch: d.cfg.Batch, linger: d.cfg.Linger,
				backoff: d.retryBackoff, deadline: d.sendDeadline,
				edge: d.edges[edgeKey(from, e.To)],
			}
		}
	}
	return nil
}

// dialEdge opens (or re-opens, during retry) the TCP stream for one
// cross-node edge: dial, tune, optionally wrap with the fault injector,
// and send the handshake. The same encoder carries the handshake and the
// payload so the byte stream stays aligned with the receiver's single
// decoder.
func (d *distEngine) dialEdge(from, to plan.StationID, addr string) (net.Conn, *gob.Encoder, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	tuneConn(conn, d.cfg.Batch)
	if d.cfg.Faults != nil {
		conn = d.cfg.Faults.WrapConn(edgeKey(from, to), conn)
	}
	d.mu.Lock()
	d.conns = append(d.conns, conn)
	d.mu.Unlock()
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(handshake{From: from, Target: to}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, enc, nil
}

// tuneConn sizes the socket buffers from the frame the connection
// carries. A one-tuple frame fits buffers shrunk to 4 KiB, which keeps
// network buffering from adding more than a sliver of effective mailbox
// capacity. A frame of several tuples does not: on loopback (64 KiB MSS) a
// frame above roughly an eighth of the buffer waits out a window-update /
// delayed-ACK exchange — 512 tuples/s at Batch 32 against ~90 000 at
// Batch 1 — and buffers pinned anywhere between 8 and 64 KiB stalled
// erratically when measured, so connections that carry larger frames keep
// the kernel's autotuned buffers.
func tuneConn(conn net.Conn, batch int) {
	tcp, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tcp.SetNoDelay(true)
	if batch == 1 {
		_ = tcp.SetReadBuffer(4 << 10)
		_ = tcp.SetWriteBuffer(4 << 10)
	}
}

// acceptLoop receives cross-node streams for one node.
func (d *distEngine) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		tuneConn(conn, d.cfg.Batch)
		d.mu.Lock()
		d.conns = append(d.conns, conn)
		d.mu.Unlock()
		d.readers.Add(1)
		go d.readLoop(conn)
	}
}

// readLoop decodes items from one incoming stream and pushes them into the
// target mailbox. The blocking push is what propagates backpressure onto
// the TCP stream.
func (d *distEngine) readLoop(conn net.Conn) {
	defer d.readers.Done()
	// A decode error (including an injected partial frame) abandons the
	// connection; closing it makes the remote writer fail fast into its
	// retry path instead of blocking on a half-dead stream.
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	var hs handshake
	if err := dec.Decode(&hs); err != nil {
		return
	}
	tb := d.tab()
	if int(hs.Target) < 0 || int(hs.Target) >= len(tb.mailboxes) {
		return
	}
	ed := d.edges[edgeKey(hs.From, hs.Target)]
	if ed == nil {
		// Not a planned cross-node edge; refuse the stream.
		return
	}
	// The reader gets its own producer handle on the target mailbox; a
	// blocking admission (no timeout) is what stalls the TCP stream and
	// propagates backpressure to the remote writer.
	snd := tb.mailboxes[hs.Target].NewSender(0)
	for {
		var w wire
		if err := dec.Decode(&w); err != nil {
			return
		}
		ed.Recvd.Add(uint64(len(w.Tuples)))
		sent, _, ok := snd.SendMany(w.Tuples, d.done)
		// Both ends of the edge are counted here: emission is only final
		// once the item clears the network and lands in the target
		// mailbox (TCP windowing makes sender-side counts bursty).
		tb.st[hs.Target].Arrived.Add(uint64(sent))
		if int(hs.From) >= 0 && int(hs.From) < len(tb.st) {
			tb.st[hs.From].Emitted.Add(uint64(sent))
		}
		if !ok {
			// Shutdown mid-frame: the undelivered remainder is decoded
			// in-flight residue, accounted like mailbox drain residue.
			tb.st[hs.Target].Drained.Add(uint64(len(w.Tuples) - sent))
			return
		}
	}
}

// shutdownTransport closes the data plane.
func (d *distEngine) shutdownTransport() {
	d.mu.Lock()
	for _, ln := range d.listeners {
		ln.Close()
	}
	for _, c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.readers.Wait()
}

// sendMany routes one delivery: cross-node edges append to the remote
// outbox (which frames up to Batch tuples per TCP write), everything else
// goes through the in-process path.
func (d *distEngine) sendMany(from plan.StationID, edgeIdx int, edge *plan.Edge, ts []operators.Tuple) bool {
	if outs := d.senders[from]; outs != nil {
		if ob := outs[edge.To]; ob != nil {
			tb := d.tab()
			select {
			case <-d.done:
				tb.st[from].Abandoned.Add(uint64(len(ts)))
				return false
			default:
			}
			if f := tb.stFaults[from]; f != nil {
				f.OnSend()
			}
			for i := range ts {
				if ob.send(ts[i]) != nil {
					// ts[i] was accounted by the outbox; the tail never
					// went anywhere.
					tb.st[from].Abandoned.Add(uint64(len(ts) - i - 1))
					return false
				}
			}
			return true
		}
	}
	return d.localSendMany(from, edgeIdx, edge, ts)
}

// run starts the actors and measures, mirroring the local engine but
// unblocking TCP writers on shutdown.
func (d *distEngine) run(ctx context.Context) (*Metrics, error) {
	rng := stats.NewRNG(d.cfg.Seed + 0x517c)
	for i := range d.tab().p.Stations {
		d.spawnStation(plan.StationID(i), rng.Uint64(), nil, nil)
	}
	sleepCtx(ctx, d.cfg.Warmup)
	snap1 := d.snapshotAll()
	d.reg.MarkWindowBegin()
	start := time.Now()
	sleepCtx(ctx, d.cfg.Duration-d.cfg.Warmup)
	snap2 := d.snapshotAll()
	d.reg.MarkWindowEnd()
	window := time.Since(start).Seconds()
	close(d.done)
	// Waking actors stalled inside TCP writes: expire every connection.
	d.mu.Lock()
	for _, c := range d.conns {
		_ = c.SetDeadline(time.Now())
	}
	d.mu.Unlock()
	d.interruptStations()
	d.wg.Wait()
	// Drain-on-shutdown: stations are gone, so tear the transport down
	// and wait for the readers (they are the last producers into the
	// mailboxes), account the outbox residue, then collect what is still
	// queued — in that order, so no producer races the drain.
	d.shutdownTransport()
	for _, outs := range d.senders {
		for _, ob := range outs {
			ob.abort()
		}
	}
	d.drainMailboxes()
	m := d.buildMetrics(window, snap1, snap2)
	// Network in-flight loss: tuples in frames written but never
	// decoded (severed connections, discarded socket buffers).
	var loss uint64
	for _, e := range d.edges {
		if wv, rv := e.Wrote.Load(), e.Recvd.Load(); wv > rv {
			loss += wv - rv
		}
	}
	m.Totals.Abandoned += loss
	return m, nil
}
