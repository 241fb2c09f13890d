package runtime

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// errShutdown refuses a connection dialled or accepted while the run is
// stopping.
var errShutdown = errors.New("runtime: shutdown")

// maxRetryBackoff caps the exponential redial backoff.
const maxRetryBackoff = 100 * time.Millisecond

// DistributedConfig tunes a distributed execution: the plan's stations are
// partitioned across nodes that exchange stream items over TCP — the
// analog of running the generated application on Akka's Remoting layer,
// which the paper names as its first future-work direction (Section 7).
//
// A cross-node edge is the TCP half of the dataplane's window protocol.
// The sending station delivers into a bounded single-producer queue with
// the ordinary SendMany; the edge's one writer goroutine takes everything
// queued as a window, encodes it as one length-prefixed binary frame (see
// wire.go), issues one Write and releases the window. Frames therefore
// grow exactly when the wire is the bottleneck, and an idle edge ships a
// one-tuple frame at once: there is no linger and no batch size to pick,
// and Config.Batch and Config.Linger shape only the stations' windows.
//
// Blocking-After-Service capacity across the network is accounted in
// tuples. The reader admits each frame to the target station's inbox
// with a blocking send and returns a cumulative tuple credit on the
// connection's reverse direction; the writer never has more than one
// target MailboxSize of tuples unacknowledged. When the target inbox
// fills, credit stops, the queue fills and the sending station blocks —
// the stall the cost model assumes, whatever the kernel's socket buffers
// hold.
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
	// SendDeadline bounds the total retry time for one frame. Only the
	// frame whose Write failed is retried on the redialled connection
	// (delivery is at most once per frame: a failed Write never leaves a
	// decodable frame behind, and frames written earlier but not yet
	// admitted are counted lost). When the deadline expires the frame's
	// tuples are counted as dropped at the target operator and the edge
	// keeps accepting traffic. Zero selects the default (2s); negative is
	// an error.
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

// RunDistributed executes the plan partitioned across TCP-connected nodes
// and reports the same metrics as RunTopology. Meta-operators and bound
// operators execute on the station's home node.
func RunDistributed(ctx context.Context, p *plan.Plan, binding *Binding, cfg DistributedConfig) (*Metrics, error) {
	if p == nil || len(p.Stations) == 0 {
		return nil, errors.New("runtime: empty plan")
	}
	base, err := cfg.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Config = base
	// The network read loops push decoded frames into local inboxes
	// alongside the plan's own stations, so the plan-derived
	// single-producer proof does not cover a partitioned deployment;
	// every inbox runs on the batched multi-producer queue.
	cfg.Mailbox = mailbox.Batched
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
	if cfg.SendDeadline < 0 {
		return nil, fmt.Errorf("runtime: negative SendDeadline %v", cfg.SendDeadline)
	}
	if cfg.SendDeadline == 0 {
		cfg.SendDeadline = 2 * time.Second
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
	d.settleTransport = d.settle
	// Stations send into the edge queues from their first tuple, and the
	// readers admit into the published tables: queues, then the
	// deployment, then the connections.
	if err := d.buildEdges(p); err != nil {
		return nil, err
	}
	if err := d.deploy(p); err != nil {
		return nil, err
	}
	if err := d.connect(); err != nil {
		d.shutdown()
		return nil, err
	}
	return d.measure(ctx), nil
}

// distEngine extends the local engine with the TCP data plane.
type distEngine struct {
	*engine
	assignment   []int
	nodes        int
	retryBackoff time.Duration
	sendDeadline time.Duration

	// edges holds every cross-node physical edge by edgeKey, and out the
	// sending stations' handles on the edge queues, indexed like
	// tables.senders (nil for in-process edges). Both are fully built
	// before any listener accepts and only read afterwards.
	edges map[int]*remoteEdge
	out   [][]*mailbox.Sender[operators.Tuple]

	// transport counts the accept loops, edge writers, ack readers and
	// frame readers. Each of them is started by a goroutine that is
	// itself counted (or, in connect, before anything waits), so an Add
	// never races the Wait in shutdownTransport.
	transport sync.WaitGroup
	// mu guards closed, listeners and every edge's live connection ends.
	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
}

// edgeKey identifies one cross-node physical edge in the edge map and
// toward the fault injector.
func edgeKey(from, to plan.StationID) int { return int(from)<<16 | int(to) }

// remoteEdge is one cross-node physical edge: the queue its sending
// station fills, the writer that drains the queue onto a TCP stream, and
// the live connection at either end.
type remoteEdge struct {
	from, target plan.StationID
	// window is the credit window in tuples — the target's MailboxSize —
	// and the queue's capacity, so a queued window always fits one frame.
	window int
	queue  *mailbox.Mailbox[operators.Tuple]
	stats  *obs.Edge
	// credit wakes the writer: an ack arrived or the connection died.
	credit chan struct{}

	// out is the live dialled connection and in the live accepted stream
	// (distEngine.mu): one per end, replaced on redial, so a run that
	// resets connections all day holds two sockets per edge.
	out *outConn
	in  *inStream
}

// outConn is the writer's end of one connection.
type outConn struct {
	net.Conn
	// acked is the latest cumulative credit the reader returned (ackLoop
	// stores it); dead is set once the reverse direction fails or the
	// writer gives the connection up.
	acked atomic.Uint64
	dead  atomic.Bool
}

// inStream is the reader's end of one connection.
type inStream struct {
	conn net.Conn
	// stop aborts an admission blocked on a full inbox; exited closes
	// when the reader is gone.
	stop, exited chan struct{}
}

// interrupt makes the stream's reader exit. Whoever takes the stream out
// of remoteEdge.in calls it, once.
func (in *inStream) interrupt() {
	in.conn.Close()
	close(in.stop)
}

// signal leaves one pending wakeup on a 1-buffered channel.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
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

// buildEdges builds, per cross-node physical edge of p, the queue its
// sending station fills. The distributed engine never reconfigures, so
// the edges stay those of the deployed plan for the whole run.
func (d *distEngine) buildEdges(p *plan.Plan) error {
	d.edges = make(map[int]*remoteEdge)
	d.out = make([][]*mailbox.Sender[operators.Tuple], len(p.Stations))
	for i := range p.Stations {
		from := plan.StationID(i)
		d.out[i] = make([]*mailbox.Sender[operators.Tuple], len(p.Stations[i].Out))
		for j, pe := range p.Stations[i].Out {
			if d.assignment[from] == d.assignment[pe.To] {
				continue
			}
			e := d.edges[edgeKey(from, pe.To)]
			if e == nil {
				// The sending station is the queue's only producer, which
				// is what the ring asks for; a window is everything queued
				// up to where the ring wraps.
				q, err := mailbox.New[operators.Tuple](mailbox.Config{
					Capacity: d.cfg.MailboxSize, Mode: mailbox.SPSC, Batch: d.cfg.MailboxSize,
				})
				if err != nil {
					return err
				}
				e = &remoteEdge{
					from: from, target: pe.To,
					window: d.cfg.MailboxSize, queue: q,
					stats:  d.reg.Edge(i, int(pe.To)),
					credit: make(chan struct{}, 1),
				}
				d.edges[edgeKey(from, pe.To)] = e
			}
			d.out[i][j] = e.queue.NewSender(0)
		}
	}
	return nil
}

// connect builds one listener per node and, per cross-node edge, the
// connection and the writer.
func (d *distEngine) connect() error {
	for n := 0; n < d.nodes; n++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("runtime: node %d listen: %w", n, err)
		}
		d.listeners = append(d.listeners, ln)
	}
	for _, ln := range d.listeners {
		d.transport.Add(1)
		go d.acceptLoop(ln)
	}
	// Dial every edge before awaiting any handshake reply, so set-up pays
	// one round trip, not one per edge.
	for _, e := range d.edges {
		if _, err := d.dial(e); err != nil {
			return fmt.Errorf("runtime: dial edge %d->%d: %w", e.from, e.target, err)
		}
	}
	for _, e := range d.edges {
		if err := d.resync(e, e.out, time.Now().Add(d.sendDeadline)); err != nil {
			return fmt.Errorf("runtime: open edge %d->%d: %w", e.from, e.target, err)
		}
	}
	// Every edge is open: start the writers.
	for _, e := range d.edges {
		d.transport.Add(1)
		go (&edgeWriter{d: d, e: e, oc: e.out}).run()
	}
	return nil
}

// dial opens (or re-opens, during retry) the TCP stream of one edge,
// optionally wrapped by the fault injector, registers it as the edge's
// live connection and sends the handshake.
func (d *distEngine) dial(e *remoteEdge) (*outConn, error) {
	conn, err := net.Dial("tcp", d.listeners[d.assignment[e.target]].Addr().String())
	if err != nil {
		return nil, err
	}
	if d.cfg.Faults != nil {
		conn = d.cfg.Faults.WrapConn(edgeKey(e.from, e.target), conn)
	}
	oc := &outConn{Conn: conn}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		conn.Close()
		return nil, errShutdown
	}
	e.out = oc
	d.mu.Unlock()
	if _, err := oc.Write(appendHandshake(nil, e.from, e.target, e.window)); err != nil {
		oc.Close()
		return nil, err
	}
	return oc, nil
}

// resync awaits the handshake reply — the reader's cumulative credit, final
// for every earlier connection of the edge because the reader has stopped
// their streams — settles what those connections lost, and starts reading
// acks. From here on nothing written is in flight, so the connection
// starts with a full window.
func (d *distEngine) resync(e *remoteEdge, oc *outConn, deadline time.Time) error {
	var b [ackLen]byte
	_ = oc.SetReadDeadline(deadline)
	if _, err := io.ReadFull(oc, b[:]); err != nil {
		oc.Close()
		return err
	}
	_ = oc.SetReadDeadline(time.Time{})
	acked, wrote := binary.LittleEndian.Uint64(b[:]), e.stats.Wrote.Load()
	if acked > wrote {
		oc.Close()
		return fmt.Errorf("runtime: edge %d->%d acknowledges %d of %d tuples written", e.from, e.target, acked, wrote)
	}
	oc.acked.Store(acked)
	e.stats.Lost.Store(wrote - acked)
	d.transport.Add(1)
	go d.ackLoop(e, oc)
	return nil
}

// ackLoop reads the reverse direction of one connection: cumulative
// credits, of which only the newest matters.
func (d *distEngine) ackLoop(e *remoteEdge, oc *outConn) {
	defer d.transport.Done()
	br := bufio.NewReaderSize(oc, 64*ackLen)
	var b [ackLen]byte
	for {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			break
		}
		if br.Buffered() >= ackLen {
			continue
		}
		oc.acked.Store(binary.LittleEndian.Uint64(b[:]))
		signal(e.credit)
	}
	oc.dead.Store(true)
	signal(e.credit)
}

// edgeWriter is the one goroutine that writes an edge's frames. It is
// self-clocking: whatever the sending station queued while the previous
// Write was in progress is the next frame.
type edgeWriter struct {
	d   *distEngine
	e   *remoteEdge
	oc  *outConn
	buf []byte
}

func (w *edgeWriter) run() {
	defer w.d.transport.Done()
	e := w.e
	for {
		win, ok := e.queue.Peek(w.d.done)
		if !ok {
			return
		}
		// No credit comes back from a dead connection; the frame is then
		// sized for the full window a redial opens.
		n := w.awaitCredit(len(win))
		live := n > 0
		if !live {
			n = len(win)
		}
		w.buf, n = appendFrame(w.buf[:0], win[:n])
		if n == 0 {
			// The tuple in front is wider than a frame may carry.
			w.shed(1)
			e.queue.Consume(1)
			continue
		}
		if !(live && w.write(n)) && !w.retry(n) {
			// Shutdown: the frame stays queued for the drain to account.
			return
		}
		e.queue.Consume(n)
	}
}

// awaitCredit blocks until the next frame may be written and returns its
// size: all want queued tuples if the window has room for them, otherwise
// at least half a window, so a target-bound edge does not degenerate into
// one tiny frame per returning credit. Zero means the connection died or
// the run shut down.
func (w *edgeWriter) awaitCredit(want int) int {
	e := w.e
	stalled := false
	for !w.oc.dead.Load() {
		// Everything this goroutine has written is admitted, lost or in
		// flight; the clamp only guards against a peer acknowledging
		// what was never sent.
		inflight := int(e.stats.Wrote.Load() - e.stats.Lost.Load() - w.oc.acked.Load())
		n := min(want, e.window-max(inflight, 0))
		if n == want || 2*n >= e.window {
			return n
		}
		if !stalled {
			stalled = true
			e.stats.CreditStalls.Add(1)
		}
		select {
		case <-e.credit:
		case <-w.d.done:
			return 0
		}
	}
	return 0
}

// write issues the encoded frame as one Write — so a failed or partial
// write never leaves a decodable frame behind — and counts it written.
func (w *edgeWriter) write(n int) bool {
	if _, err := w.oc.Write(w.buf); err != nil {
		return false
	}
	w.e.stats.Wrote.Add(uint64(n))
	w.e.stats.Frames.Add(1)
	return true
}

// shed counts the first n queued tuples dropped at the target operator:
// the edge degrades instead of dying.
func (w *edgeWriter) shed(n int) {
	tb := w.d.tab()
	tb.st[w.e.from].Emitted.Add(uint64(n))
	tb.st[w.e.target].Dropped.Add(uint64(n))
}

// retry redials the edge with exponential backoff until the encoded frame
// is written, the per-frame deadline expires (the frame is shed and the
// edge stays alive) or the run shuts down (false: the frame was not
// accounted). Only this frame is retried: what earlier frames of the dead
// connection had not delivered is settled as lost by resync.
func (w *edgeWriter) retry(n int) bool {
	start := time.Now()
	back := w.d.retryBackoff
	for {
		// Marked here as well as by ackLoop: a connection that never got
		// as far as reading acks must not be waited on for credit.
		w.oc.dead.Store(true)
		w.oc.Close()
		if !w.d.sleepBackoff(back) {
			return false
		}
		back = min(2*back, maxRetryBackoff)
		if time.Since(start) >= w.d.sendDeadline {
			w.shed(n)
			return true
		}
		oc, err := w.d.dial(w.e)
		if err != nil {
			continue
		}
		w.oc = oc
		if w.d.resync(w.e, oc, start.Add(w.d.sendDeadline)) == nil && w.write(n) {
			return true
		}
	}
}

// acceptLoop receives cross-node streams for one node.
func (d *distEngine) acceptLoop(ln net.Listener) {
	defer d.transport.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.transport.Add(1)
		go d.readLoop(conn)
	}
}

// readLoop serves one incoming stream: it decodes frames, admits their
// tuples to the target mailbox and returns the credit.
func (d *distEngine) readLoop(conn net.Conn) {
	defer d.transport.Done()
	// A decode error (including an injected partial frame) abandons the
	// connection; closing it fails the remote writer into its retry path.
	defer conn.Close()
	// A stream that never introduces itself must not outlive shutdown.
	_ = conn.SetReadDeadline(time.Now().Add(d.sendDeadline))
	from, target, window, err := readHandshake(conn)
	if err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	e := d.edges[edgeKey(from, target)]
	if e == nil || e.from != from || e.target != target || window != e.window {
		// Not a planned cross-node edge, or not its window; refuse.
		return
	}
	in := &inStream{conn: conn, stop: make(chan struct{}), exited: make(chan struct{})}
	defer close(in.exited)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	old := e.in
	e.in = in
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		if e.in == in {
			e.in = nil
		}
		d.mu.Unlock()
	}()
	if old != nil {
		// One stream per edge: the connection this one replaces must
		// have stopped admitting before the credit below is reported as
		// final, and before newer tuples can overtake its own.
		old.interrupt()
		<-old.exited
	}
	var ack [ackLen]byte
	sendAck := func() bool {
		binary.LittleEndian.PutUint64(ack[:], e.stats.Acked.Load())
		_, err := conn.Write(ack[:])
		return err == nil
	}
	if !sendAck() {
		return
	}
	tb := d.tab()
	// The reader is one more producer of the target inbox. Its admission
	// blocks (no timeout) while the inbox is full, and only admitted
	// tuples are acknowledged: that is what carries backpressure to the
	// remote writer.
	snd := tb.mailboxes[target].NewSender(0)
	br := bufio.NewReaderSize(conn, 64<<10)
	fr := frameReader{r: br, window: window}
	unreturned := 0
	for {
		batch, err := fr.next()
		if err != nil {
			return
		}
		e.stats.Recvd.Add(uint64(len(batch)))
		sent, _, ok := snd.SendMany(batch, in.stop)
		// Both ends of the edge are counted here: emission is only final
		// once the item clears the network and lands in the target
		// mailbox.
		tb.st[target].Arrived.Add(uint64(sent))
		tb.st[from].Emitted.Add(uint64(sent))
		e.stats.Acked.Add(uint64(sent))
		if !ok {
			// Replaced or shut down mid-frame: the remainder stays
			// unacknowledged, which is how it is accounted.
			return
		}
		// Return credit before blocking on the socket, or half a window
		// at a time while frames keep coming.
		if unreturned += sent; br.Buffered() == 0 || 2*unreturned >= window {
			if !sendAck() {
				return
			}
			unreturned = 0
		}
	}
}

// shutdownTransport closes the data plane and waits for its goroutines.
func (d *distEngine) shutdownTransport() {
	d.mu.Lock()
	d.closed = true
	for _, ln := range d.listeners {
		ln.Close()
	}
	for _, e := range d.edges {
		if e.out != nil {
			e.out.Close()
		}
		if e.in != nil {
			e.in.interrupt()
			e.in = nil
		}
	}
	d.mu.Unlock()
	d.transport.Wait()
}

// sendMany routes one delivery: a cross-node edge takes it into its queue
// (blocking while the queue is full, which is BAS toward the network),
// everything else goes through the in-process path. The reader counts a
// cross-node tuple emitted and arrived when the target inbox admits it.
func (d *distEngine) sendMany(from plan.StationID, edgeIdx int, edge *plan.Edge, ts []operators.Tuple) bool {
	q := d.out[from][edgeIdx]
	if q == nil {
		return d.localSendMany(from, edgeIdx, edge, ts)
	}
	tb := d.tab()
	if f := tb.stFaults[from]; f != nil {
		f.OnSend()
	}
	sent, _, ok := q.SendMany(ts, d.done)
	if !ok {
		tb.st[from].Abandoned.Add(uint64(len(ts) - sent))
	}
	return ok
}

// settle stops the data plane once every station has exited. What a
// station queued for a writer that never wrote it is abandoned at the
// station; what was written and never admitted is the network's loss,
// which it returns.
func (d *distEngine) settle() (lost uint64) {
	d.shutdownTransport()
	tb := d.tab()
	for _, e := range d.edges {
		tb.st[e.from].Abandoned.Add(uint64(e.queue.Drain()))
		lost += e.stats.Wrote.Load() - e.stats.Acked.Load()
	}
	return lost
}
