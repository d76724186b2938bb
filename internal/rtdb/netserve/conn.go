package netserve

import (
	"bufio"
	"net"
	"sync"
	"time"

	"rtc/internal/rtwire"
)

// conn is one live connection bound to one backend session.
type conn struct {
	n    *Server
	nc   net.Conn
	br   *bufio.Reader
	sess Session

	// writeq is the bounded outgoing frame queue; writeLoop drains it.
	// done closes after every producer is finished (inflight waited), so
	// the writer can drain-and-exit without racing an enqueue.
	writeq chan outFrame
	done   chan struct{}
	wdone  chan struct{}

	// wfree recycles outgoing frame buffers: writeLoop returns each buffer
	// once its bytes are on (or in the bufio layer of) the socket, and
	// handlers encode the next response into a recycled one. Bounded at
	// one more than the write queue, so every in-flight frame plus one
	// being encoded can come from the list; overflow falls to the GC.
	wfree chan []byte

	// rstop closes as soon as the read loop returns — before the inflight
	// wait — so the long-running replication sender (which is inflight-
	// counted) has a teardown signal that does not depend on its own exit.
	rstop chan struct{}

	// sem bounds concurrent blocking requests (queries, flushes); the
	// read loop stalls when it is full, pushing backpressure into TCP.
	sem      chan struct{}
	inflight sync.WaitGroup

	// ackCh carries WalAck sequence numbers from the read loop to the
	// replication sender; repl guards against a second Subscribe.
	ackCh chan uint64
	repl  bool

	// The push pump (subs.go): wake is the wake channel every delivery
	// queue of this connection shares; subs, guarded by smu, lists the
	// attached subscriptions in attach order. The read loop attaches and
	// cancels, the pump drains, and on rstop it cancels what is still
	// listed.
	wake chan struct{}
	smu  sync.Mutex
	subs []*pushSub
}

// outFrame is one write-queue entry: encoded bytes holding a whole number
// of frames — one for a reply, a tick's batch of Push frames from the push
// pump — so the frame counters stay per frame, not per write.
type outFrame struct {
	b      []byte
	frames int
}

// interruptRead unblocks a pending Read so the read loop can observe the
// server's quit channel.
func (c *conn) interruptRead() { _ = c.nc.SetReadDeadline(time.Now()) }

// getBuf returns a recycled encode buffer (length 0) or nil; append grows
// a nil slice, so callers just encode into whatever comes back.
func (c *conn) getBuf() []byte {
	select {
	case b := <-c.wfree:
		return b[:0]
	default:
		return nil
	}
}

// putBuf offers a spent frame buffer back to the free list.
func (c *conn) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case c.wfree <- b:
	default:
	}
}

// enqueue queues one outgoing frame, blocking until there is room. It is
// used by request handlers, which are allowed to wait on a slow client
// (the apply loop is long done with the request by then); done aborts the
// wait during teardown.
func (c *conn) enqueue(frame []byte) bool {
	select {
	case c.writeq <- outFrame{b: frame, frames: 1}:
		return true
	case <-c.done:
		return false
	}
}

// tryEnqueue queues one frame without blocking. Best-effort notifications
// (backpressure errors, the drain Bye) use it: under a full queue they are
// dropped and counted rather than stalling the read loop.
func (c *conn) tryEnqueue(frame []byte) bool {
	select {
	case c.writeq <- outFrame{b: frame, frames: 1}:
		return true
	default:
		c.n.Wire.WriteDrops.Add(1)
		c.putBuf(frame)
		return false
	}
}

// writeLoop drains the write queue to the socket. On done it finishes
// whatever is queued, then signals wdone.
func (c *conn) writeLoop() {
	defer close(c.wdone)
	bw := bufio.NewWriter(c.nc)
	write := func(f outFrame) bool {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.n.opt.WriteTimeout))
		if _, err := bw.Write(f.b); err != nil {
			return false
		}
		// Flush eagerly when the queue is empty; otherwise let frames
		// coalesce into one syscall.
		if len(c.writeq) == 0 {
			if err := bw.Flush(); err != nil {
				return false
			}
		}
		c.n.Wire.FramesOut.Add(uint64(f.frames))
		c.n.Wire.BytesOut.Add(uint64(len(f.b)))
		// bufio has copied (or directly written) the bytes; the buffer is
		// free for the next response.
		c.putBuf(f.b)
		return true
	}
	// fail is the write-error path: a client that cannot absorb frames
	// within WriteTimeout is dead weight. Count it and interrupt the read
	// loop so the whole connection tears down now — before this change a
	// dead writer left the reader idling until IdleTimeout while every
	// response silently fell into discard.
	fail := func() {
		c.n.Wire.WriteTimeouts.Add(1)
		c.interruptRead()
		c.discard()
	}
	for {
		select {
		case f := <-c.writeq:
			if !write(f) {
				fail()
				return
			}
		case <-c.done:
			for {
				select {
				case f := <-c.writeq:
					if !write(f) {
						c.discard()
						return
					}
				default:
					_ = bw.Flush()
					return
				}
			}
		}
	}
}

// discard keeps draining the queue after a write error so producers
// blocked in enqueue never wedge on a dead socket.
func (c *conn) discard() {
	for {
		select {
		case f := <-c.writeq:
			c.n.Wire.WriteDrops.Add(uint64(f.frames))
		case <-c.done:
			// Producers are gone; drop whatever is left.
			for {
				select {
				case f := <-c.writeq:
					c.n.Wire.WriteDrops.Add(uint64(f.frames))
				default:
					return
				}
			}
		}
	}
}

// readLoop consumes the connection's timed word frame by frame until the
// client says Bye, the connection dies, the idle timeout fires, or the
// server drains.
func (c *conn) readLoop() {
	// One payload buffer for the connection's lifetime: Decode copies the
	// field strings out, so the next frame may overwrite it.
	var rbuf []byte
	// The inbound-silence bound is the tighter of IdleTimeout and three
	// heartbeat intervals: a client that beacons every interval but goes
	// silent behind a one-way partition is cut here in bounded time — the
	// server-side half of the watchdog contract.
	idle := min(c.n.opt.IdleTimeout, 3*c.n.opt.HeartbeatInterval)
	for {
		select {
		case <-c.n.quit:
			return
		default:
		}
		_ = c.nc.SetReadDeadline(time.Now().Add(idle))
		f, err := rtwire.ReadFrameBuf(c.br, &rbuf)
		if err != nil {
			if rtwire.IsProtocolError(err) {
				c.n.Wire.DecodeErrors.Add(1)
				if rtwire.IsCorruptFrame(err) {
					// Byte damage (not a mid-frame cut): the CRC or framing
					// caught it. The connection resets — boundaries are gone.
					c.n.Wire.CorruptFrames.Add(1)
				}
			}
			return
		}
		c.n.Wire.FramesIn.Add(1)
		c.n.Wire.BytesIn.Add(uint64(rtwire.HeaderSize + len(f.Payload)))
		if !c.dispatch(f) {
			return
		}
	}
}

// dispatch handles one frame; false ends the connection.
func (c *conn) dispatch(f rtwire.Frame) bool {
	msg, err := rtwire.Decode(f)
	if err != nil {
		c.n.Wire.DecodeErrors.Add(1)
		c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: err.Error()}.AppendTo(c.getBuf()))
		return true
	}
	switch m := msg.(type) {
	case rtwire.Sample:
		c.n.Wire.SamplesIn.Add(1)
		if err := c.sess.InjectSample(m.Image, m.Value); err != nil {
			frame, serving := c.refuse(m.ID, err)
			c.tryEnqueue(frame)
			return serving
		}
	case rtwire.Query:
		c.n.Wire.QueriesIn.Add(1)
		select {
		case c.sem <- struct{}{}:
		case <-c.done:
			return false
		}
		c.inflight.Add(1)
		go func() {
			defer c.inflight.Done()
			defer func() { <-c.sem }()
			c.serveQuery(m)
		}()
	case rtwire.AsOf:
		c.n.Wire.AsOfReads.Add(1)
		v, ok, horizon := c.n.b.AsOf(m.Image, m.At)
		c.enqueue(rtwire.AsOfResult{
			ID: m.ID, OK: ok, Value: v, Horizon: horizon,
		}.AppendTo(c.getBuf()))
	case rtwire.MetricsReq:
		pairs := c.n.b.Counters().Snapshot().Pairs()
		wp := make([]rtwire.MetricPair, 0, 2+len(pairs)+wireMetricCount)
		if c.n.opt.Shards > 1 {
			// A sharded listener labels its table with two leading rows;
			// the base rows keep their exact names, so tooling that reads
			// counters by name reads a shard's table unchanged
			// (TestShardMetricsRows pins both halves).
			wp = append(wp,
				rtwire.MetricPair{Name: "shard", Value: uint64(c.n.opt.Shard)},
				rtwire.MetricPair{Name: "shards", Value: uint64(c.n.opt.Shards)})
		}
		for _, p := range pairs {
			wp = append(wp, rtwire.MetricPair{Name: p.Name, Value: p.Value})
		}
		wp = c.n.Wire.Snapshot().appendPairs(wp)
		wp = c.n.b.AppendRows(wp)
		c.enqueue(rtwire.Metrics{ID: m.ID, Pairs: wp}.AppendTo(c.getBuf()))
	case rtwire.Flush:
		select {
		case c.sem <- struct{}{}:
		case <-c.done:
			return false
		}
		c.inflight.Add(1)
		go func() {
			defer c.inflight.Done()
			defer func() { <-c.sem }()
			if err := c.sess.Flush(); err != nil {
				frame, _ := c.refuse(m.ID, err)
				c.enqueue(frame)
				return
			}
			c.enqueue(rtwire.Flushed{ID: m.ID, Chronon: c.n.b.Now()}.AppendTo(c.getBuf()))
		}()
	case rtwire.Subscribe:
		if c.repl {
			c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: "already subscribed"}.AppendTo(c.getBuf()))
			return true
		}
		if c.n.b.WAL() == nil {
			frame, _ := c.refuse(0, ErrNoReplication)
			c.tryEnqueue(frame)
			return true
		}
		c.repl = true
		c.n.replSubscribe(c, m.AfterSeq)
		c.inflight.Add(1)
		go c.serveReplication(m)
	case rtwire.WalAck:
		c.n.replAck(c, m.Seq)
		select {
		case c.ackCh <- m.Seq:
		default: // sender reads acks in batches; a stale one is harmless
		}
	case rtwire.SubOpen:
		spec, expired := translateSub(m.Query, m.Period, m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
		c.subAttach(m.ID, spec, expired, int(m.Depth), 0)
	case rtwire.SubResume:
		spec, expired := translateSub(m.Query, m.Period, m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
		c.subAttach(m.ID, spec, expired, int(m.Depth), m.AfterCursor)
	case rtwire.SubCancel:
		c.subCancel(m.ID)
	case rtwire.Heartbeat:
		c.n.Wire.HeartbeatsIn.Add(1)
		// The echoed Seq is what the backend vouches for — on a primary the
		// replication durability watermark, NOT the local WAL tail: a
		// client may rely on it surviving this node's death.
		c.tryEnqueue(rtwire.Heartbeat{
			Epoch: c.n.b.Epoch(), Chronon: c.n.b.Now(), Seq: c.n.b.Vouched(),
		}.AppendTo(c.getBuf()))
	case rtwire.Bye:
		return false
	default:
		c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: "unexpected " + f.Kind.String()}.AppendTo(c.getBuf()))
	}
	return true
}

// serveQuery translates the wire deadline envelope and runs the query
// through this connection's session. An expired-on-arrival query is
// accounted as a miss through the server's metrics block — never
// evaluated, never silently dropped — and answered with a missed Result
// so the client's picture matches the server's books.
func (c *conn) serveQuery(m rtwire.Query) {
	qr, expired := Translate(m)
	if expired {
		c.n.b.Counters().AccountExpired()
		c.n.Wire.ExpiredOnArrival.Add(1)
		now := c.n.b.Now()
		c.enqueue(rtwire.Result{
			ID: m.ID, Missed: true, Evaluated: false,
			Issue: now, Served: now, ExpiredOnArrival: true,
		}.AppendTo(c.getBuf()))
		return
	}
	resp, err := c.sess.Query(qr)
	if err != nil {
		// The backend accounted the refusal (and the miss, for
		// deadline-carrying queries); tell the client explicitly.
		frame, _ := c.refuse(m.ID, err)
		c.enqueue(frame)
		return
	}
	c.enqueue(rtwire.Result{
		ID: m.ID, Answers: resp.Answers, Match: resp.Match,
		Useful: resp.Useful, Missed: resp.Missed, Evaluated: resp.Evaluated,
		Issue: resp.Issue, Served: resp.Served,
	}.AppendTo(c.getBuf()))
}

// refuse encodes the Err frame answering a refused request, its code taken
// from the refusal table. serving is false when the refusal was no table
// row — the backend is closing and so is the connection.
func (c *conn) refuse(id uint64, err error) (frame []byte, serving bool) {
	code, serving := refusalCode(err)
	if code == rtwire.CodeBackpressure {
		c.n.Wire.BackpressureFrames.Add(1)
	}
	return rtwire.Err{ID: id, Code: code, Msg: err.Error()}.AppendTo(c.getBuf()), serving
}
