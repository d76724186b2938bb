package server

import (
	"sync"

	"rtc/internal/deadline"
	"rtc/internal/timeseq"
)

// replyPool recycles the one-slot response channels Query and Flush block
// on. A channel is returned to the pool only after its response has been
// received — a request abandoned on server shutdown keeps its channel, so
// a late send can never leak into the next borrower's call.
var replyPool = sync.Pool{
	New: func() any { return make(chan Response, 1) },
}

// Session is one client's handle on the server. Each session owns a
// bounded queue; a full queue rejects immediately (reject-with-deadline-
// miss) rather than blocking, so firm-deadline semantics survive overload.
type Session struct {
	id    int
	srv   *Server
	queue chan request
}

// ID returns the session index.
func (c *Session) ID() int { return c.id }

// forward drains the session queue into the server inbox, preserving the
// session's FIFO order. Backpressure composes: when the inbox is full the
// forwarder stalls, the session queue fills, and submissions start being
// rejected at the edge.
func (c *Session) forward() {
	defer c.srv.wg.Done()
	for {
		select {
		case r := <-c.queue:
			select {
			case c.srv.inbox <- r:
			case <-c.srv.quit:
				return
			}
		case <-c.srv.quit:
			return
		}
	}
}

// trySubmit enqueues without blocking.
func (c *Session) trySubmit(r request) bool {
	if c.srv.closed.Load() {
		return false
	}
	select {
	case c.queue <- r:
		return true
	default:
		return false
	}
}

// InjectSample submits one sensor sample for an image object. It is
// asynchronous: the sample is applied by the server's apply loop. A full
// queue returns ErrBackpressure.
func (c *Session) InjectSample(image, value string) error {
	return c.injectSampleAt(image, value, 0)
}

// Query submits one aperiodic query, issued at the server's current
// chronon, and blocks for the response. A full queue rejects immediately;
// for deadline-carrying queries the rejection is accounted as a deadline
// miss (never silently dropped).
func (c *Session) Query(q QueryRequest) (Response, error) {
	return c.queryAt(q, c.srv.Now())
}

// Flush blocks until everything this session enqueued before it has been
// applied and is durable.
func (c *Session) Flush() error {
	_, err := c.flushAt(0)
	return err
}

// The stamped forms below are the one implementation of each request. A
// stamp is the chronon the request must land at: the apply loop first
// advances idle time up to it (or does nothing if its clock already passed
// it). The public forms stamp 0 or the server's own clock, which never
// exceeds the apply loop's, so their requests land at the loop's clock;
// the sharded router stamps its global routing clock.

// injectSampleAt submits one sample to land at chronon at or later.
func (c *Session) injectSampleAt(image, value string, at timeseq.Time) error {
	if c.srv.closed.Load() {
		return ErrClosed
	}
	c.srv.Metrics.SamplesIn.Add(1)
	if !c.trySubmit(request{kind: reqSample, session: c.id, image: image, value: value, at: at}) {
		c.srv.Metrics.SamplesIn.Add(^uint64(0)) // undo: never entered a queue
		c.srv.Metrics.SamplesRejected.Add(1)
		return ErrBackpressure
	}
	return nil
}

// queryAt submits one query issued at chronon issue, so its deadline
// envelope is judged from there rather than from the (possibly lagging)
// clock of the shard that owns it.
func (c *Session) queryAt(q QueryRequest, issue timeseq.Time) (Response, error) {
	if c.srv.closed.Load() {
		return Response{}, ErrClosed
	}
	c.srv.Metrics.QueriesIn.Add(1)
	r := request{
		kind: reqQuery, session: c.id, q: q,
		issue: issue, at: issue, reply: replyPool.Get().(chan Response),
	}
	if !c.trySubmit(r) {
		c.srv.Metrics.QueriesRejected.Add(1)
		if q.Kind != deadline.None {
			c.srv.Metrics.RejectMiss.Add(1)
		}
		replyPool.Put(r.reply)
		return Response{Missed: q.Kind != deadline.None, Issue: r.issue}, ErrBackpressure
	}
	return c.srv.await(r.reply)
}

// flushAt is the durability barrier, with the shard's clock pulled up to
// chronon at before it resolves, so a quiet shard's horizon advances with
// the rest of the group. It returns the clock at the barrier — periodic and
// subscription evaluations advance a shard past the stamps it was routed,
// and the router folds that drift back into the global clock at every
// flush point.
func (c *Session) flushAt(at timeseq.Time) (timeseq.Time, error) {
	if c.srv.closed.Load() {
		return 0, ErrClosed
	}
	r := request{kind: reqBarrier, session: c.id, at: at, reply: replyPool.Get().(chan Response)}
	select {
	case c.queue <- r:
	case <-c.srv.quit:
		return 0, ErrClosed
	}
	resp, err := c.srv.await(r.reply)
	return resp.Served, err
}
