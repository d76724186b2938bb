package netserve

import (
	"rtc/internal/deadline"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// This file puts standing queries on the wire. A SubOpen (or SubResume)
// frame attaches one subscription to the connection's server: the envelope
// is translated once through the same remaining = D−E / shifted-decay rule
// as aperiodic queries, the server admits or refuses it, and an admitted
// subscription gets a dedicated pump goroutine that drains the bounded
// delivery queue into the connection's write queue as Push frames.
//
// Delivery accounting stays exact across the hop: the pump stamps each
// frame with the queue's cumulative drop count at pop time, and every
// teardown path — SubCancel, connection loss, server drain — closes the
// queue and books whatever was still parked in it as dropped, so the push
// conservation law (PushScheduled == Pushed + PushDropped + PushExpired)
// holds over TCP exactly as it does in process.
//
// Ordering: the admitting SubAck is enqueued before the pump starts, so it
// always precedes the first Push. A closing SubAck races the pump's final
// pops, so a client may see a few already-popped pushes trail the close —
// they carry cursors at or below the ack's and are safe to discard.

// translateSub maps a subscription's client-relative per-tick envelope onto
// the server's chronon frame, reusing Translate so the rule cannot drift
// from the aperiodic path. expired means the envelope is dead on arrival —
// every tick of the subscription would be expired before it started — and
// the subscription must be refused, not attached.
func translateSub(query string, period timeseq.Time, kind deadline.Kind,
	dl, elapsed timeseq.Time, minUseful uint64, decay rtwire.Decay) (sub.Spec, bool) {
	qr, expired := Translate(rtwire.Query{
		Query: query, Kind: kind, Deadline: dl, Elapsed: elapsed,
		MinUseful: minUseful, Decay: decay,
	})
	return sub.Spec{
		Query: query, Period: period, Kind: kind,
		Deadline: qr.Deadline, MinUseful: minUseful, U: qr.U,
	}, expired
}

// subPump drains one subscription's delivery queue into the connection's
// write queue. It is inflight-counted and, like the replication sender,
// tears down on rstop rather than done.
type subPump struct {
	c  *conn
	id uint64
	ss Sub
}

// subAttach admits one SubOpen/SubResume: duplicate ids are a protocol
// error, a refusal from the refusal table (a standby's firm envelope)
// answers with its Err code, any other refused envelope with a refused
// SubAck (no attachment, no pump), and an admitted one acks the cursor
// base and starts its pump.
func (c *conn) subAttach(id uint64, spec sub.Spec, expired bool, depth int, after uint64) {
	c.n.Wire.SubsIn.Add(1)
	if _, dup := c.subs[id]; dup {
		c.tryEnqueue(rtwire.Err{ID: id, Code: rtwire.CodeBadRequest, Msg: "subscription id already in use"}.AppendTo(c.getBuf()))
		return
	}
	if !expired {
		ss, err := c.n.b.Subscribe(spec, after, depth)
		if err == nil {
			if c.subs == nil {
				c.subs = make(map[uint64]*subPump)
			}
			p := &subPump{c: c, id: id, ss: ss}
			c.subs[id] = p
			c.enqueue(rtwire.SubAck{
				ID: id, State: rtwire.SubAdmitted, Cursor: after, Chronon: c.n.b.Now(),
			}.AppendTo(c.getBuf()))
			c.inflight.Add(1)
			go p.run()
			return
		}
		if _, table := refusalCode(err); table {
			frame, _ := c.refuse(id, err)
			c.enqueue(frame)
			return
		}
	}
	c.enqueue(rtwire.SubAck{
		ID: id, State: rtwire.SubRefused, Cursor: after, Chronon: c.n.b.Now(),
	}.AppendTo(c.getBuf()))
}

// subCancel detaches one subscription. Cancel closes the delivery queue
// (accounting its leftovers as dropped), which the pump observes and exits
// on; the closing SubAck carries the last assigned cursor so the client can
// resume later without a gap.
func (c *conn) subCancel(id uint64) {
	p, ok := c.subs[id]
	if !ok {
		c.tryEnqueue(rtwire.Err{ID: id, Code: rtwire.CodeBadRequest, Msg: "unknown subscription"}.AppendTo(c.getBuf()))
		return
	}
	delete(c.subs, id)
	last, _ := p.ss.Cancel()
	c.enqueue(rtwire.SubAck{
		ID: id, State: rtwire.SubClosed, Cursor: last, Chronon: c.n.b.Now(),
	}.AppendTo(c.getBuf()))
}

// run pumps pushes until the subscription is cancelled or the connection
// tears down. On rstop it cancels the subscription itself so everything
// still queued is accounted dropped before the inflight wait completes.
func (p *subPump) run() {
	defer p.c.inflight.Done()
	for {
		for {
			push, droppedCum, ok := p.ss.Pop()
			if !ok {
				break
			}
			frame := rtwire.Push{
				ID: p.id, Cursor: push.Cursor, Dropped: droppedCum,
				Expired: push.Expired, Useful: push.Useful,
				Missed: push.Missed, Evaluated: push.Evaluated,
				Degraded: push.Degraded,
				Issue:    push.Issue, Served: push.Served,
				Answers: push.Answers,
			}.AppendTo(p.c.getBuf())
			// Block on the write queue (a slow subscriber's backpressure
			// lands here, where drop-oldest keeps the queue bounded), but
			// stay interruptible: done may never close while this pump is
			// inflight-counted, so teardown rides on rstop.
			select {
			case p.c.writeq <- frame:
				p.c.n.Wire.PushesOut.Add(1)
			case <-p.c.rstop:
				p.c.putBuf(frame)
				_, _ = p.ss.Cancel()
				return
			}
		}
		if p.ss.Queue().Closed() {
			return // cancelled; the read loop already sent the closing ack
		}
		select {
		case <-p.ss.Notify():
		case <-p.c.rstop:
			_, _ = p.ss.Cancel()
			return
		}
	}
}
