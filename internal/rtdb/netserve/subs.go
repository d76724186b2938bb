package netserve

import (
	"slices"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// This file puts standing queries on the wire. A SubOpen (or SubResume)
// frame attaches one subscription to the connection's server: the envelope
// is translated once through the same remaining = D−E / shifted-decay rule
// as aperiodic queries, and the server admits or refuses it. Every admitted
// subscription of a connection is drained by the connection's one push
// pump: all their delivery queues share the connection's wake channel, and
// the server fills every member queue of a group tick before it wakes any,
// so one tick of a group with N watchers on this connection is one pump
// wake-up, one batch of N Push frames and one socket write — not N of each.
//
// Delivery accounting stays exact across the hop: the pump stamps each
// frame with its queue's cumulative drop count at pop time, and every
// teardown path — SubCancel, connection loss, server drain — closes the
// queue and books whatever was still parked in it as dropped, so the push
// conservation law (PushScheduled == Pushed + PushDropped + PushExpired)
// holds over TCP exactly as it does in process.
//
// Ordering: the admitting SubAck is enqueued before the subscription is
// listed for the pump, so it always precedes the first Push, and each
// subscription's pushes leave in cursor order. A closing SubAck races the
// pump's last batch, so a client may see a few already-popped pushes trail
// the close — they carry cursors at or below the ack's and are safe to
// discard.

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

// pushSub is one subscription attached through this connection.
type pushSub struct {
	id uint64
	ss Sub
}

// attached returns the index of subscription id in c.subs, or -1. The
// caller holds smu.
func (c *conn) attached(id uint64) int {
	return slices.IndexFunc(c.subs, func(p *pushSub) bool { return p.id == id })
}

// subAttach admits one SubOpen/SubResume: duplicate ids are a protocol
// error, a refusal from the refusal table (a standby's firm envelope)
// answers with its Err code, any other refused envelope with a refused
// SubAck (no attachment), and an admitted one acks the cursor base and
// joins the push pump's list.
func (c *conn) subAttach(id uint64, spec sub.Spec, expired bool, depth int, after uint64) {
	c.n.Wire.SubsIn.Add(1)
	c.smu.Lock()
	dup := c.attached(id) >= 0
	c.smu.Unlock()
	if dup {
		c.tryEnqueue(rtwire.Err{ID: id, Code: rtwire.CodeBadRequest, Msg: "subscription id already in use"}.AppendTo(c.getBuf()))
		return
	}
	if !expired {
		ss, err := c.n.b.Subscribe(spec, after, depth, c.wake)
		if err == nil {
			c.enqueue(rtwire.SubAck{
				ID: id, State: rtwire.SubAdmitted, Cursor: after, Chronon: c.n.b.Now(),
			}.AppendTo(c.getBuf()))
			// Listed only after its SubAck is queued, so no batch can carry
			// its pushes ahead of the ack. A tick that landed before the
			// listing woke the pump too early to see it: wake it again.
			// Under smu no drain is running, so the next one clears the
			// token instead of leaving it to wake an empty drain.
			c.smu.Lock()
			c.subs = append(c.subs, &pushSub{id: id, ss: ss})
			select {
			case c.wake <- struct{}{}:
			default:
			}
			c.smu.Unlock()
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

// subCancel detaches one subscription. It leaves the pump's list first — a
// drain in progress finishes before the removal, and no later drain pops it
// — then Cancel closes the delivery queue and accounts its leftovers as
// dropped. The closing SubAck carries the last assigned cursor so the
// client can resume later without a gap.
func (c *conn) subCancel(id uint64) {
	c.smu.Lock()
	i := c.attached(id)
	var p *pushSub
	if i >= 0 {
		p = c.subs[i]
		c.subs = slices.Delete(c.subs, i, i+1)
	}
	c.smu.Unlock()
	if p == nil {
		c.tryEnqueue(rtwire.Err{ID: id, Code: rtwire.CodeBadRequest, Msg: "unknown subscription"}.AppendTo(c.getBuf()))
		return
	}
	last, _ := p.ss.Cancel()
	c.enqueue(rtwire.SubAck{
		ID: id, State: rtwire.SubClosed, Cursor: last, Chronon: c.n.b.Now(),
	}.AppendTo(c.getBuf()))
}

// pushPump is the connection's one push goroutine. Each wake drains every
// attached queue in attach order into one recycled buffer and hands it to
// the writer as a single write-queue entry. It is inflight-counted and,
// like the replication sender, tears down on rstop rather than done: it
// then cancels every still-attached subscription, so everything still
// queued is accounted dropped before the inflight wait completes.
func (c *conn) pushPump() {
	defer c.inflight.Done()
	for {
		select {
		case <-c.wake:
		case <-c.rstop:
			c.cancelSubs()
			return
		}
		batch, n := c.drainPushes(c.getBuf())
		if n == 0 {
			c.putBuf(batch)
			continue
		}
		// Block on the write queue (a slow subscriber's backpressure lands
		// here, where drop-oldest keeps every delivery queue bounded), but
		// stay interruptible: done may never close while this pump is
		// inflight-counted, so teardown rides on rstop.
		select {
		case c.writeq <- outFrame{b: batch, frames: n}:
			c.n.Wire.PushesOut.Add(uint64(n))
		case <-c.rstop:
			c.putBuf(batch)
			c.cancelSubs()
			return
		}
	}
}

// drainPushes pops every queued push of every attached subscription and
// appends its Push frame to buf, reporting how many frames it appended.
func (c *conn) drainPushes(buf []byte) ([]byte, int) {
	n := 0
	c.smu.Lock()
	defer c.smu.Unlock()
	// A token posted before this point announces pushes this drain pops;
	// left pending it would only wake the pump into an empty drain, which
	// could split the next tick's fan-out across two writes.
	select {
	case <-c.wake:
	default:
	}
	for _, p := range c.subs {
		for {
			push, droppedCum, ok := p.ss.Pop()
			if !ok {
				break
			}
			buf = rtwire.Push{
				ID: p.id, Cursor: push.Cursor, Dropped: droppedCum,
				Expired: push.Expired, Useful: push.Useful,
				Missed: push.Missed, Evaluated: push.Evaluated,
				Degraded: push.Degraded,
				Issue:    push.Issue, Served: push.Served,
				Answers: push.Answers,
			}.AppendTo(buf)
			n++
		}
	}
	return buf, n
}

// cancelSubs cancels every subscription still attached at teardown.
func (c *conn) cancelSubs() {
	c.smu.Lock()
	subs := c.subs
	c.subs = nil
	c.smu.Unlock()
	for _, p := range subs {
		_, _ = p.ss.Cancel()
	}
}
