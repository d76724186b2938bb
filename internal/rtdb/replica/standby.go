package replica

import (
	"errors"
	"net"
	"slices"

	"rtc/internal/deadline"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// This file is the hot-standby serving surface: the netserve.Backend the
// standby is served through, so both roles share netserve's one frame
// loop and its one writer and one push pump per connection. Reads are
// answered from the published as-of snapshot (lock-free) or the query
// mirror (under mu); everything only a primary may accept is refused
// through netserve's refusal table.
//
// The serving contract (TestStandbyServingContract):
//
//	Sample        → Err CodeReadOnly (accounted SamplesIn + SamplesRejected)
//	Query (firm)  → Err CodeReadOnly (accounted QueriesIn + QueriesRejected
//	                + RejectMiss, so the conservation law holds)
//	Query (soft / no deadline) → evaluated on the mirror, accounted through
//	                AccountDegraded — answered, but marked a distinct
//	                quality class
//	AsOf, MetricsReq, Flush, Heartbeat → served
//	Subscribe     → Err CodeBadRequest (replicas do not chain)
//	SubOpen / SubResume (firm) → Err CodeReadOnly; (soft / no deadline) →
//	                admitted and served from the replicated horizon with
//	                Degraded pushes
//	SubCancel, Bye → as on a primary
//
// Standing queries tick on the replicated horizon: the tailer calls
// serveSubTicks after every applied batch, the only moment the standby's
// virtual clock moves, and before the WalAck. A batch that jumps the
// horizon far ahead makes a burst of ticks due at once; each is re-checked
// against its translated envelope, so stale ticks expire (counted cursors,
// not silent skips). Every tick is scheduled and accounted there and Put
// into the subscription's bounded drop-oldest sub.Queue — the same queue a
// primary subscription has — so the tailer never writes to a client socket
// and a stalled subscriber costs its own oldest pushes, never replication.
// The queues are woken once the whole sweep is queued, so each connection's
// push pump sends a sweep's fan-out in one write.

// standbySessions bounds the standby's concurrent client connections. A
// standby has no session queues; the bound only sizes netserve's pool.
const standbySessions = 1024

// errNotServable refuses a standing query the mirror cannot serve (zero
// period, unknown catalog query, no mirror) with a refused SubAck.
var errNotServable = errors.New("replica: standing query not servable from the mirror")

// Listen starts the standby listener on addr in a background goroutine and
// returns the bound address.
func (r *Replica) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return r.ServeOn(ln)
}

// ServeOn starts serving the standby on an already-bound listener — the
// injection point torture tests use to put the standby behind a faultnet
// fabric. Close stops it.
func (r *Replica) ServeOn(ln net.Listener) (net.Addr, error) {
	ns := netserve.NewNode(standby{r}, r.cfg.serveOptions())
	r.cmu.Lock()
	select {
	case <-r.quit:
		r.cmu.Unlock()
		_ = ln.Close()
		return nil, errors.New("replica: closed")
	default:
	}
	r.servers = append(r.servers, ns)
	r.cmu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = ns.Serve(ln)
	}()
	return ln.Addr(), nil
}

// chronon is the virtual time the standby reports: the timestamp horizon of
// the replicated state.
func (r *Replica) chronon() timeseq.Time {
	if h := r.hist.Load(); h != nil {
		return h.at
	}
	return 0
}

// standby is the replica's netserve.Backend. It is its own Session: no
// request on a standby depends on which connection sent it.
type standby struct{ r *Replica }

func (s standby) Sessions() int                { return standbySessions }
func (s standby) Session(int) netserve.Session { return s }
func (s standby) Epoch() uint64                { return s.r.Epoch() }
func (s standby) Now() timeseq.Time            { return s.r.chronon() }
func (s standby) Vouched() uint64              { return s.r.Seq() }
func (s standby) Counters() *server.Metrics    { return &s.r.Metrics }
func (s standby) WAL() *wal.Log                { return nil } // replicas do not chain
func (s standby) Flush() error                 { return nil } // nothing is ever pending

// Role is what the standby announces: RoleStandby until promotion.
func (s standby) Role() rtwire.Role {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.promoted {
		return rtwire.RolePrimary
	}
	return rtwire.RoleStandby
}

func (s standby) InjectSample(string, rtdb.Value) error {
	s.r.Metrics.SamplesIn.Add(1)
	s.r.Metrics.SamplesRejected.Add(1)
	return netserve.ErrReadOnly
}

// Query implements the degraded-query discipline of the serving contract.
func (s standby) Query(qr server.QueryRequest) (server.Response, error) {
	r := s.r
	hasDeadline := qr.Kind != deadline.None
	mirror, evaluated := false, false
	var answers []string
	if qr.Kind != deadline.Firm {
		r.mu.Lock()
		if r.db != nil {
			mirror = true
			answers, evaluated = r.evalLocked(qr.Query)
		}
		r.mu.Unlock()
	}
	if !mirror {
		// Firm deadlines need the primary, and without a mirror nothing is
		// answerable: refused, and a miss when a deadline rides on it.
		r.Metrics.QueriesIn.Add(1)
		r.Metrics.QueriesRejected.Add(1)
		if hasDeadline {
			r.Metrics.RejectMiss.Add(1)
		}
		return server.Response{}, netserve.ErrReadOnly
	}
	// Serving is instantaneous in chronon terms (no apply loop to wait
	// for); an unexpired soft query is therefore a hit, an unknown query
	// name a miss when a deadline rides on it.
	missed := !evaluated && hasDeadline
	r.Metrics.AccountDegraded(missed, hasDeadline)
	useful := qr.MinUseful
	if missed {
		useful = 0
	}
	now := r.chronon()
	return server.Response{
		Answers: answers, Match: qr.Candidate != "" && slices.Contains(answers, qr.Candidate),
		Useful: useful, Missed: missed, Evaluated: evaluated, Issue: now, Served: now,
	}, nil
}

// evalLocked evaluates one catalog query against the mirror. Caller holds
// mu and has checked the mirror exists.
func (r *Replica) evalLocked(query string) ([]string, bool) {
	q, ok := r.cfg.Catalog[query]
	if !ok {
		return nil, false
	}
	return q(r.db.ViewNow()), true
}

func (s standby) AsOf(image string, at timeseq.Time) (rtdb.Value, bool, timeseq.Time) {
	s.r.Metrics.AsOfReads.Add(1)
	h := s.r.hist.Load()
	if h == nil {
		return "", false, 0
	}
	// Indexed timeline lookup — the same O(log history) path the primary
	// serves from, so a standby's as-of reads stay flat as the mirror ages.
	v, ok := h.db.ValueAsOf(image, at)
	return v, ok, h.at
}

func (s standby) AppendRows(dst []rtwire.MetricPair) []rtwire.MetricPair {
	r := s.r
	seq, epoch := r.Seq(), r.Epoch()
	return append(dst,
		// wal_seq and epoch use the same names a primary reports, so
		// failover tooling reads one coordinate regardless of role.
		rtwire.MetricPair{Name: "wal_seq", Value: seq},
		rtwire.MetricPair{Name: "epoch", Value: epoch},
		rtwire.MetricPair{Name: "repl_seq", Value: seq},
		rtwire.MetricPair{Name: "repl_epoch", Value: epoch},
		rtwire.MetricPair{Name: "repl_batches_in", Value: r.Repl.BatchesIn.Load()},
		rtwire.MetricPair{Name: "repl_events_applied", Value: r.Repl.EventsApplied.Load()},
		rtwire.MetricPair{Name: "repl_dup_skipped", Value: r.Repl.DupSkipped.Load()},
		rtwire.MetricPair{Name: "repl_gap_resubscribes", Value: r.Repl.GapResubscribes.Load()},
		rtwire.MetricPair{Name: "repl_resyncs", Value: r.Repl.Resyncs.Load()},
		rtwire.MetricPair{Name: "repl_stale_batches", Value: r.Repl.StaleBatches.Load()},
		rtwire.MetricPair{Name: "repl_reconnects", Value: r.Repl.Reconnects.Load()},
		rtwire.MetricPair{Name: "repl_promotions", Value: r.Repl.Promotions.Load()},
	)
}

// Subscribe admits a soft or deadline-free standing query the mirror can
// serve; firm envelopes belong on the primary. Its queue holds depth
// pushes, the server's default when the client leaves it 0, and wakes the
// connection's push pump on wake.
func (s standby) Subscribe(spec sub.Spec, after uint64, depth int, wake chan struct{}) (netserve.Sub, error) {
	r := s.r
	if spec.Kind == deadline.Firm {
		return nil, netserve.ErrReadOnly
	}
	r.mu.Lock()
	_, known := r.cfg.Catalog[spec.Query]
	mirror := r.db != nil
	r.mu.Unlock()
	if spec.Period == 0 || !known || !mirror {
		return nil, errNotServable
	}
	if depth <= 0 {
		depth = server.DefaultSubQueueDepth
	}
	r.smu.Lock()
	ss := &standbySub{r: r, s: r.subs.Attach(spec, after, depth, r.chronon(), wake)}
	r.smu.Unlock()
	r.Metrics.SubsOpened.Add(1)
	return ss, nil
}

// standbySub is one standing query attached to the standby: the tailer
// puts its ticks into the queue, the connection's push pump pops them.
type standbySub struct {
	r *Replica
	s *sub.Sub
}

// Pop dequeues the oldest push and accounts its delivery.
func (ss *standbySub) Pop() (sub.Push, uint64, bool) {
	p, droppedCum, ok := ss.s.Q.Pop()
	if ok {
		ss.r.Metrics.AccountPushed()
	}
	return p, droppedCum, ok
}

// Cancel detaches the subscription and books what is still queued as
// dropped; a second call only reports the cursor.
func (ss *standbySub) Cancel() (uint64, error) {
	r := ss.r
	r.smu.Lock()
	defer r.smu.Unlock()
	if !ss.s.Q.Closed() {
		r.subs.Detach(ss.s)
		r.Metrics.SubsClosed.Add(1)
		if n := ss.s.Q.Close(); n > 0 {
			r.Metrics.AccountPushDropped(uint64(n))
		}
	}
	return ss.s.Cursor(), nil
}

// serveSubTicks serves every standby tick the replicated horizon has
// crossed. Every tick consumes a cursor and is expired by per-tick
// admission or evaluated (once per group per sweep — the mirror is frozen
// between batches) and queued; a queue overflow drops its oldest push. Every
// due member's queue is woken after the whole sweep is queued.
func (r *Replica) serveSubTicks() {
	r.smu.Lock()
	defer r.smu.Unlock()
	if r.subs.Len() == 0 {
		return
	}
	now := r.chronon()
	due := r.subs.Due(now)
	for _, g := range due {
		var answers []string
		evaluated, done := false, false
		for g.Next() <= now {
			issue := g.Advance()
			for _, m := range g.Members() {
				cursor := m.AssignCursor()
				r.Metrics.PushScheduled.Add(1)
				if !m.Spec.Admissible(issue, now) {
					m.Expire()
					r.Metrics.PushExpired.Add(1)
					continue
				}
				if !done {
					r.mu.Lock()
					if r.db != nil {
						answers, evaluated = r.evalLocked(g.Key().Query)
					}
					r.mu.Unlock()
					done = true
				}
				hasDeadline := m.Spec.Kind != deadline.None
				useful, late := m.Spec.Score(issue, now)
				missed := late || (!evaluated && hasDeadline)
				if !evaluated {
					useful = 0
				}
				r.Metrics.AccountDegraded(missed, hasDeadline)
				if m.Q.Put(sub.Push{
					Cursor: cursor, Expired: m.Expired(), Useful: useful,
					Missed: missed, Evaluated: evaluated, Degraded: true,
					Issue: issue, Served: now, Answers: answers,
				}) {
					r.Metrics.AccountPushDropped(1)
				}
			}
		}
	}
	for _, g := range due {
		g.Wake()
	}
}
