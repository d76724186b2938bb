package netserve

import (
	"errors"

	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// Backend is the node a Server puts on the wire. The transport — the
// handshake, one frame loop, one writer goroutine and one push pump per
// connection, the replication sender — is the same for every role; the
// backend supplies only what differs. New serves a primary *server.Server;
// the replica package serves its hot standby through NewNode.
type Backend interface {
	// Sessions bounds the concurrent connections; Session is the request
	// surface of pool slot id, bound to one connection at a time.
	Sessions() int
	Session(id int) Session
	// Role, Epoch and Now describe the node in Welcome, Heartbeat, Flushed
	// and SubAck frames.
	Role() rtwire.Role
	Epoch() uint64
	Now() timeseq.Time
	// Vouched is the sequence heartbeat echoes advertise: the highest one a
	// client may count on surviving this node's death.
	Vouched() uint64
	// AsOf serves one temporal read, stamped with the horizon it saw.
	AsOf(image string, at timeseq.Time) (v rtdb.Value, ok bool, horizon timeseq.Time)
	// Subscribe attaches a standing query (envelope already translated)
	// whose delivery queue wakes the connection's push pump on wake.
	Subscribe(spec sub.Spec, after uint64, depth int, wake chan struct{}) (Sub, error)
	// Counters is the block requests are accounted in; AppendRows adds the
	// node's coordinate rows (wal_seq, epoch, ...) to a metrics reply.
	Counters() *server.Metrics
	AppendRows(dst []rtwire.MetricPair) []rtwire.MetricPair
	// WAL is the log followers replicate from; nil refuses replication.
	WAL() *wal.Log
}

// Session is one connection's request surface (*server.Session on a
// primary).
type Session interface {
	InjectSample(image string, value rtdb.Value) error
	Query(q server.QueryRequest) (server.Response, error)
	Flush() error
}

// Sub is one attached standing query as the connection's push pump sees it
// (*server.ServerSub on a primary): Pop accounts each delivery, Cancel
// detaches and books whatever is still queued as dropped.
type Sub interface {
	Pop() (p sub.Push, droppedCum uint64, ok bool)
	Cancel() (lastCursor uint64, err error)
}

// Refusals a backend may return; the refusal table maps them to wire codes.
var (
	// ErrReadOnly refuses what only a primary may accept: samples and firm
	// deadlines on a standby.
	ErrReadOnly = errors.New("netserve: read-only standby; writes and firm deadlines go to the primary")
	// ErrNoReplication refuses a follower's Subscribe on a node that is no
	// replication source.
	ErrNoReplication = errors.New("netserve: this node serves no replication")
)

// refusals is the one error→wire-code table both roles answer from. A
// listed refusal leaves the connection serving; any other error (the
// backend is closing) is answered CodeClosed.
var refusals = []struct {
	err  error
	code rtwire.ErrCode
}{
	{server.ErrBackpressure, rtwire.CodeBackpressure},
	{ErrReadOnly, rtwire.CodeReadOnly},
	{ErrNoReplication, rtwire.CodeBadRequest},
}

// refusalCode looks err up in the refusal table.
func refusalCode(err error) (rtwire.ErrCode, bool) {
	for _, r := range refusals {
		if errors.Is(err, r.err) {
			return r.code, true
		}
	}
	return rtwire.CodeClosed, false
}

// primary is the Backend of a *server.Server: pool slots are the server's
// sessions, and the durability coordinates are the follower-acked
// watermark this listener tracks.
type primary struct {
	*server.Server
	n *Server
}

func (p *primary) Session(id int) Session { return p.Server.Session(id) }
func (p *primary) Role() rtwire.Role      { return rtwire.RolePrimary }
func (p *primary) Vouched() uint64        { return p.n.ReplDurable() }

func (p *primary) Counters() *server.Metrics { return &p.Metrics }

func (p *primary) AsOf(image string, at timeseq.Time) (rtdb.Value, bool, timeseq.Time) {
	v, ok := p.ValueAsOf(image, at)
	return v, ok, p.HistoryHorizon()
}

func (p *primary) Subscribe(spec sub.Spec, after uint64, depth int, wake chan struct{}) (Sub, error) {
	ss, err := p.Server.Subscribe(spec, after, depth, wake)
	if err != nil {
		return nil, err
	}
	return ss, nil
}

func (p *primary) AppendRows(dst []rtwire.MetricPair) []rtwire.MetricPair {
	// Durability coordinates: failover tooling compares a promoted node's
	// wal_seq against the watermark heard from the old primary.
	if l := p.WAL(); l != nil {
		dst = append(dst,
			rtwire.MetricPair{Name: "wal_seq", Value: l.Seq()},
			// Under group commit wal_durable may trail wal_seq by the open
			// window; they converge at every commit.
			rtwire.MetricPair{Name: "wal_durable", Value: l.DurableSeq()},
		)
	}
	return append(dst,
		rtwire.MetricPair{Name: "epoch", Value: p.Epoch()},
		rtwire.MetricPair{Name: "repl_durable", Value: p.n.ReplDurable()},
	)
}
