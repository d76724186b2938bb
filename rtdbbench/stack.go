package main

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/timeseq"
)

// rtdbd's defaults, restated: the demo deployment's evaluation cost, the
// durable WAL settings (-fsync, -fsync-window 200µs, -snapshot-every 2000,
// 1 MiB segments) and the per-session queue depth.
const (
	evalCost      = 2
	queueDepth    = 64
	segmentSize   = 1 << 20
	snapshotEvery = 2000
	fsyncWindow   = 200 * time.Microsecond
)

// Sessions: connection 0 (writer), connection 1 (reader/subscriber), one
// in-process session for pre-aging and the server-layer probe, and one
// spare so a probe never waits for a pool slot.
const (
	sessions      = 4
	inprocSession = 2
)

// serverConfig restates rtdbd's demo catalog: images temp/pressure, the
// derived status, the status_q/temp_q queries and the overheat rule.
func serverConfig() server.Config {
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "25"},
			Images: []*rtdb.ImageObject{
				{Name: "temp", Period: 5},
				{Name: "pressure", Period: 7},
			},
			Derived: []*rtdb.DerivedObject{
				{Name: "status", Sources: []string{"temp", "limit"}, Derive: statusOf},
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusOf},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
			"temp_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest("temp"); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			},
		},
		Rules: []rtdb.Rule{
			{
				Name: "overheat", On: "sample:temp", Mode: rtdb.Immediate,
				If: func(db *rtdb.DB, e rtdb.Event) bool {
					t, _ := strconv.Atoi(e.Attr["value"])
					return t > 25
				},
				Then: func(db *rtdb.DB, e rtdb.Event) {
					db.Raise(rtdb.Event{Kind: "alarm", At: e.At, Attr: e.Attr})
				},
			},
			{
				Name: "log-alarm", On: "alarm", Mode: rtdb.Immediate,
				Then: func(db *rtdb.DB, e rtdb.Event) {},
			},
		},
		Sessions:   sessions,
		QueueDepth: queueDepth,
		EvalCost:   evalCost,
	}
}

func statusOf(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

// seams are the optional wrappers the traced run threads through the
// stack's three existing seams. The zero value is rtdbd's own wiring.
type seams struct {
	fs       faultfs.FS                      // wal.Options.FS
	listener func(net.Listener) net.Listener // around netserve.Server.Serve
	dialer   func(conn int) faultnet.Dialer  // client.Options.Dialer
}

// stack is one in-process rtdbd: WAL (optional), server, TCP listener and
// the benchmark's two client connections.
type stack struct {
	log    *wal.Log
	srv    *server.Server
	ns     *netserve.Server
	ln     net.Listener
	serveC chan error
	conns  [2]*client.Client
}

// buildStack stands up the stack through the public constructors rtdbd
// uses: wal.Open, server.New (with rtdbd's two periodic queries),
// netserve.New/Serve and client.Dial. walDir == "" runs without a WAL, as
// rtdbd does without -dir. It is the only place the stack is assembled.
func buildStack(walDir string, sm seams) (*stack, error) {
	st := &stack{serveC: make(chan error, 1)}
	cfg := serverConfig()
	if walDir != "" {
		l, err := wal.Open(wal.Options{
			Dir: walDir, SegmentSize: segmentSize, SnapshotEvery: snapshotEvery,
			Sync: true, GroupWindow: fsyncWindow, FS: sm.fs,
		})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		st.log = l
		cfg.Log = l
	}
	s, err := server.New(cfg)
	if err != nil {
		st.closeLog()
		return nil, fmt.Errorf("new server: %w", err)
	}
	st.srv = s
	if err := s.RegisterPeriodic(server.PeriodicQuery{
		Name: "status-watch", Query: "status_q",
		Issue: s.Now(), Period: 11,
		Kind: deadline.Firm, Deadline: timeseq.Time(evalCost) + 3, MinUseful: 1,
	}); err != nil {
		st.closeLog()
		return nil, err
	}
	if err := s.RegisterPeriodic(server.PeriodicQuery{
		Name: "temp-trend", Query: "temp_q",
		Issue: s.Now(), Period: 23,
		Kind: deadline.Soft, Deadline: 5, MinUseful: 2,
		U: deadline.Hyperbolic(10, 5),
	}); err != nil {
		st.closeLog()
		return nil, err
	}
	s.Start()

	st.ns = netserve.New(s, netserve.Options{HeartbeatInterval: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	addr := ln.Addr().String()
	if sm.listener != nil {
		ln = sm.listener(ln)
	}
	st.ln = ln
	go func() { st.serveC <- st.ns.Serve(ln) }()

	for i := range st.conns {
		opt := client.Options{Name: fmt.Sprintf("bench-%d", i), Seed: uint64(i + 1)}
		if sm.dialer != nil {
			opt.Dialer = sm.dialer(i)
		}
		c, err := client.Dial(addr, opt)
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("dial conn %d: %w", i, err)
		}
		st.conns[i] = c
	}
	return st, nil
}

// stop tears the stack down in rtdbd's order: clients, listener drain,
// server, log. It waits for the Serve goroutine to return.
func (st *stack) stop() {
	for _, c := range st.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	if st.ns != nil {
		_ = st.ns.Close()
	}
	if st.ln != nil {
		// Closing the listener again ends a Serve that had not yet
		// registered it when Close ran.
		_ = st.ln.Close()
		<-st.serveC
	}
	if st.srv != nil {
		st.srv.Stop()
	}
	st.closeLog()
}

func (st *stack) closeLog() {
	if st.log != nil {
		_ = st.log.Close()
		st.log = nil
	}
}
