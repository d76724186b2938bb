package netserve

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// countingListener wraps every accepted socket so the suite can count the
// server's write(2)-level calls: each Write on the wrapped conn is one call
// into the socket.
type countingListener struct {
	net.Listener
	writes atomic.Uint64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Uint64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// startCountingNet serves a started test server through a countingListener
// on loopback.
func startCountingNet(t testing.TB, opt Options) (*server.Server, *countingListener, string) {
	t.Helper()
	s, err := server.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	ns := New(s, opt)
	go func() { _ = ns.Serve(cl) }()
	t.Cleanup(func() {
		_ = ns.Close()
		s.Stop()
	})
	return s, cl, ln.Addr().String()
}

// fanoutPeriod is the group period the fan-out tests and benchmark tick
// at: above EvalCost, so one Server.Tick(fanoutPeriod) serves exactly one
// group tick.
const fanoutPeriod = 4

// openGroup attaches n subscriptions (ids 1..n) to one evaluation group
// and reads their admitting acks.
func openGroup(t *testing.T, rc *rawConn, n int, depth uint64) {
	t.Helper()
	for id := 1; id <= n; id++ {
		rc.write(rtwire.SubOpen{
			ID: uint64(id), Query: "status_q", Period: fanoutPeriod,
			Kind: deadline.Soft, Deadline: 1 << 20, Depth: depth,
		}.Encode())
	}
	for i := 0; i < n; i++ {
		if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
			t.Fatalf("open ack: %+v", a)
		}
	}
}

// readTick reads one group tick's fan-out to subscriptions 1..n, each push
// carrying cursor; ordered also requires attach order.
func readTick(t *testing.T, rc *rawConn, n int, cursor uint64, ordered bool) {
	t.Helper()
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		p, ok := rc.read().(rtwire.Push)
		if !ok {
			t.Fatalf("cursor %d: want a push, got %T", cursor, p)
		}
		if p.Cursor != cursor || p.ID < 1 || p.ID > uint64(n) || seen[p.ID] ||
			(ordered && p.ID != uint64(i+1)) {
			t.Fatalf("cursor %d push %d: id %d cursor %d", cursor, i, p.ID, p.Cursor)
		}
		seen[p.ID] = true
	}
}

// settle runs one group tick and reads its fan-out, so the wake token each
// attach posted is spent before the measured ticks. (A pump draining on
// such a token while the tick's puts are under way can split that one
// tick's fan-out across two batches.)
func settle(t *testing.T, s *server.Server, rc *rawConn, n int) {
	t.Helper()
	if err := s.Tick(fanoutPeriod); err != nil {
		t.Fatal(err)
	}
	readTick(t, rc, n, 1, false)
}

// TestPushFanoutCoalesced: one group tick fanned out to 16 subscriptions of
// one connection leaves the server as one socket write — the members share
// the connection's push pump, which is woken once per tick and hands the
// writer the whole batch.
func TestPushFanoutCoalesced(t *testing.T) {
	const subs, ticks = 16, 20
	s, cl, addr := startCountingNet(t, Options{})
	rc := dialRaw(t, addr)
	rc.handshake()
	openGroup(t, rc, subs, 16)
	settle(t, s, rc, subs)

	w0 := cl.writes.Load()
	for k := 1; k <= ticks; k++ {
		if err := s.Tick(fanoutPeriod); err != nil {
			t.Fatal(err)
		}
		// Attach order is drain order; readTick fails on any push missing.
		readTick(t, rc, subs, uint64(k+1), true)
	}
	if w := cl.writes.Load() - w0; w > ticks {
		t.Fatalf("%d server writes for %d group ticks of %d members, want ≤ %d", w, ticks, subs, ticks)
	}
}

// TestPushPumpOneGoroutine: however many subscriptions a connection holds,
// it runs one push goroutine.
func TestPushPumpOneGoroutine(t *testing.T) {
	_, _, addr := startCountingNet(t, Options{})
	rc := dialRaw(t, addr)
	rc.handshake()
	before := runtime.NumGoroutine()
	openGroup(t, rc, 64, 4)
	if added := runtime.NumGoroutine() - before; added > 1 {
		t.Fatalf("attaching 64 subscriptions added %d goroutines, want ≤ 1", added)
	}
}

// TestPushPumpTeardownConservation: 64 subscriptions on one connection, a
// SubCancel while the cancelled subscription's pushes sit in encoded but
// unwritten batches, then a connection cut mid-fan-out. The server's push
// books balance, every push the client did receive passes the cursor
// audit, pushes trailing the closing ack carry cursors at or below it, and
// the connection's goroutines all exit.
func TestPushPumpTeardownConservation(t *testing.T) {
	const subs, victim = 64, 7
	fab := faultnet.NewFabric(13)
	defer fab.Close()
	s, ns := startFabricNet(t, fab, "srv:1", Options{})
	base := runtime.NumGoroutine()

	nc, err := fab.Dialer("cli").DialTimeout("tcp", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := &rawConn{t: t, nc: nc}
	rc.handshake()
	openGroup(t, rc, subs, 4)
	settle(t, s, rc, subs)

	// The wire is quiet: the next write is the server's first batch, and
	// it stalls — every later batch is encoded and queued, never written.
	fab.ArmAt(fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultStall})
	tick := func() {
		t.Helper()
		if err := s.Tick(fanoutPeriod); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		dl := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(dl) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The first tick's batch sits in the stalled write, the second's in
	// the write queue; the pump has popped both (delivery is accounted at
	// pop time).
	for k := 2; k <= 3; k++ {
		tick()
		waitFor("the pump to pop the tick", func() bool { return s.Metrics.Pushed.Load() == uint64(k*subs) })
	}
	rc.write(rtwire.SubCancel{ID: victim}.Encode())
	waitFor("the cancel", func() bool { return s.Metrics.SubsClosed.Load() == 1 })

	// Heal and read everything back; once the closing ack is in, keep
	// fanning out and cut the connection inside the next batch's write.
	var frames []any
	ackSeen := make(chan struct{})
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			f, err := rtwire.ReadFrame(nc)
			if err != nil {
				return
			}
			m, err := rtwire.Decode(f)
			if err != nil {
				return
			}
			frames = append(frames, m)
			if _, ok := m.(rtwire.SubAck); ok {
				close(ackSeen)
			}
		}
	}()
	fab.Heal()
	select {
	case <-ackSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("closing ack never arrived")
	}
	fab.ArmAt(fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultCut})
	for k := 0; k < 8 && ns.Wire.ConnsClosed.Load() == 0; k++ {
		if err := s.Tick(fanoutPeriod); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("the connection teardown", func() bool { return ns.Wire.ConnsClosed.Load() == 1 })
	<-readDone
	if fired, _ := fab.Fired(); !fired {
		t.Fatal("armed cut never fired")
	}

	m := s.Metrics.Snapshot()
	if m.SubsOpened != subs || m.SubsClosed != subs {
		t.Errorf("subs opened/closed = %d/%d, want %d/%d", m.SubsOpened, m.SubsClosed, subs, subs)
	}
	if m.PushScheduled == 0 || m.PushAccounted() != m.PushScheduled {
		t.Errorf("push conservation: scheduled %d != pushed %d + dropped %d + expired %d",
			m.PushScheduled, m.Pushed, m.PushDropped, m.PushExpired)
	}

	// Client audit over everything that arrived. Every push of the
	// cancelled subscription — before or trailing its closing ack — was
	// popped before the cancel, so its cursor is at most the ack's.
	received := make(map[uint64]uint64)
	for id := uint64(1); id <= subs; id++ {
		received[id] = 1 // the settling tick
	}
	var closing rtwire.SubAck
	var victimCursors []uint64
	for _, f := range frames {
		switch x := f.(type) {
		case rtwire.Push:
			received[x.ID]++
			if got := received[x.ID] + x.Dropped + x.Expired; got != x.Cursor {
				t.Errorf("sub %d audit: received %d + dropped %d + expired %d != cursor %d",
					x.ID, received[x.ID], x.Dropped, x.Expired, x.Cursor)
			}
			if x.ID == victim {
				victimCursors = append(victimCursors, x.Cursor)
			}
		case rtwire.SubAck:
			if x.ID != victim || x.State != rtwire.SubClosed {
				t.Errorf("unexpected ack %+v", x)
			}
			closing = x
		default:
			t.Errorf("unexpected frame %T", f)
		}
	}
	if len(victimCursors) == 0 {
		t.Error("no push of the cancelled subscription was delivered")
	}
	for _, c := range victimCursors {
		if c > closing.Cursor {
			t.Errorf("cancelled subscription's push cursor %d above its closing ack's %d", c, closing.Cursor)
		}
	}
	// The stalled ticks' batches were queued ahead of the closing ack, so
	// every subscription holds the settling tick and both stalled ones.
	for id := uint64(1); id <= subs; id++ {
		if received[id] < 3 {
			t.Errorf("sub %d received %d pushes, want ≥ 3", id, received[id])
		}
	}

	dl := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(dl) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak: %d running, %d before the connection", n, base)
	}
}
