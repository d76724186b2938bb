package netserve

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// lateListener hands Serve its one connection only when the test releases
// it; Close does not end that pending Accept. It stages the interleaving
// where Accept returns a socket after Server.Close has already begun.
type lateListener struct {
	conn    net.Conn
	release chan struct{}
	closed  chan struct{}
	once    sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		<-l.release
		l.conn = nil
		return c, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestServeAcceptAfterClose: a connection Accept returns once Close has
// begun is closed unserved — no handler registers with the WaitGroup Close
// is draining, and none runs after Close returned. The listener releases
// the socket only after Close returns, so a server that registers the
// handler unconditionally answers the Hello below with a Welcome.
func TestServeAcceptAfterClose(t *testing.T) {
	s, err := server.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	ns := New(s, Options{})
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	ln := &lateListener{conn: srvEnd, release: make(chan struct{}), closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- ns.Serve(ln) }()
	for ns.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	close(ln.release)

	_ = cliEnd.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := cliEnd.Write(rtwire.Hello{Client: "late"}.Encode()); err == nil {
		if f, err := rtwire.ReadFrame(cliEnd); err == nil {
			t.Fatalf("a connection accepted after Close was served (kind %v frame)", f.Kind)
		}
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if w := ns.Wire.Snapshot(); w.ConnsAccepted != 0 {
		t.Fatalf("ConnsAccepted = %d for a connection refused at shutdown, want 0", w.ConnsAccepted)
	}
}
