package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtwire"
)

// stubDialer hands out one end of a pipe, or a fixed error.
type stubDialer struct {
	conn net.Conn
	err  error
}

func (d stubDialer) DialTimeout(string, string, time.Duration) (net.Conn, error) {
	return d.conn, d.err
}

func TestCountingDialerForwardsBytesAndErrors(t *testing.T) {
	want := errors.New("dial refused")
	if _, err := (countingDialer{inner: stubDialer{err: want}, st: &ioStats{}}).DialTimeout("tcp", "x", time.Second); err != want {
		t.Fatalf("dial error %v, want the inner error unchanged", err)
	}

	a, b := net.Pipe()
	st := &ioStats{}
	log := newSpanLog(100)
	c, err := countingDialer{inner: stubDialer{conn: a}, st: st, tap: func() *frameTap {
		return &frameTap{conn: 0, read: spClientRead, write: spClientWrite, log: log, st: st}
	}}.DialTimeout("tcp", "x", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	frame := rtwire.Query{ID: 7, Query: "status_q"}.Encode()
	reply := rtwire.Result{ID: 7, Answers: []string{"ok"}}.Encode()
	go func() {
		got := make([]byte, len(frame))
		if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, frame) {
			t.Errorf("peer read %q, %v", got, err)
		}
		_, _ = b.Write(reply)
	}()
	if n, err := c.Write(frame); err != nil || n != len(frame) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(c, got); err != nil || !bytes.Equal(got, reply) {
		t.Fatalf("read %q, %v", got, err)
	}
	if st.bytesOut.Load() != uint64(len(frame)) || st.bytesIn.Load() != uint64(len(reply)) {
		t.Errorf("counted %d out / %d in, want %d / %d", st.bytesOut.Load(), st.bytesIn.Load(), len(frame), len(reply))
	}
	if st.framesOut.Load() != 1 || st.framesIn.Load() != 1 {
		t.Errorf("frames %d out / %d in, want 1 / 1", st.framesOut.Load(), st.framesIn.Load())
	}
	if len(log.spans) != 2 || log.spans[0].id != 7 || log.spans[1].id != 7 {
		t.Errorf("spans %+v, want a write and a read of request 7", log.spans)
	}

	// After the peer closes, the wrapped conn returns exactly the errors
	// the raw conn does.
	b.Close()
	_, rawErr := a.Read(make([]byte, 1))
	if _, err := c.Read(make([]byte, 1)); err != rawErr {
		t.Errorf("read error %v, want %v", err, rawErr)
	}
	_, rawErr = a.Write([]byte{1})
	if _, err := c.Write([]byte{1}); err != rawErr {
		t.Errorf("write error %v, want %v", err, rawErr)
	}
}

// stubListener accepts one conn, then fails with a fixed error.
type stubListener struct {
	net.Listener
	conns chan net.Conn
	err   error
}

func (l *stubListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	default:
		return nil, l.err
	}
}

func TestCountingListenerForwardsConnsAndErrors(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	want := errors.New("listener closed")
	inner := &stubListener{conns: make(chan net.Conn, 1), err: want}
	inner.conns <- a
	st := &ioStats{}
	var taps []int
	ln := &countingListener{Listener: inner, st: st, tap: func(i int) *frameTap {
		taps = append(taps, i)
		return &frameTap{conn: i, read: spServerRead, write: spServerWrite, st: st}
	}}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = b.Write([]byte("abc")) }()
	got := make([]byte, 3)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "abc" {
		t.Fatalf("read %q, %v", got, err)
	}
	if _, err := ln.Accept(); err != want {
		t.Errorf("accept error %v, want the inner error unchanged", err)
	}
	if len(taps) != 1 || taps[0] != 0 {
		t.Errorf("taps %v, want one for connection 0", taps)
	}
	if st.bytesIn.Load() != 3 || st.reads.Load() == 0 {
		t.Errorf("counted %d bytes in %d reads", st.bytesIn.Load(), st.reads.Load())
	}
}

func TestTimingFSForwardsBytesAndErrors(t *testing.T) {
	mem := faultfs.NewMem(1)
	fs := timingFS{inner: mem, st: newFSStats(nil)}
	dir := "/wal"
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00000001.wal")
	f, err := fs.Create(seg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.DumpFile(seg); string(got) != "hello" {
		t.Errorf("file holds %q, want hello", got)
	}

	// Injected faults come back through the wrapper unchanged.
	mem.FailWrite(mem.Writes() + 1)
	if _, err := f.Write([]byte("x")); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("write error %v, want ErrInjected", err)
	}
	mem.FailSync(mem.Syncs() + 1)
	if err := f.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("sync error %v, want ErrInjected", err)
	}
	snapTmp := filepath.Join(dir, "snap-00000001.snap.tmp")
	sf, err := fs.Create(snapTmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Write([]byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	mem.FailRename(mem.Renames() + 1)
	if err := fs.Rename(snapTmp, filepath.Join(dir, "snap-00000001.snap")); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("rename error %v, want ErrInjected", err)
	}
	if err := fs.Rename(snapTmp, filepath.Join(dir, "snap-00000001.snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(filepath.Join(dir, "missing")); err == nil {
		t.Errorf("opening a missing file succeeded")
	}
	names, err := fs.ReadDir(dir)
	if err != nil || len(names) != 2 {
		t.Errorf("ReadDir = %v, %v", names, err)
	}

	st := fs.st
	if st.segWriteBytes != 5 || len(st.fsyncUs) != 2 || st.rotations != 1 {
		t.Errorf("segment bytes %d, fsyncs %d, rotations %d; want 5, 2, 1", st.segWriteBytes, len(st.fsyncUs), st.rotations)
	}
	if len(st.snapBytes) != 1 || st.snapBytes[0] != 8 {
		t.Errorf("snapshots %v, want one of 8 bytes (the failed rename is not one)", st.snapBytes)
	}
}

func TestSplitFramesAcrossChunks(t *testing.T) {
	var stream []byte
	stream = append(stream, rtwire.Sample{ID: 1, Image: "temp", Value: "1001"}.Encode()...)
	stream = append(stream, rtwire.Query{ID: 22, Query: "status_q"}.Encode()...)
	stream = append(stream, rtwire.Push{ID: 333, Cursor: 4, Answers: []string{"ok"}}.Encode()...)
	stream = append(stream, rtwire.Bye{Reason: "done"}.Encode()...)
	for chunk := 1; chunk <= len(stream); chunk += 7 {
		var buf []byte
		var ids []uint64
		var kinds []rtwire.Kind
		for off := 0; off < len(stream); off += chunk {
			end := min(off+chunk, len(stream))
			buf = splitFrames(append(buf, stream[off:end]...), func(raw []byte, k rtwire.Kind, id uint64) {
				if _, _, err := rtwire.DecodeFrame(raw); err != nil {
					t.Errorf("chunk %d: split a frame that does not decode: %v", chunk, err)
				}
				ids = append(ids, id)
				kinds = append(kinds, k)
			})
		}
		if len(buf) != 0 || len(ids) != 4 || ids[0] != 1 || ids[1] != 22 || ids[2] != 333 || ids[3] != 0 ||
			kinds[3] != rtwire.KindBye {
			t.Errorf("chunk %d: ids %v kinds %v, %d bytes left", chunk, ids, kinds, len(buf))
		}
	}
}
