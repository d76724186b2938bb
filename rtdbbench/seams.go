package main

import (
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtwire"
)

// This file holds the traced run's seam wrappers: a counting Dialer for
// the client connections, a counting Listener for the server's accepted
// connections and a timing FS under the WAL. Each forwards every call,
// byte and error unchanged and only counts, times and (with a span log)
// records frames as they pass.

// ioStats counts one side's traffic.
type ioStats struct {
	reads, writes         atomic.Uint64
	bytesIn, bytesOut     atomic.Uint64
	writeNs               atomic.Int64
	framesIn, framesOut   atomic.Uint64 // counted by the frame tap
	pushFrames, pushBytes atomic.Uint64
}

// countingConn wraps a net.Conn.
type countingConn struct {
	net.Conn
	st  *ioStats
	tap *frameTap // nil: count only
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(uint64(n))
	if c.tap != nil && n > 0 {
		c.tap.in(p[:n], time.Now())
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.st.writes.Add(1)
	c.st.bytesOut.Add(uint64(n))
	c.st.writeNs.Add(int64(t1.Sub(t0)))
	if c.tap != nil && n > 0 {
		c.tap.out(p[:n], t0, t1)
	}
	return n, err
}

// countingDialer is a faultnet.Dialer that wraps every connection it makes.
type countingDialer struct {
	inner faultnet.Dialer
	st    *ioStats
	tap   func() *frameTap // nil: count only
}

func (d countingDialer) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	c, err := d.inner.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, st: d.st}
	if d.tap != nil {
		cc.tap = d.tap()
	}
	return cc, nil
}

// countingListener wraps every accepted connection. The i-th accepted
// connection gets tap(i), so spans name the client connection they carry.
type countingListener struct {
	net.Listener
	st       *ioStats
	tap      func(i int) *frameTap // nil: count only
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, st: l.st}
	if l.tap != nil {
		cc.tap = l.tap(int(l.accepted.Add(1) - 1))
	}
	return cc, nil
}

// frameTap splits one connection's byte streams into rtwire frames and
// reports each completed frame (kind, request id, size) with its time.
type frameTap struct {
	conn          int
	read, write   uint8 // span names for the two directions
	log           *spanLog
	st            *ioStats
	inBuf, outBuf []byte
	mu            sync.Mutex // Read and Write run on different goroutines
}

// in records frames completed by bytes just read, stamped at the read's
// return.
func (t *frameTap) in(p []byte, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inBuf = splitFrames(append(t.inBuf, p...), func(raw []byte, k rtwire.Kind, id uint64) {
		t.st.framesIn.Add(1)
		t.log.frame(t.read, t.conn, raw, k, id, at, at)
	})
}

// out records frames carried by one write, spanning the write call.
func (t *frameTap) out(p []byte, t0, t1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outBuf = splitFrames(append(t.outBuf, p...), func(raw []byte, k rtwire.Kind, id uint64) {
		t.st.framesOut.Add(1)
		if k == rtwire.KindPush {
			t.st.pushFrames.Add(1)
			t.st.pushBytes.Add(uint64(len(raw)))
		}
		t.log.frame(t.write, t.conn, raw, k, id, t0, t1)
	})
}

// splitFrames calls fn for every complete frame at the front of b and
// returns the incomplete remainder (copied to the front of b's array).
func splitFrames(b []byte, fn func(raw []byte, k rtwire.Kind, id uint64)) []byte {
	off := 0
	for len(b)-off >= rtwire.HeaderSize {
		length := int(uint32(b[off+3]) | uint32(b[off+4])<<8 | uint32(b[off+5])<<16 | uint32(b[off+6])<<24)
		size := rtwire.HeaderSize + length
		if len(b)-off < size {
			break
		}
		k := rtwire.Kind(b[off+2])
		fn(b[off:off+size], k, frameID(k, b[off+rtwire.HeaderSize:off+size]))
		off += size
	}
	return append(b[:0], b[off:]...)
}

// frameID is the request id of frame kinds whose first field carries one
// (0 otherwise): the digits between the record's opening '$' and the
// first '@'.
func frameID(k rtwire.Kind, payload []byte) uint64 {
	switch k {
	case rtwire.KindSample, rtwire.KindQuery, rtwire.KindResult, rtwire.KindAsOf,
		rtwire.KindAsOfResult, rtwire.KindMetricsReq, rtwire.KindMetrics,
		rtwire.KindFlush, rtwire.KindFlushed, rtwire.KindErr,
		rtwire.KindSubOpen, rtwire.KindSubAck, rtwire.KindPush, rtwire.KindSubCancel:
	default:
		return 0
	}
	var id uint64
	for i := 1; i < len(payload); i++ {
		c := payload[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// fsStats is what the timing FS saw under the WAL.
type fsStats struct {
	mu            sync.Mutex
	segWriteBytes uint64
	segWrites     uint64
	snapBytes     []uint64  // per completed snapshot
	snapMs        []float64 // Create of the temp file to its Rename
	fsyncUs       []float64 // segment fsyncs
	fsyncNs       int64
	snapSyncs     uint64
	rotations     uint64
	snapOpen      map[string]time.Time
	snapSize      map[string]uint64
	log           *spanLog
}

func newFSStats(log *spanLog) *fsStats {
	return &fsStats{snapOpen: map[string]time.Time{}, snapSize: map[string]uint64{}, log: log}
}

// reset forgets everything counted so far (the set-up's WAL traffic), so
// the figures cover the measured window only.
func (s *fsStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segWriteBytes, s.segWrites, s.snapSyncs, s.rotations, s.fsyncNs = 0, 0, 0, 0, 0
	s.snapBytes, s.snapMs, s.fsyncUs = nil, nil, nil
}

// timingFS wraps the WAL's filesystem.
type timingFS struct {
	inner faultfs.FS
	st    *fsStats
}

func isSnap(name string) bool { return strings.HasPrefix(filepath.Base(name), "snap-") }
func isSeg(name string) bool  { return strings.HasPrefix(filepath.Base(name), "seg-") }

func (f timingFS) MkdirAll(dir string) error            { return f.inner.MkdirAll(dir) }
func (f timingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f timingFS) Open(name string) (faultfs.File, error) {
	return f.inner.Open(name)
}
func (f timingFS) Remove(name string) error               { return f.inner.Remove(name) }
func (f timingFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

func (f timingFS) OpenWrite(name string) (faultfs.File, error) {
	fl, err := f.inner.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, fl), nil
}

func (f timingFS) Create(name string) (faultfs.File, error) {
	t0 := time.Now()
	fl, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if isSnap(name) {
		f.st.mu.Lock()
		f.st.snapOpen[name] = t0
		f.st.snapSize[name] = 0
		f.st.mu.Unlock()
	}
	return f.wrap(name, fl), nil
}

func (f timingFS) wrap(name string, fl faultfs.File) faultfs.File {
	if isSeg(name) {
		f.st.mu.Lock()
		f.st.rotations++
		f.st.mu.Unlock()
	}
	return &timingFile{File: fl, name: name, st: f.st}
}

// Rename completes a snapshot: the temp file moves over its final name.
func (f timingFS) Rename(oldname, newname string) error {
	err := f.inner.Rename(oldname, newname)
	t1 := time.Now()
	f.st.mu.Lock()
	if t0, ok := f.st.snapOpen[oldname]; ok && err == nil {
		f.st.snapMs = append(f.st.snapMs, float64(t1.Sub(t0))/float64(time.Millisecond))
		f.st.snapBytes = append(f.st.snapBytes, f.st.snapSize[oldname])
		f.st.log.add(spLogSnapshot, -1, 0, t0, t1)
		delete(f.st.snapOpen, oldname)
		delete(f.st.snapSize, oldname)
	}
	f.st.mu.Unlock()
	return err
}

// timingFile counts and times one file's writes and fsyncs.
type timingFile struct {
	faultfs.File
	name string
	st   *fsStats
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	t1 := time.Now()
	f.st.mu.Lock()
	if isSnap(f.name) {
		f.st.snapSize[f.name] += uint64(n)
	} else {
		f.st.segWriteBytes += uint64(n)
		f.st.segWrites++
		f.st.log.add(spLogWrite, -1, 0, t0, t1)
	}
	f.st.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	f.st.mu.Lock()
	if isSnap(f.name) {
		f.st.snapSyncs++
	} else {
		f.st.fsyncUs = append(f.st.fsyncUs, float64(t1.Sub(t0))/float64(time.Microsecond))
		f.st.fsyncNs += int64(t1.Sub(t0))
		f.st.log.add(spLogFsync, -1, 0, t0, t1)
	}
	f.st.mu.Unlock()
	return err
}

// Span names.
const (
	spClientWrite uint8 = iota
	spClientRead
	spServerRead
	spServerWrite
	spLogWrite
	spLogFsync
	spLogSnapshot
	spBenchQuery
	spBenchCommit
	spBenchCommitDue
	spanNames
)

var spanName = [spanNames]string{
	"client.write", "client.read", "server.read", "server.write",
	"log.write", "log.fsync", "log.snapshot",
	"bench.query", "bench.commit", "bench.commit_due",
}

// span is one timed interval at a seam. conn is the client connection
// (−1 for the disk), id the rtwire request id where the frame has one.
type span struct {
	start, end int64 // ns since the log's origin
	id         uint64
	parent     int32 // index of the causing span, −1 for none
	size       int32
	name       uint8
	kind       rtwire.Kind
	conn       int8
}

// spanLog keeps spans in memory, up to max, and a capped sample of the
// raw frames each side wrote; what does not fit is counted.
type spanLog struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	max     int
	dropped int
	frames  [][]byte // captured frames, for codec timing
}

// maxCaptured bounds the frames kept for codec timing.
const maxCaptured = 20000

func newSpanLog(max int) *spanLog { return &spanLog{origin: time.Now(), max: max} }

// add records a span; a nil log records nothing.
func (l *spanLog) add(name uint8, conn int, id uint64, t0, t1 time.Time) {
	if l == nil {
		return
	}
	l.record(span{name: name, conn: int8(conn), id: id, parent: -1,
		start: int64(t0.Sub(l.origin)), end: int64(t1.Sub(l.origin))})
}

// frame records one frame crossing a seam and, for writes, keeps a copy
// of it while the capture has room.
func (l *spanLog) frame(name uint8, conn int, raw []byte, k rtwire.Kind, id uint64, t0, t1 time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if (name == spClientWrite || name == spServerWrite) && len(l.frames) < maxCaptured {
		l.frames = append(l.frames, append([]byte(nil), raw...))
	}
	if !requestReply(k) {
		return // other frames are counted and captured, not spanned
	}
	l.recordLocked(span{name: name, conn: int8(conn), kind: k, id: id, size: int32(len(raw)), parent: -1,
		start: int64(t0.Sub(l.origin)), end: int64(t1.Sub(l.origin))})
}

// requestReply reports the frame kinds of the decomposed calls, queries
// and flushes, and their replies.
func requestReply(k rtwire.Kind) bool {
	switch k {
	case rtwire.KindQuery, rtwire.KindResult, rtwire.KindFlush, rtwire.KindFlushed, rtwire.KindErr:
		return true
	}
	return false
}

func (l *spanLog) record(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recordLocked(s)
}

func (l *spanLog) recordLocked(s span) {
	if len(l.spans) >= l.max {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}
