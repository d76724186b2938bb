package replica

import (
	"bufio"
	"net"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// These tests pin the standby to the wire discipline the primary's listener
// already keeps: corrupt frames are counted and reset, a one-way partition
// is cut by the inbound-silence bound, and a stalled subscriber never holds
// back replication.

// fabricStandby starts a replica following addr (over loopback TCP) and
// serves its standby surface on a faultnet listener, so the test can damage
// the client↔standby link. hbTimeout is the replica's HeartbeatTimeout.
func fabricStandby(t *testing.T, fab *faultnet.Fabric, addr, standby string, hbTimeout time.Duration) *Replica {
	t.Helper()
	r, err := Open(Config{
		Primary: addr,
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(2), SegmentSize: 2048, SnapshotEvery: 32},
		Name:    "t-follower",
		Catalog: testCatalog(), Registry: rtdb.DeriveRegistry{"status": testDerive},
		RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
		Seed: 7, HeartbeatTimeout: hbTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	r.Start()
	ln, err := fab.Listen(standby)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ServeOn(ln); err != nil {
		t.Fatal(err)
	}
	return r
}

// fabricConn dials the standby through the fabric and completes the
// handshake.
func fabricConn(t *testing.T, fab *faultnet.Fabric, label, standby string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := fab.Dialer(label).DialTimeout("tcp", standby, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(rtwire.Hello{Client: label}.Encode()); err != nil {
		t.Fatal(err)
	}
	br := newFrameReader(nc)
	if msg, err := readMsg(br); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(rtwire.Welcome); !ok {
		t.Fatalf("handshake reply: %T %+v", msg, msg)
	}
	return nc, br
}

// replicate appends the catalog prologue plus n samples on the primary and
// waits for the replica to apply them; it returns the sequence reached.
func replicate(t *testing.T, lp *wal.Log, r *Replica, n int) uint64 {
	t.Helper()
	events := testEvents(0)
	for i := 1; i <= n; i++ {
		events = append(events, wal.Sample(timeseq.Time(i), "temp", "30"))
	}
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("replica stuck at %d, want %d", r.Seq(), len(events))
	}
	return uint64(len(events))
}

// TestStandbyCorruptFrameCountedAndReset: a standby client frame damaged on
// the wire is never decoded; the standby counts it in its net_corrupt_frames
// row and resets the connection instead of reading on from a desynced
// stream.
func TestStandbyCorruptFrameCountedAndReset(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	fab := faultnet.NewFabric(21)
	defer fab.Close()
	r := fabricStandby(t, fab, addr, "standby:1", 5*time.Second)
	replicate(t, lp, r, 2)

	nc, br := fabricConn(t, fab, "corrupter", "standby:1")
	fab.ArmAt(fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultCorrupt})
	if _, err := nc.Write(rtwire.Flush{ID: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	// Follow-up frames push the damage through even when the flip landed in
	// a length field; the standby must never answer them on this stream.
	for i := 0; i < 4; i++ {
		if _, err := nc.Write(rtwire.Flush{ID: uint64(2 + i)}.Encode()); err != nil {
			break
		}
	}
	if fired, _ := fab.Fired(); !fired {
		t.Fatal("armed corruption never fired")
	}
	for {
		msg, err := readMsg(br)
		if err != nil {
			break // the reset
		}
		if _, ok := msg.(rtwire.Bye); !ok {
			t.Fatalf("standby answered on a damaged stream: %T %+v", msg, msg)
		}
	}

	nc2, br2 := fabricConn(t, fab, "probe", "standby:1")
	if _, err := nc2.Write(rtwire.MetricsReq{ID: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(br2)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := msg.(rtwire.Metrics)
	if !ok {
		t.Fatalf("metrics reply: %T %+v", msg, msg)
	}
	mm := m.Map()
	if got, ok := mm["net_corrupt_frames"]; !ok || got != 1 {
		t.Fatalf("standby net_corrupt_frames = %d (present %v), want 1", got, ok)
	}
	if mm["net_decode_errors"] == 0 {
		t.Error("corrupt frame not folded into net_decode_errors")
	}
}

// TestStandbyOneWayPartitionCut: a standby client beaconing every interval
// goes silent behind a client→standby blackhole. The standby's
// inbound-silence bound is three heartbeat intervals (its HeartbeatTimeout),
// so it must cut the half-open connection in about that long — not after
// minutes.
func TestStandbyOneWayPartitionCut(t *testing.T) {
	const iv = 60 * time.Millisecond
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	fab := faultnet.NewFabric(8)
	defer fab.Close()
	r := fabricStandby(t, fab, addr, "standby:1", 3*iv)
	replicate(t, lp, r, 2)

	nc, br := fabricConn(t, fab, "hb", "standby:1")
	// Beacon every interval for longer than the silence bound: a client
	// that keeps talking is never cut. The last beacon's echo marks the
	// start of the silence.
	for i := 0; i < 6; i++ {
		if i > 0 {
			time.Sleep(iv)
		}
		if _, err := nc.Write(rtwire.Heartbeat{}.Encode()); err != nil {
			t.Fatal(err)
		}
		if msg, err := readMsg(br); err != nil {
			t.Fatalf("standby cut a beaconing client: %v", err)
		} else if _, ok := msg.(rtwire.Heartbeat); !ok {
			t.Fatalf("heartbeat echo: %T %+v", msg, msg)
		}
	}

	start := time.Now()
	fab.PartitionNow(faultnet.Direction{From: "hb", To: "standby:1"})
	_ = nc.SetReadDeadline(start.Add(3*iv + 2*time.Second))
	var err error
	for err == nil {
		_, err = readMsg(br)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("standby never cut the half-open connection (waited %v)", time.Since(start))
	}
	elapsed := time.Since(start)
	if elapsed < 2*iv {
		t.Fatalf("standby cut after %v — before the silence bound", elapsed)
	}
	if elapsed > 3*iv+time.Second {
		t.Errorf("standby took %v to cut, want ≈3 intervals (%v)", elapsed, 3*iv)
	}
}

// TestStandbyStalledSubscriberDoesNotStallReplication: a standby subscriber
// whose socket stops draining must cost its own pushes, never the
// replication stream. Ticks are scheduled and accounted before the WalAck
// but parked in the subscription's bounded queue, so the tailer keeps
// applying and acking while the subscriber is stalled, and the push books
// still balance once everything drains.
func TestStandbyStalledSubscriberDoesNotStallReplication(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	fab := faultnet.NewFabric(9)
	defer fab.Close()
	r := fabricStandby(t, fab, addr, "standby:1", 5*time.Second)
	seq := replicate(t, lp, r, 2)

	nc, br := fabricConn(t, fab, "slow", "standby:1")
	if _, err := nc.Write(rtwire.SubOpen{
		ID: 1, Query: "status_q", Period: 1, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
	}.Encode()); err != nil {
		t.Fatal(err)
	}
	if msg, err := readMsg(br); err != nil {
		t.Fatal(err)
	} else if a, ok := msg.(rtwire.SubAck); !ok || a.State != rtwire.SubAdmitted {
		t.Fatalf("SubOpen ack: %T %+v", msg, msg)
	}

	fab.StallAll("slow", "standby:1")
	defer fab.Heal() // runs before the cleanups close the replica
	const n = 40
	for i := 0; i < n; i++ {
		if err := lp.Append(wal.Sample(timeseq.Time(3+i), "temp", "30")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if !r.WaitSeq(seq+n, 2*time.Second) {
		t.Fatalf("replication stalled behind a stalled standby subscriber: seq %d, want %d after %v",
			r.Seq(), seq+n, time.Since(start))
	}
	// The last batch's ticks are scheduled just after it applies.
	for end := time.Now().Add(2 * time.Second); r.Metrics.PushScheduled.Load() < n; {
		if time.Now().After(end) {
			t.Fatalf("tailer scheduled %d ticks behind a stalled subscriber, want %d", r.Metrics.PushScheduled.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}

	fab.Heal()
	nc.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics.Snapshot()
	if m.PushScheduled < n || m.PushScheduled != m.PushAccounted() {
		t.Errorf("push books: scheduled %d (want ≥ %d), pushed %d dropped %d expired %d",
			m.PushScheduled, n, m.Pushed, m.PushDropped, m.PushExpired)
	}
}
