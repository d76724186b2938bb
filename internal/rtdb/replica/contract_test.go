package replica

import (
	"testing"
	"time"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// TestStandbyServingContract is the hot standby's serving contract as a
// table: one row per frame kind a client may send, each pinning the reply
// kind (and refusal code) and the accounting the standby books for it.
// Rows run in order on one connection, so the subscription rows build on
// each other (open, resume, cancel) and Bye ends the connection last.
func TestStandbyServingContract(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()
	events := testEvents(0)
	for i := 1; i <= 4; i++ {
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
	la, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc, br := standbyConn(t, la.String())

	type delta struct{ samplesIn, samplesRejected, degraded, subsOpened, subsClosed uint64 }
	rows := []struct {
		name  string
		frame []byte
		kind  rtwire.Kind    // reply kind; KindBye means "the connection ends"
		code  rtwire.ErrCode // for KindErr replies
		d     delta
	}{
		{"sample", rtwire.Sample{ID: 1, Image: "temp", Value: "40"}.Encode(),
			rtwire.KindErr, rtwire.CodeReadOnly, delta{samplesIn: 1, samplesRejected: 1}},
		{"query-firm", rtwire.Query{ID: 2, Query: "status_q", Kind: deadline.Firm, Deadline: 50, MinUseful: 1}.Encode(),
			rtwire.KindErr, rtwire.CodeReadOnly, delta{}},
		{"query-soft", rtwire.Query{ID: 3, Query: "status_q", Kind: deadline.Soft, Deadline: 50, MinUseful: 1}.Encode(),
			rtwire.KindResult, 0, delta{degraded: 1}},
		{"query-none", rtwire.Query{ID: 4, Query: "status_q", Kind: deadline.None}.Encode(),
			rtwire.KindResult, 0, delta{degraded: 1}},
		{"asof", rtwire.AsOf{ID: 5, Image: "temp", At: 3}.Encode(),
			rtwire.KindAsOfResult, 0, delta{}},
		{"metrics", rtwire.MetricsReq{ID: 6}.Encode(),
			rtwire.KindMetrics, 0, delta{}},
		{"flush", rtwire.Flush{ID: 7}.Encode(),
			rtwire.KindFlushed, 0, delta{}},
		{"heartbeat", rtwire.Heartbeat{}.Encode(),
			rtwire.KindHeartbeat, 0, delta{}},
		{"replication-subscribe", rtwire.Subscribe{AfterSeq: 0, Follower: "chain"}.Encode(),
			rtwire.KindErr, rtwire.CodeBadRequest, delta{}},
		{"subopen-firm", rtwire.SubOpen{ID: 10, Query: "status_q", Period: 2, Kind: deadline.Firm, Deadline: 4, MinUseful: 1}.Encode(),
			rtwire.KindErr, rtwire.CodeReadOnly, delta{}},
		{"subopen-soft", rtwire.SubOpen{ID: 11, Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 50, MinUseful: 1}.Encode(),
			rtwire.KindSubAck, 0, delta{subsOpened: 1}},
		{"subresume", rtwire.SubResume{ID: 12, Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 50, MinUseful: 1, AfterCursor: 7}.Encode(),
			rtwire.KindSubAck, 0, delta{subsOpened: 1}},
		{"subcancel", rtwire.SubCancel{ID: 11}.Encode(),
			rtwire.KindSubAck, 0, delta{subsClosed: 1}},
		{"bye", rtwire.Bye{Reason: "done"}.Encode(),
			rtwire.KindBye, 0, delta{subsClosed: 1}},
	}
	for _, row := range rows {
		before := r.Metrics.Snapshot()
		if _, err := nc.Write(row.frame); err != nil {
			t.Fatalf("%s: write: %v", row.name, err)
		}
		if row.kind == rtwire.KindBye {
			// The standby may say Bye on its way out; then the socket closes.
			for {
				f, err := rtwire.ReadFrame(br)
				if err != nil {
					break
				}
				if f.Kind != rtwire.KindBye {
					t.Fatalf("%s: got %v before the connection ended", row.name, f.Kind)
				}
			}
		} else {
			f, err := rtwire.ReadFrame(br)
			if err != nil {
				t.Fatalf("%s: read: %v", row.name, err)
			}
			if f.Kind != row.kind {
				t.Fatalf("%s: reply kind %v, want %v", row.name, f.Kind, row.kind)
			}
			msg, err := rtwire.Decode(f)
			if err != nil {
				t.Fatalf("%s: decode: %v", row.name, err)
			}
			switch m := msg.(type) {
			case rtwire.Err:
				if m.Code != row.code {
					t.Fatalf("%s: refusal code %v, want %v", row.name, m.Code, row.code)
				}
			case rtwire.Result:
				if !m.Evaluated || m.Missed || len(m.Answers) != 1 || m.Answers[0] != "high" {
					t.Fatalf("%s: degraded result %+v", row.name, m)
				}
			case rtwire.SubAck:
				want := rtwire.SubAdmitted
				if row.d.subsClosed > 0 {
					want = rtwire.SubClosed
				}
				if m.State != want {
					t.Fatalf("%s: sub ack state %v, want %v", row.name, m.State, want)
				}
			case rtwire.Heartbeat:
				if m.Epoch != r.Epoch() || m.Seq != r.Seq() {
					t.Fatalf("%s: heartbeat %+v, want epoch %d seq %d", row.name, m, r.Epoch(), r.Seq())
				}
			}
		}
		// Accounting settles with the reply, except on Bye, where the
		// connection's teardown books the closes asynchronously.
		var after = r.Metrics.Snapshot()
		for end := time.Now().Add(5 * time.Second); row.kind == rtwire.KindBye &&
			after.SubsClosed-before.SubsClosed < row.d.subsClosed && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
			after = r.Metrics.Snapshot()
		}
		got := delta{
			samplesIn:       after.SamplesIn - before.SamplesIn,
			samplesRejected: after.SamplesRejected - before.SamplesRejected,
			degraded:        after.Degraded - before.Degraded,
			subsOpened:      after.SubsOpened - before.SubsOpened,
			subsClosed:      after.SubsClosed - before.SubsClosed,
		}
		if got != row.d {
			t.Errorf("%s: accounting delta %+v, want %+v", row.name, got, row.d)
		}
		if after.QueriesIn != after.QueriesAccounted() {
			t.Errorf("%s: conservation: queries in %d, accounted %d", row.name, after.QueriesIn, after.QueriesAccounted())
		}
	}
	nc.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics.Snapshot()
	if m.QueriesIn != 3 || m.SubsOpened != m.SubsClosed || m.PushScheduled != m.PushAccounted() {
		t.Errorf("final books: queries in %d (want 3), subs %d/%d, push scheduled %d accounted %d",
			m.QueriesIn, m.SubsOpened, m.SubsClosed, m.PushScheduled, m.PushAccounted())
	}
}
