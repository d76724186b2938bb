package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 1 << 20

// probeEvery paces the traced run's in-process server probe.
const probeEvery = 2 * time.Millisecond

// layerProbe measures the server layer from inside the process, with no
// wire: server.Session.Query and Flush on the spare in-process session and
// Server.ValueAsOf, at idle before the run and under the run's load.
type layerProbe struct {
	idleQuery, idleFlush   []float64 // µs
	query, flush           []float64 // µs, under load
	asofNs                 []float64 // ns per ValueAsOf, under load
	m0, m1                 server.MetricsSnapshot
	wal0, wal1             wal.Stats
	cli0, cli1, srv0, srv1 ioCounts
	wal                    bool // the stack runs on a WAL
	stop                   chan struct{}
	done                   sync.WaitGroup
}

// ioCounts is a plain copy of an ioStats.
type ioCounts struct {
	reads, writes, bytesIn, bytesOut, framesIn, framesOut, pushFrames, pushBytes uint64
	writeNs                                                                      int64
}

func (s *ioStats) snapshot() ioCounts {
	return ioCounts{
		reads: s.reads.Load(), writes: s.writes.Load(),
		bytesIn: s.bytesIn.Load(), bytesOut: s.bytesOut.Load(),
		framesIn: s.framesIn.Load(), framesOut: s.framesOut.Load(),
		pushFrames: s.pushFrames.Load(), pushBytes: s.pushBytes.Load(),
		writeNs: s.writeNs.Load(),
	}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		reads: a.reads - b.reads, writes: a.writes - b.writes,
		bytesIn: a.bytesIn - b.bytesIn, bytesOut: a.bytesOut - b.bytesOut,
		framesIn: a.framesIn - b.framesIn, framesOut: a.framesOut - b.framesOut,
		pushFrames: a.pushFrames - b.pushFrames, pushBytes: a.pushBytes - b.pushBytes,
		writeNs: a.writeNs - b.writeNs,
	}
}

// probeQuery is the in-process probe's query: firm, so under group commit
// it seals the commit window at idle as under load, with a deadline no
// run reaches, so it is always evaluated.
var probeQuery = server.QueryRequest{Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 40, MinUseful: 1}

func timeUs(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return float64(time.Since(t0)) / float64(time.Microsecond), err
}

// idle times the in-process calls on the quiet stack.
func (p *layerProbe) idle(st *stack) {
	sess := st.srv.Session(inprocSession)
	for i := 0; i < 200; i++ {
		if d, err := timeUs(func() error { _, err := sess.Query(probeQuery); return err }); err == nil {
			p.idleQuery = append(p.idleQuery, d)
		}
		if i%4 == 0 {
			if d, err := timeUs(sess.Flush); err == nil {
				p.idleFlush = append(p.idleFlush, d)
			}
		}
	}
}

// start runs the in-process probe beside the measured run until finish.
func (p *layerProbe) start(st *stack) {
	p.stop = make(chan struct{})
	sess := st.srv.Session(inprocSession)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			if d, err := timeUs(func() error { _, err := sess.Query(probeQuery); return err }); err == nil {
				p.query = append(p.query, d)
			}
			if k%5 == 0 {
				if d, err := timeUs(sess.Flush); err == nil {
					p.flush = append(p.flush, d)
				}
			}
			const n = 64
			t0 := time.Now()
			for i := 0; i < n; i++ {
				st.srv.ValueAsOf("temp", st.srv.HistoryHorizon()/2)
			}
			p.asofNs = append(p.asofNs, float64(time.Since(t0))/n)
		}
	}()
}

func (p *layerProbe) finish() {
	close(p.stop)
	p.done.Wait()
}

// tracedRun makes the run twice on fresh stacks: untraced, then with the
// seams wrapped, spans recorded and the in-process server probe running.
// It returns the traced result and the per-layer metrics; the report
// carries the tracing overhead (traced minus untraced end-to-end) and the
// query/commit layer decomposition.
func tracedRun(cfg runConfig) (*result, map[string]float64, error) {
	plain, err := runWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}

	spans := newSpanLog(maxSpans)
	cli, srv := &ioStats{}, &ioStats{}
	fss := newFSStats(spans)
	tcfg := cfg
	tcfg.spans = spans
	tcfg.seams = seams{
		fs: timingFS{inner: faultfs.OS{}, st: fss},
		listener: func(ln net.Listener) net.Listener {
			return &countingListener{Listener: ln, st: srv, tap: func(i int) *frameTap {
				return &frameTap{conn: i, read: spServerRead, write: spServerWrite, log: spans, st: srv}
			}}
		},
		dialer: func(conn int) faultnet.Dialer {
			return countingDialer{inner: faultnet.OS{}, st: cli, tap: func() *frameTap {
				return &frameTap{conn: conn, read: spClientRead, write: spClientWrite, log: spans, st: cli}
			}}
		},
	}
	probe := &layerProbe{}
	tcfg.beforeRun = func(st *stack) {
		probe.idle(st)
		probe.m0 = st.srv.Metrics.Snapshot()
		if st.log != nil {
			probe.wal = true
			probe.wal0 = st.log.Stats()
		}
		probe.cli0, probe.srv0 = cli.snapshot(), srv.snapshot()
		fss.reset()
		probe.start(st)
	}
	tcfg.afterRun = func(st *stack) {
		probe.finish()
		probe.m1 = st.srv.Metrics.Snapshot()
		if st.log != nil {
			probe.wal1 = st.log.Stats()
		}
		probe.cli1, probe.srv1 = cli.snapshot(), srv.snapshot()
	}
	traced, err := runWorkload(tcfg)
	if err != nil {
		return nil, nil, err
	}
	traced.violations = append(plain.violations, traced.violations...)
	traced.attempted += plain.attempted
	traced.failed += plain.failed

	layers := layerMetrics(traced, probe, fss)
	for _, name := range []string{"commit_p50_us", "query_p50_us", "asof_p50_us", "push_fresh_p50_us", "cpu_us_per_op"} {
		traced.diag("trace_overhead."+name, traced.metrics[name]-plain.metrics[name], unitOf(name), "traced − untraced")
	}
	codecRows(traced, spans, layers)
	decompose(traced, spans, probe, layers)
	if err := writeSpans(cfg, spans); err != nil {
		return nil, nil, err
	}
	return traced, layers, nil
}

// layerMetrics computes the per-layer figures of the traced run.
func layerMetrics(res *result, p *layerProbe, fss *fsStats) map[string]float64 {
	ops := float64(res.ops)
	win := res.elapsed
	m := map[string]float64{}
	rs := res.rs

	m["loadgen.late_p90_us"] = percentile(rs.late, 90)
	m["loadgen.late_max_ms"] = percentile(rs.late, 100) / 1000

	c := p.cli1.sub(p.cli0)
	m["client.bytes_out_per_op"] = ratio(float64(c.bytesOut), ops)
	m["client.bytes_in_per_op"] = ratio(float64(c.bytesIn), ops)
	m["client.writes_per_op"] = ratio(float64(c.writes), ops)
	m["client.write_us_per_op"] = ratio(float64(c.writeNs)/1e3, ops)

	s := p.srv1.sub(p.srv0)
	m["netserve.writes_per_reply"] = ratio(float64(s.writes), float64(s.framesOut))
	m["netserve.reads_per_frame"] = ratio(float64(s.reads), float64(s.framesIn))
	m["netserve.write_us_per_op"] = ratio(float64(s.writeNs)/1e3, ops)
	m["netserve.push_bytes_per_push"] = ratio(float64(s.pushBytes), float64(s.pushFrames))
	mx := res.wireMx
	res.diag("netserve.rejects_per_op",
		ratio(float64(mx["net_backpressure_frames"]+mx["net_expired_on_arrival"]+mx["net_write_drops"]), ops),
		"ratio", "backpressure + expired on arrival + write drops")

	m["server.query_us_p50"] = percentile(p.query, 50)
	m["server.query_us_p90"] = percentile(p.query, 90)
	m["server.queue_wait_us"] = percentile(p.query, 50) - percentile(p.idleQuery, 50)
	m["server.flush_us_p90"] = percentile(p.flush, 90)
	m["server.asof_ns"] = percentile(p.asofNs, 50)
	d0, d1 := p.m0, p.m1
	m["server.chronons_per_op"] = ratio(float64(d1.Chronon-d0.Chronon), ops)
	m["server.rule_firings_per_sample"] = ratio(float64(d1.RuleFirings-d0.RuleFirings), float64(d1.SamplesApplied-d0.SamplesApplied))
	res.diag("server.backpressure_ratio",
		ratio(float64(d1.SamplesRejected-d0.SamplesRejected+d1.QueriesRejected-d0.QueriesRejected),
			float64(d1.SamplesIn-d0.SamplesIn+d1.SamplesRejected-d0.SamplesRejected+d1.QueriesIn-d0.QueriesIn)),
		"ratio", "session-queue rejections / submissions")
	res.diag("server.admission_skip_ratio",
		ratio(float64(d1.AdmissionSkip-d0.AdmissionSkip),
			float64(d1.QueriesIn-d0.QueriesIn+d1.PeriodicIssued-d0.PeriodicIssued+d1.PushScheduled-d0.PushScheduled)),
		"ratio", "evaluations skipped / queries + periodic + subscription ticks")
	res.diag("sub.push_dropped_ratio", ratio(float64(res.dropped), float64(res.scheduled)), "ratio", "dropped + local drops / scheduled")
	res.diag("sub.push_expired_ratio", ratio(float64(res.expired), float64(res.scheduled)), "ratio", "")

	allocs := float64(res.mem1.Mallocs - res.mem0.Mallocs)
	m["runtime.allocs_per_op"] = ratio(allocs, ops)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(res.mem1.TotalAlloc-res.mem0.TotalAlloc), ops)
	m["runtime.gc_cycles_per_kop"] = ratio(float64(res.mem1.NumGC-res.mem0.NumGC)*1000, ops)

	res.diag("server.query_us_idle_p50", percentile(p.idleQuery, 50), "us", "Session.Query on the quiet stack")
	res.diag("server.flush_us_idle_p50", percentile(p.idleFlush, 50), "us", "")
	res.diag("server.query_n", float64(len(p.query)), "count", "in-process probe under load")

	if p.wal {
		fss.mu.Lock()
		defer fss.mu.Unlock()
		w0, w1 := p.wal0, p.wal1
		appends := float64(w1.Appends - w0.Appends)
		var snapBytes, snapMax uint64
		for _, b := range fss.snapBytes {
			snapBytes += b
			snapMax = max(snapMax, b)
		}
		rows := []struct {
			name, unit, note string
			v                float64
		}{
			{"log.appends_per_fsync", "ratio", "WAL appends / segment fsyncs seen at the FS seam", ratio(appends, float64(len(fss.fsyncUs)))},
			{"log.fsync_us_p50", "us", "", percentile(fss.fsyncUs, 50)},
			{"log.fsync_us_p90", "us", "", percentile(fss.fsyncUs, 90)},
			{"log.fsync_busy_ratio", "ratio", "fsync time / run time", ratio(float64(fss.fsyncNs), float64(win))},
			{"log.write_bytes_per_sample", "B", "segment + snapshot bytes / sample", ratio(float64(fss.segWriteBytes+snapBytes), float64(res.samples))},
			{"log.snapshot_ms_p50", "ms", "", percentile(fss.snapMs, 50)},
			{"log.snapshot_ms_max", "ms", fmt.Sprintf("at -snapshot-every %d", snapshotEvery), percentile(fss.snapMs, 100)},
			{"log.snapshot_bytes_max", "B", "", float64(snapMax)},
			{"log.snapshots", "count", "", float64(len(fss.snapMs))},
			{"log.rotations", "count", "segment files opened", float64(fss.rotations)},
			{"log.group_commits", "count", "wal.Log.Stats()", float64(w1.GroupCommits - w0.GroupCommits)},
			{"log.grouped_appends_per_commit", "ratio", "wal.Log.Stats()", ratio(float64(w1.GroupedAppends-w0.GroupedAppends), float64(w1.GroupCommits-w0.GroupCommits))},
			{"log.stats_fsync_count", "count", "wal.Log.Stats()", float64(w1.FsyncCount - w0.FsyncCount)},
			{"log.metric_row_fsync_count", "count", "fsync_count metric row mid-run (stays 0 until Stop)", float64(p.m1.FsyncCount)},
		}
		for _, r := range rows {
			res.diag(r.name, r.v, r.unit, r.note)
		}
	}
	return m
}

// layerUnits gives the unit of every per-layer metric.
var layerUnits = map[string]string{
	"loadgen.late_p90_us": "us", "loadgen.late_max_ms": "ms",
	"client.bytes_out_per_op": "B", "client.bytes_in_per_op": "B",
	"client.writes_per_op": "count", "client.write_us_per_op": "us",
	"rtwire.encode_ns_per_frame": "ns", "rtwire.decode_ns_per_frame": "ns",
	"rtwire.allocs_per_frame": "count", "rtwire.push_encode_ns": "ns",
	"netserve.writes_per_reply": "count", "netserve.reads_per_frame": "count",
	"netserve.write_us_per_op": "us", "netserve.push_bytes_per_push": "B",
	"server.query_us_p50": "us", "server.query_us_p90": "us", "server.queue_wait_us": "us",
	"server.flush_us_p90": "us", "server.asof_ns": "ns", "server.chronons_per_op": "count",
	"server.rule_firings_per_sample": "ratio",
	"runtime.allocs_per_op":          "count", "runtime.alloc_bytes_per_op": "B", "runtime.gc_cycles_per_kop": "count",
}

func layerUnit(name string) string { return layerUnits[name] }

// codecRows times rtwire decode and encode over the frames the traced run
// actually wrote (a capped sample of both directions), after the stack
// is down so nothing else runs beside the loop.
func codecRows(res *result, spans *spanLog, layers map[string]float64) {
	frames := spans.frames
	if len(frames) == 0 {
		return
	}
	type appender interface{ AppendTo([]byte) []byte }
	msgs := make([]appender, 0, len(frames))
	var buf []byte
	const rounds = 5
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range frames {
			f, _, err := rtwire.DecodeFrame(b)
			if err != nil {
				continue
			}
			msg, err := rtwire.Decode(f)
			if err != nil {
				continue
			}
			if r == 0 {
				if a, ok := msg.(appender); ok {
					msgs = append(msgs, a)
				}
			}
		}
	}
	decodeNs := float64(time.Since(t0)) / float64(rounds*len(frames))
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			buf = m.AppendTo(buf[:0])
		}
	}
	encodeNs := float64(time.Since(t1)) / float64(rounds*len(msgs))
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs-uint64(len(msgs))) / float64(rounds*len(frames))
	var pushes []appender
	for _, m := range msgs {
		if _, ok := m.(rtwire.Push); ok {
			pushes = append(pushes, m)
		}
	}
	pushNs := math.NaN()
	if len(pushes) > 0 {
		t2 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, m := range pushes {
				buf = m.AppendTo(buf[:0])
			}
		}
		pushNs = float64(time.Since(t2)) / float64(rounds*len(pushes))
	}
	layers["rtwire.decode_ns_per_frame"] = decodeNs
	layers["rtwire.encode_ns_per_frame"] = encodeNs
	layers["rtwire.allocs_per_frame"] = allocs
	layers["rtwire.push_encode_ns"] = pushNs
	res.diag("rtwire.frames_timed", float64(len(frames)), "count", "captured frames, both directions")
}

// writeSpans writes the traced run's spans as CSV under the scratch
// directory: name, conn, frame kind, request id, bytes, start and end (ns
// from the trace origin), parent span index.
func writeSpans(cfg runConfig, spans *spanLog) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.csv", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,conn,kind,id,bytes,start_ns,end_ns,parent")
	for _, s := range spans.spans {
		kind := ""
		if s.kind != 0 {
			kind = s.kind.String()
		}
		fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d,%d\n", spanName[s.name], s.conn, kind, s.id, s.size, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s (%d over the in-memory cap)\n", len(spans.spans), path, spans.dropped)
	return nil
}

// sortSpans orders spans by start.
func sortSpans(s []span) {
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
}
