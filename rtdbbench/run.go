package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// setupRuns is how many times a run builds its stack; setup_s is the
// median, and the last build is the one measured.
const setupRuns = 5

// publishPeriod is server.Config's default as-of publication period.
const publishPeriod = 16

// result is one measured run: the metrics by name, the diagnostic rows
// printed beside them, and the correctness verdict.
type result struct {
	metrics    map[string]float64
	rows       []row // diagnostics, printed in order
	attempted  uint64
	failed     uint64
	violations []string
	// kept for the traced run's layer accounting
	ops                         uint64
	samples                     uint64
	elapsed                     time.Duration
	rs                          *runState
	wireMx                      map[string]uint64
	mem0                        runtime.MemStats
	mem1                        runtime.MemStats
	scheduled, dropped, expired uint64
}

type row struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) diag(name string, v float64, unit, note string) {
	r.rows = append(r.rows, row{name, v, unit, note})
}

// runConfig is one invocation's settings.
type runConfig struct {
	w     workload
	seed  uint64
	dur   time.Duration // measured time
	out   string        // scratch directory for WAL files
	seams seams
	// spans, when set, records root spans around every client call.
	spans *spanLog
	// beforeRun and afterRun bracket the measured window on the live
	// stack (traced runs hook the server-layer probes here).
	beforeRun func(*stack)
	afterRun  func(*stack)
}

// runWorkload sets the stack up setupRuns times, measures one run of
// cfg.dur against the last, checks every correctness gate, and for
// ingest-durable times a restart from the run's WAL. It stops every
// stack it builds before returning.
func runWorkload(cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{metrics: map[string]float64{}}
	dur := cfg.dur
	capacity := w.preAge + int(int64(w.rate)*int64(dur+time.Second)/int64(time.Second))

	// Set-up: stack, pre-aged history, subscriptions, first answered read.
	var setups []float64
	var (
		st   *stack
		rs   *runState
		subs []*subscriber
		dir  string
	)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			stopAll(st, subs)
			_ = os.RemoveAll(dir)
		}
		if w.durable {
			dir = filepath.Join(cfg.out, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
			_ = os.RemoveAll(dir)
		}
		smp := newSamples(cfg.seed, capacity)
		t0 := time.Now()
		var err error
		st, err = buildStack(dir, cfg.seams)
		if err != nil {
			return nil, err
		}
		if err := preAge(st.srv.Session(inprocSession), smp, w.preAge); err != nil {
			st.stop()
			return nil, err
		}
		// Idle time past one publication period puts the pre-aged history
		// into the as-of snapshot, so temp has a value from chronon 0 on.
		if err := st.srv.Tick(publishPeriod); err != nil {
			st.stop()
			return nil, err
		}
		rs = &runState{
			w: w, st: st, smp: smp, dur: dur, firstIndex: w.preAge, spans: cfg.spans,
			rngRead: rand.New(rand.NewPCG(cfg.seed, 0x7ead)),
		}
		subs, err = subscribe(rs)
		if err != nil {
			stopAll(st, subs)
			return nil, err
		}
		if _, ok, _, err := st.conns[1].AsOf("temp", 0); err != nil || !ok {
			stopAll(st, subs)
			return nil, fmt.Errorf("first read: ok %v, %v", ok, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	for _, s := range subs {
		go rs.consume(s)
	}
	if cfg.beforeRun != nil {
		cfg.beforeRun(st)
	}

	// The measured window.
	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	cpu0 := cpuTime()
	rs.origin = time.Now()
	var wg sync.WaitGroup
	rd, probe := &reads{}, &reads{}
	run := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	run(rs.writer)
	run(rs.commitProbe)
	if w.firmShare+w.softShare > 0 || w.readerGap > 0 {
		run(func() { rs.reader(rd) })
	}
	if w.queryEvery > 0 {
		run(func() { rs.queryProbe(probe) })
	}
	wg.Wait()
	// A final Flush acknowledges every sample the writer sent.
	final := rs.smp.sent.Load()
	if err := st.conns[0].Flush(); err != nil {
		rs.violate("final flush: %v", err)
	} else {
		rs.acked = final
	}
	elapsed := time.Since(rs.origin)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&res.mem1)
	if cfg.afterRun != nil {
		cfg.afterRun(st)
	}

	// Quiesce and audit the subscriptions before closing them.
	quiesce(subs, 3*time.Second)
	var pushesIn, scheduled, dropped, expired, local uint64
	var fresh latencies
	for _, s := range subs {
		cursor, received := s.sub.Cursor(), s.sub.Received()
		d, e := s.sub.Tallies()
		l := s.sub.LocalDrops()
		if received+d+e+l != cursor {
			rs.violate("subscription audit %s/%d: received %d + dropped %d + expired %d + local %d != cursor %d",
				s.group.query, s.group.period, received, d, e, l, cursor)
		}
		scheduled += cursor
		dropped += d
		expired += e
		local += l
	}
	for _, s := range subs {
		if err := s.sub.Close(); err != nil {
			rs.violate("close subscription: %v", err)
		}
		<-s.done
		pushesIn += s.n
		fresh.merge(&s.fresh)
	}
	probeN := probe.firmN
	rd.merge(probe)

	// Conservation laws, read over the wire.
	m, err := st.conns[1].Metrics()
	if err != nil {
		stopAll(st, nil)
		return nil, fmt.Errorf("metrics: %w", err)
	}
	mx := m.Map()
	res.wireMx = mx
	if in, acc := mx["queries_in"], mx["queries_rejected"]+mx["deadline_hit"]+mx["deadline_miss"]+mx["no_deadline"]; in != acc {
		rs.violate("queries_in %d != rejected + hit + miss + no_deadline %d", in, acc)
	}
	if sch, acc := mx["push_scheduled"], mx["pushed"]+mx["push_dropped"]+mx["push_expired"]; sch != acc {
		rs.violate("push_scheduled %d != pushed + dropped + expired %d", sch, acc)
	}

	// As-of serving is monotone: temp samples land in index order, so a
	// later chronon can never name an older sample.
	sort.Slice(rd.asofPairs, func(i, j int) bool {
		a, b := rd.asofPairs[i], rd.asofPairs[j]
		return a.at < b.at || (a.at == b.at && a.index < b.index)
	})
	for i := 1; i < len(rd.asofPairs); i++ {
		if rd.asofPairs[i].index < rd.asofPairs[i-1].index {
			rs.violate("as-of %d named sample %d after as-of %d named %d",
				rd.asofPairs[i].at, rd.asofPairs[i].index, rd.asofPairs[i-1].at, rd.asofPairs[i-1].index)
			break
		}
	}
	if rd.asofEmpty > 0 {
		rs.violate("%d as-of reads found no temp value although temp has one from chronon 0", rd.asofEmpty)
	}

	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	// Operation accounting.
	sent := uint64(rs.smp.sent.Load()) - uint64(w.preAge)
	backpressure := st.conns[0].Stats.Backpressure.Load() + st.conns[1].Stats.Backpressure.Load()
	ops := sent + uint64(rd.n) + uint64(probeN) + uint64(rs.commitN) + pushesIn
	failedOps := uint64(rs.writeErrs+rs.commitErr+rd.errs) + backpressure
	res.attempted = ops
	res.failed = failedOps
	res.ops, res.samples, res.elapsed = ops, sent, elapsed
	res.scheduled, res.dropped, res.expired = scheduled, dropped+local, expired

	// End-to-end metrics: the gated ones (BENCHMARK.json), then the other
	// end-to-end figures as diagnostic rows. The commit, query and as-of
	// p90s are rows, not gated metrics: on a 2-vCPU VM their run-to-run
	// spread reached 0.2–0.7 of their median (NOTES.md).
	res.set("commit_p50_us", percentile(rs.commit.us, 50))
	res.set("query_p50_us", percentile(rd.query.us, 50))
	res.set("asof_p50_us", percentile(rd.asof.us, 50))
	res.set("push_fresh_p50_us", percentile(fresh.us, 50))
	res.set("push_fresh_p90_us", percentile(fresh.us, 90))
	res.set("read_ops_per_s", float64(rd.n)/elapsed.Seconds())
	res.set("firm_hit_ratio", ratio(float64(rd.firmHit), float64(rd.firmN)))
	res.set("cpu_us_per_op", cpuPerOp(cpu0, cpu1, ops))
	res.set("heap_inuse_mb", float64(msAfter.HeapInuse)/(1<<20))

	// Diagnostics: the ungated end-to-end rows, sample counts, tails, drift.
	res.diag("commit_p90_us", percentile(rs.commit.us, 90), "us", "")
	res.diag("query_p90_us", percentile(rd.query.us, 90), "us", "")
	res.diag("asof_p90_us", percentile(rd.asof.us, 90), "us", "")
	res.diag("push_loss_ratio", ratio(float64(dropped+expired+local), float64(scheduled)), "ratio", "(dropped+expired+local drops)/scheduled")
	res.diag("op_fail_ratio", ratio(float64(failedOps), float64(ops)), "ratio", "incl. async sample rejections")
	res.diag("fail.backpressure", float64(backpressure), "count", "asynchronous sample rejections (client.Stats)")
	res.diag("fail.calls", float64(rs.writeErrs+rs.commitErr+rd.errs), "count", "sample sends, flushes and reads that returned an error")
	res.diag("commit_n", float64(rs.commit.n()), "count", "")
	res.diag("commit_p99_us", percentile(rs.commit.us, 99), "us", "")
	res.diag("commit_max_us", percentile(rs.commit.us, 100), "us", "")
	res.diag("query_n", float64(rd.query.n()), "count", "")
	res.diag("query_p99_us", percentile(rd.query.us, 99), "us", "")
	res.diag("query_max_us", percentile(rd.query.us, 100), "us", "")
	res.diag("asof_n", float64(rd.asof.n()), "count", "")
	res.diag("asof_p99_us", percentile(rd.asof.us, 99), "us", "")
	res.diag("firm_n", float64(rd.firmN), "count", "firm deadline "+strconv.Itoa(int(w.firmDeadline))+" chronons")
	res.diag("push_fresh_n", float64(fresh.n()), "count", "")
	res.diag("push_fresh_p99_us", percentile(fresh.us, 99), "us", "")
	res.diag("pushes_per_s", float64(pushesIn)/elapsed.Seconds(), "1/s", "")
	res.diag("samples_per_s", float64(sent)/elapsed.Seconds(), "1/s", "")
	res.diag("sub_utilisation", w.utilisation(), "ratio", "Σ EvalCost/Period, subscriptions + periodic queries")
	res.diag("commit_probe.late_p90_us", percentile(rs.commitLate, 90), "us", "probe start past its tick; excluded from commit_* when the probe was idle")
	res.diag("loadgen.late_p90_us", percentile(rs.late, 90), "us", "")
	res.diag("loadgen.late_max_ms", percentile(rs.late, 100)/1000, "ms", "")
	third := elapsed / 3
	for _, d := range []struct {
		name string
		l    *latencies
	}{{"commit", &rs.commit}, {"query", &rd.query}} {
		first, last := d.l.window(0, third), d.l.window(2*third, elapsed+time.Second)
		res.diag(d.name+"_p90_us.first_third", percentile(first, 90), "us", "drift")
		res.diag(d.name+"_p90_us.last_third", percentile(last, 90), "us", "drift")
		res.diag(d.name+"_p99_us.first_third", percentile(first, 99), "us", "drift")
		res.diag(d.name+"_p99_us.last_third", percentile(last, 99), "us", "drift")
	}
	if rs.late != nil && percentile(rs.late, 90) > lateBoundUs {
		res.diag("loadgen.invalid", 1, "flag", fmt.Sprintf("writer p90 lateness above %d us", lateBoundUs))
	}

	res.rs = rs

	if w.durable {
		err := recoverCheck(res, st, dir, backpressure)
		_ = os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	} else {
		st.stop()
	}
	res.violations = rs.violations
	return res, nil
}

// lateBoundUs is the writer lateness (p90) above which a run is flagged:
// the generator, not the server, set the pace.
const lateBoundUs = 2000

// quiesce waits until every subscription's books close (received +
// dropped + expired + local drops == cursor) or the timeout passes; the
// audit that follows reports whatever is still open.
func quiesce(subs []*subscriber, timeout time.Duration) {
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		open := false
		for _, s := range subs {
			dropped, expired := s.sub.Tallies()
			if s.sub.Received()+dropped+expired+s.sub.LocalDrops() != s.sub.Cursor() {
				open = true
				break
			}
		}
		if !open {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopAll closes the subscriptions (if any) and stops the stack.
func stopAll(st *stack, subs []*subscriber) {
	for _, s := range subs {
		_ = s.sub.Close()
	}
	st.stop()
}

// recoverCheck stops the run's stack, times a restart from its WAL to the
// first answered request (recover_s), and checks that every sample a
// completed Flush acknowledged is in the recovered history.
func recoverCheck(res *result, st *stack, dir string, rejected uint64) error {
	rs := res.rs
	st.stop()
	t0 := time.Now()
	st2, err := buildStack(dir, seams{})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer st2.stop()
	if _, _, _, err := st2.conns[1].AsOf("temp", 0); err != nil {
		return fmt.Errorf("first read after restart: %w", err)
	}
	res.diag("recover_s", time.Since(t0).Seconds(), "s", "restart-to-serving from the run's WAL")
	recovered := map[int]bool{}
	if img, ok := st2.log.State().Images["temp"]; ok {
		for _, s := range img.Samples {
			if idx, ok := tagIndex(s.Value); ok {
				recovered[idx] = true
			}
		}
	}
	var missing uint64
	for i := 0; i < int(rs.acked); i++ {
		if rs.smp.isTemp[i] && !recovered[i] {
			missing++
		}
	}
	res.diag("recovered_events", float64(st2.log.Stats().RecoveredEvents), "count", "")
	if missing > rejected {
		rs.violate("%d flush-acknowledged temp samples missing after restart (%d rejected by backpressure)", missing, rejected)
	}
	return nil
}
