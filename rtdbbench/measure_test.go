package main

import (
	"math"
	"testing"
	"time"

	"rtc/internal/rtwire"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileKnownAnswers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; not modified
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("empty input must have no percentile")
	}
}

// The expected spreads are Python's
// (q[2]-q[0])/median(d) with q = statistics.quantiles(d, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3.5, 1.25, 9, 7, 2}, 1.8214285714285714},
		{[]float64{10, 20}, 1.0},
	} {
		if got := quartileSpread(c.xs); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRatioHasNoValueWithoutBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if !math.IsNaN(ratio(3, 0)) {
		t.Errorf("ratio over a zero base must be absent (NaN)")
	}
}

func TestCPUPerOp(t *testing.T) {
	if got := cpuPerOp(2*time.Second, 5*time.Second, 1_500_000); !near(got, 2) {
		t.Errorf("3 s of CPU over 1.5M ops = %v µs/op, want 2", got)
	}
	if !math.IsNaN(cpuPerOp(0, time.Second, 0)) {
		t.Errorf("CPU per op without ops must be absent")
	}
}

func TestLatencyWindows(t *testing.T) {
	var l latencies
	origin := time.Unix(0, 0)
	for i := 0; i < 9; i++ {
		l.add(origin.Add(time.Duration(i)*time.Second), origin, time.Duration(i+1)*time.Microsecond)
	}
	first := l.window(0, 3*time.Second)
	if len(first) != 3 || first[0] != 1 || first[2] != 3 {
		t.Errorf("first third = %v, want [1 2 3]", first)
	}
	if last := l.window(6*time.Second, 9*time.Second); len(last) != 3 || last[0] != 7 {
		t.Errorf("last third = %v, want [7 8 9]", last)
	}
}

func TestTagRoundTrip(t *testing.T) {
	for _, hot := range []bool{true, false} {
		v := tempValue(42, hot)
		if idx, ok := tagIndex(v); !ok || idx != 42 {
			t.Errorf("tagIndex(%q) = %d, %v", v, idx, ok)
		}
	}
	if _, ok := tagIndex("99"); ok {
		t.Errorf("a pressure reading must not parse as a tagged temp")
	}
	// The overheat rule reads a hot tag as above the limit, a cold one below.
	if statusOf(map[string]string{"temp": tempValue(0, true), "limit": "25"}) != "high" ||
		statusOf(map[string]string{"temp": tempValue(0, false), "limit": "25"}) != "ok" {
		t.Errorf("hot/cold tags do not drive the derived status")
	}
}

func TestIntervalOverlap(t *testing.T) {
	iv := intervals{{start: 0, end: 10}, {start: 20, end: 30}, {start: 40, end: 50}}
	for _, c := range []struct{ a, b, want int64 }{
		{0, 50, 30}, {5, 25, 10}, {10, 20, 0}, {45, 100, 5}, {-5, 2, 2},
	} {
		if got := iv.overlap(c.a, c.b); got != c.want {
			t.Errorf("overlap(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestUtilisationStaysBelowOne(t *testing.T) {
	for _, w := range workloads {
		if u := w.utilisation(); u >= 1 {
			t.Errorf("%s: utilisation %.3f ≥ 1", w.name, u)
		}
		for _, g := range w.subs {
			if g.period <= evalCost {
				t.Errorf("%s: subscription period %d ≤ EvalCost", w.name, g.period)
			}
		}
	}
}

// One synthetic query through every seam: the decomposition rows must add
// up to the root span, and the server window must split by the log spans
// that overlap it.
func TestDecompositionAddsUp(t *testing.T) {
	log := newSpanLog(100)
	at := func(us int64) time.Time { return log.origin.Add(time.Duration(us) * time.Microsecond) }
	q := rtwire.KindQuery
	log.add(spBenchQuery, 1, 0, at(100), at(400))
	log.record(span{name: spClientWrite, conn: 1, kind: q, id: 9, start: us(110), end: us(120)})
	log.record(span{name: spServerRead, conn: 1, kind: q, id: 9, start: us(150), end: us(150)})
	log.add(spLogWrite, -1, 0, at(160), at(170))
	log.add(spLogFsync, -1, 0, at(200), at(300))
	log.record(span{name: spServerWrite, conn: 1, kind: rtwire.KindResult, id: 9, start: us(330), end: us(340)})
	log.record(span{name: spClientRead, conn: 1, kind: rtwire.KindResult, id: 9, start: us(360), end: us(360)})

	res := &result{metrics: map[string]float64{}, rs: &runState{origin: log.origin}}
	p := &layerProbe{idleQuery: []float64{5}, idleFlush: []float64{4}}
	decompose(res, log, p, map[string]float64{"rtwire.decode_ns_per_frame": 1000, "server.queue_wait_us": 20})
	rows := map[string]float64{}
	for _, r := range res.rows {
		rows[r.name] = r.value
	}
	want := map[string]float64{
		"decomp.query.total_us":              300,
		"decomp.query.client_encode_us":      10,
		"decomp.query.wire_in_us":            40,
		"decomp.query.fsync_wait_us":         100,
		"decomp.query.wal_append_us":         10,
		"decomp.query.server_decode_us":      1,
		"decomp.query.apply_eval_us":         5,
		"decomp.query.session_queue_wait_us": 20,
		"decomp.query.unattributed_us":       44,
		"decomp.query.reply_write_us":        10,
		"decomp.query.wire_out_us":           20,
		"decomp.query.client_decode_us":      40,
	}
	sum := 0.0
	for name, v := range want {
		if !near(rows[name], v) {
			t.Errorf("%s = %v, want %v", name, rows[name], v)
		}
		if name != "decomp.query.total_us" {
			sum += rows[name]
		}
	}
	if !near(sum, rows["decomp.query.total_us"]) {
		t.Errorf("rows add up to %v, total %v", sum, rows["decomp.query.total_us"])
	}
}

func us(v int64) int64 { return v * int64(time.Microsecond) }

func TestJSONLineLeavesOutUnmeasured(t *testing.T) {
	res := &result{attempted: 10, failed: 1}
	line := jsonResult(true, res, map[string]float64{"query_p50_us": 12.5, "asof_p50_us": math.NaN()})
	if _, ok := line.Metrics["asof_p50_us"]; ok {
		t.Errorf("a metric with no samples must be left out, not reported")
	}
	if m := line.Metrics["query_p50_us"]; m.Value != 12.5 || m.Unit != "us" {
		t.Errorf("query_p50_us = %+v", m)
	}
	if line.Attempted != 10 || line.Failed != 1 || !line.Correct {
		t.Errorf("line = %+v", line)
	}
}
