package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// subGroup is one (query, period) subscription group: members identical
// subscriptions on connection 1, evaluated once per tick server-side.
type subGroup struct {
	query   string
	period  timeseq.Time
	members int
}

// workload is one traffic mix. Connection 0 is the open-loop sensor
// writer plus its Flush commit probe; connection 1 is the closed-loop
// reader and the subscriber.
type workload struct {
	name string
	why  string
	// durable runs the stack on a WAL with rtdbd's durable defaults.
	durable bool
	// preAge samples go in through server.Session during setup, so the
	// measured run starts against that much history.
	preAge int
	// rate is the writer's samples per second, sent in 1 ms ticks (tick k
	// sends ⌊(k+1)·rate/1000⌋ − ⌊k·rate/1000⌋ samples).
	rate int
	// readerGap paces the closed-loop reader (op k starts no earlier than
	// k·readerGap into the run); 0 saturates.
	readerGap time.Duration
	// firmShare and softShare split the reader's ops; the rest are as-of
	// reads of temp.
	firmShare, softShare float64
	// asofNear > 0 draws as-of targets within that many chronons below the
	// horizon; 0 spreads them over the whole history.
	asofNear timeseq.Time
	// queryEvery > 0 adds a firm status_q probe on connection 1 at that
	// period (for a reader that sends no queries of its own).
	queryEvery time.Duration
	// firmDeadline is the relative firm deadline (chronons), calibrated on
	// seed 1 (NOTES.md).
	firmDeadline timeseq.Time
	subs         []subGroup
}

// softDeadline, softMinUseful and softDecay are rtdbd's synthetic soft
// envelope (deadline 40 chronons, hyperbolic decay from 10, minimum 2).
// Subscriptions use the same decay with a 64-chronon deadline, so a tick is
// expired only when the server falls far behind; their server queue holds
// 64 pushes and the client channel 256, so the consumer is never the
// bottleneck being measured.
const (
	softDeadline  = 40
	softMinUseful = 2
	subDeadline   = 64
	subDepth      = 64
	subBuffer     = 256
)

// commitEvery paces the Flush commit probe on connection 0.
const commitEvery = 10 * time.Millisecond

var softDecay = rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 10}

var workloads = []workload{
	{
		name: "ingest-durable",
		why: "the WAL (append, group commit, fsync, rotation, full-state snapshot) does most of its work here " +
			"and none in the other two; it exposes the snapshot stall at rtdbd's default period",
		durable: true, preAge: 1, rate: 400,
		readerGap: time.Millisecond, firmShare: 0.8,
		firmDeadline: 3,
		subs:         []subGroup{{"temp_q", 16, 4}},
	},
	{
		name: "read-history",
		why: "session queue, apply and evaluate, the rtwire codec and the netserve request path dominate; " +
			"deep as-of reads over a pre-aged history; no WAL, so a log change predicts no move",
		preAge: 100000, rate: 1000,
		firmShare: 0.4, softShare: 0.3,
		firmDeadline: 3,
		subs:         []subGroup{{"temp_q", 16, 4}},
	},
	{
		name: "push-fanout",
		why: "subscription grouping, push queues, the netserve push pump and Push-frame encoding do most " +
			"of the work: 64 subscriptions in 4 groups, as-of reads near the horizon",
		preAge: 1, rate: 1500,
		readerGap: 250 * time.Microsecond, asofNear: 64,
		queryEvery:   10 * time.Millisecond,
		firmDeadline: 6,
		subs: []subGroup{
			{"temp_q", 20, 16}, {"temp_q", 40, 16},
			{"status_q", 30, 16}, {"status_q", 60, 16},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// utilisation is the subscription and periodic load the workload places on
// the virtual clock: Σ EvalCost/Period over subscription groups plus
// rtdbd's two periodic queries (periods 11 and 23).
func (w workload) utilisation() float64 {
	u := float64(evalCost)/11 + float64(evalCost)/23
	for _, g := range w.subs {
		u += float64(evalCost) / float64(g.period)
	}
	return u
}

// Sample tags: every temp value carries its sample index so any answer
// naming a temp value names the exact sample. A hot reading is the tag
// itself (> 25, so the overheat rule fires), a cold one its negation.
const tagBase = 1000

func tempValue(index int, hot bool) string {
	if hot {
		return strconv.Itoa(tagBase + index)
	}
	return "-" + strconv.Itoa(tagBase+index)
}

// tagIndex recovers the sample index from a temp value.
func tagIndex(v string) (int, bool) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	if n < 0 {
		n = -n
	}
	if n < tagBase {
		return 0, false
	}
	return n - tagBase, true
}

// samples is the seeded sample stream shared by pre-aging and the writer:
// index i is a temp reading with probability 3/4, hot with probability
// 1/2, else a pressure reading. Index 0 is always temp, so the history has
// a temp value from chronon 0 on.
type samples struct {
	rng    *rand.Rand
	isTemp []bool
	sendNs []atomic.Int64 // send time of each index (ns since the run origin)
	// issued counts indexes handed to a send; an answer can only name an
	// index below it. sent counts sends that returned, so every index below
	// it is on the wire ahead of any later frame of connection 0.
	issued atomic.Int64
	sent   atomic.Int64
}

func newSamples(seed uint64, capacity int) *samples {
	return &samples{
		rng:    rand.New(rand.NewPCG(seed, 0x5a4d91e)),
		isTemp: make([]bool, capacity),
		sendNs: make([]atomic.Int64, capacity),
	}
}

// next draws sample index i.
func (s *samples) next(i int) (image, value string) {
	temp := i == 0 || s.rng.IntN(4) != 0
	s.isTemp[i] = temp
	if temp {
		return "temp", tempValue(i, s.rng.IntN(2) == 0)
	}
	return "pressure", strconv.Itoa(95 + s.rng.IntN(10))
}

// preAge feeds n samples through an in-process server session, retrying
// on backpressure after a Flush drains the queue.
func preAge(sess *server.Session, smp *samples, n int) error {
	for i := 0; i < n; i++ {
		image, value := smp.next(i)
		smp.issued.Store(int64(i + 1))
		for {
			err := sess.InjectSample(image, value)
			if err == nil {
				break
			}
			if !errors.Is(err, server.ErrBackpressure) {
				return fmt.Errorf("pre-age sample %d: %w", i, err)
			}
			if err := sess.Flush(); err != nil {
				return fmt.Errorf("pre-age flush: %w", err)
			}
		}
		smp.sent.Store(int64(i + 1))
	}
	return sess.Flush()
}

// runState is what the measured run's goroutines record. Each goroutine
// owns its own latencies and counters until the run ends.
type runState struct {
	w       workload
	st      *stack
	smp     *samples
	origin  time.Time
	dur     time.Duration
	rngRead *rand.Rand

	// writer
	late       []float64 // µs, one per tick
	writeErrs  int
	firstIndex int

	// commit probe
	commit     latencies
	commitLate []float64 // µs past each probe's tick at its start
	commitN    int
	commitErr  int
	acked      int64 // samples acknowledged by a completed Flush

	// spans is the traced run's span log (nil when untraced): the
	// benchmark records each request's root span around its client call.
	spans *spanLog

	violations []string
	vmu        sync.Mutex
}

// reads is one reading goroutine's tally: the reader and the query probe
// each own one until the run ends.
type reads struct {
	query, asof    latencies
	firmN, firmHit int
	n, errs        int
	asofPairs      []asofPair
	asofEmpty      int
	horizon        timeseq.Time
}

func (a *reads) merge(b *reads) {
	a.query.merge(&b.query)
	a.asof.merge(&b.asof)
	a.firmN += b.firmN
	a.firmHit += b.firmHit
	a.n += b.n
	a.errs += b.errs
	a.asofPairs = append(a.asofPairs, b.asofPairs...)
	a.asofEmpty += b.asofEmpty
}

type asofPair struct {
	at    timeseq.Time
	index int
}

func (r *runState) violate(format string, args ...any) {
	r.vmu.Lock()
	defer r.vmu.Unlock()
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// writer is connection 0's open-loop sample generator: tick k is due k ms
// into the run and sends its share of the rate, however late it starts. Its
// lateness against the schedule is recorded per tick.
func (r *runState) writer() {
	c := r.st.conns[0]
	i := r.firstIndex
	for k := 0; ; k++ {
		due := r.origin.Add(time.Duration(k) * time.Millisecond)
		if due.Sub(r.origin) >= r.dur {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, float64(time.Since(due))/float64(time.Microsecond))
		for j := k * r.w.rate / 1000; j < (k+1)*r.w.rate/1000; j++ {
			image, value := r.smp.next(i)
			r.smp.issued.Store(int64(i + 1))
			r.smp.sendNs[i].Store(int64(time.Since(r.origin)))
			if err := c.InjectSample(image, value); err != nil {
				r.writeErrs++
			}
			i++
			r.smp.sent.Store(int64(i))
		}
	}
}

// commitProbe sends a Flush on connection 0 every commitEvery, timed from
// its scheduled tick. It runs beside the writer, never in its schedule: a
// stalled Flush delays later probes, not samples. A probe still waiting
// for the previous one at its tick counts that wait (no coordinated
// omission); a probe that was idle and woke late does not count its own
// timer's oversleep, which is the generator's delay, not the server's —
// that lateness is recorded on its own.
func (r *runState) commitProbe() {
	c := r.st.conns[0]
	for k := 0; ; k++ {
		due := r.origin.Add(time.Duration(k) * commitEvery)
		if due.Sub(r.origin) >= r.dur {
			return
		}
		from := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			from = time.Now()
		}
		covered := r.smp.sent.Load()
		r.commitN++
		start := time.Now()
		r.commitLate = append(r.commitLate, float64(start.Sub(due))/float64(time.Microsecond))
		if err := c.Flush(); err != nil {
			r.commitErr++
			continue
		}
		end := time.Now()
		r.commit.add(due, r.origin, end.Sub(from))
		r.spans.add(spBenchCommitDue, 0, 0, due, start)
		r.spans.add(spBenchCommit, 0, 0, start, end)
		r.acked = covered
	}
}

// reader is connection 1's closed-loop reader: each op waits for its
// reply and is timed from its send. With readerGap > 0 op k starts no
// earlier than k·readerGap into the run.
func (r *runState) reader(rd *reads) {
	c := r.st.conns[1]
	end := r.origin.Add(r.dur)
	for k := 0; ; k++ {
		if r.w.readerGap > 0 {
			due := r.origin.Add(time.Duration(k) * r.w.readerGap)
			if !due.Before(end) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		} else if !time.Now().Before(end) {
			return
		}
		u := r.rngRead.Float64()
		switch {
		case u < r.w.firmShare:
			r.firmQuery(c, rd)
		case u < r.w.firmShare+r.w.softShare:
			r.softQuery(c, rd)
		default:
			r.asofRead(c, rd)
		}
		rd.n++
	}
}

// firmQuery sends one firm status_q with candidate "ok".
func (r *runState) firmQuery(c *client.Client, rd *reads) {
	start := time.Now()
	res, err := c.Query(client.Query{
		Query: "status_q", Candidate: "ok",
		Kind: deadline.Firm, Deadline: r.w.firmDeadline, MinUseful: 1,
	})
	d := time.Since(start)
	rd.firmN++
	if err != nil {
		rd.errs++
		return
	}
	r.spans.add(spBenchQuery, 1, 0, start, start.Add(d))
	rd.query.add(start, r.origin, d)
	if !res.Missed {
		rd.firmHit++
	}
	if res.Evaluated {
		if len(res.Answers) != 1 || (res.Answers[0] != "ok" && res.Answers[0] != "high") {
			r.violate("status_q answered %q", res.Answers)
		} else if res.Match != (res.Answers[0] == "ok") {
			r.violate("status_q match %v for answer %q", res.Match, res.Answers[0])
		}
	}
}

// softQuery sends one soft temp_q with hyperbolic decay.
func (r *runState) softQuery(c *client.Client, rd *reads) {
	start := time.Now()
	res, err := c.Query(client.Query{
		Query: "temp_q", Kind: deadline.Soft, Deadline: softDeadline,
		MinUseful: softMinUseful, Decay: softDecay,
	})
	d := time.Since(start)
	if err != nil {
		rd.errs++
		return
	}
	r.spans.add(spBenchQuery, 1, 0, start, start.Add(d))
	rd.query.add(start, r.origin, d)
	if res.Evaluated {
		r.checkTemp("temp_q", res.Answers)
	}
}

// checkTemp verifies a temp answer names a sample already issued.
func (r *runState) checkTemp(what string, answers []string) (int, bool) {
	if len(answers) != 1 {
		r.violate("%s answered %q", what, answers)
		return 0, false
	}
	idx, ok := tagIndex(answers[0])
	if !ok || int64(idx) >= r.smp.issued.Load() {
		r.violate("%s answered %q, not an issued temp sample", what, answers[0])
		return 0, false
	}
	return idx, true
}

// asofRead reads temp as of a seeded chronon: anywhere in the history, or
// within asofNear of the horizon.
func (r *runState) asofRead(c *client.Client, rd *reads) {
	h := rd.horizon
	var at timeseq.Time
	switch {
	case h == 0:
	case r.w.asofNear > 0:
		at = h - timeseq.Time(r.rngRead.Uint64N(uint64(min(h, r.w.asofNear))))
	default:
		at = timeseq.Time(r.rngRead.Uint64N(uint64(h) + 1))
	}
	start := time.Now()
	v, ok, horizon, err := c.AsOf("temp", at)
	d := time.Since(start)
	if err != nil {
		rd.errs++
		return
	}
	rd.asof.add(start, r.origin, d)
	rd.horizon = max(rd.horizon, horizon)
	if !ok {
		rd.asofEmpty++
		return
	}
	idx, good := tagIndex(v)
	if !good || int64(idx) >= r.smp.issued.Load() {
		r.violate("as-of %d answered %q, not an issued temp sample", at, v)
		return
	}
	rd.asofPairs = append(rd.asofPairs, asofPair{at, idx})
}

// queryProbe sends a firm status_q on connection 1 every queryEvery, for
// workloads whose reader sends no queries; timed from send.
func (r *runState) queryProbe(rd *reads) {
	c := r.st.conns[1]
	for k := 0; ; k++ {
		due := r.origin.Add(time.Duration(k) * r.w.queryEvery)
		if due.Sub(r.origin) >= r.dur {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.firmQuery(c, rd)
	}
}

// subscriber consumes one subscription's pushes: it checks every temp_q
// answer names an issued sample no older than the previous push's, and
// records freshness — receipt time minus the send time of that sample —
// for samples the measured run sent.
type subscriber struct {
	group   subGroup
	sub     *client.Subscription
	fresh   latencies
	n       uint64
	lastIdx int
	done    chan struct{}
}

func (r *runState) consume(s *subscriber) {
	defer close(s.done)
	s.lastIdx = -1
	for p := range s.sub.Pushes() {
		s.n++
		if !p.Evaluated {
			continue
		}
		if s.group.query != "temp_q" {
			if len(p.Answers) != 1 || (p.Answers[0] != "ok" && p.Answers[0] != "high") {
				r.violate("status_q push answered %q", p.Answers)
			}
			continue
		}
		idx, ok := r.checkTemp("temp_q push", p.Answers)
		if !ok {
			continue
		}
		if idx < s.lastIdx {
			r.violate("temp_q push went back from sample %d to %d", s.lastIdx, idx)
		}
		s.lastIdx = idx
		if idx >= r.firstIndex {
			sent := r.smp.sendNs[idx].Load()
			now := time.Since(r.origin)
			s.fresh.us = append(s.fresh.us, float64(int64(now)-sent)/float64(time.Microsecond))
			s.fresh.at = append(s.fresh.at, now)
		}
	}
}

// subscribe attaches the workload's subscription groups on connection 1.
func subscribe(r *runState) ([]*subscriber, error) {
	var out []*subscriber
	for _, g := range r.w.subs {
		for m := 0; m < g.members; m++ {
			s, err := r.st.conns[1].Subscribe(client.SubSpec{
				Query: g.query, Period: g.period, Kind: deadline.Soft,
				Deadline: subDeadline, MinUseful: 1, Decay: softDecay,
				Depth: subDepth, Buffer: subBuffer,
			})
			if err != nil {
				return out, fmt.Errorf("subscribe %s/%d: %w", g.query, g.period, err)
			}
			sb := &subscriber{group: g, sub: s, done: make(chan struct{})}
			out = append(out, sb)
		}
	}
	return out, nil
}
