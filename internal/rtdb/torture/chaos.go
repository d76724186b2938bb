package torture

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/timeseq"
)

// ChaosConfig parameterizes one chaos run: N concurrent sessions with
// seeded but racing op streams against one server whose WAL sits on a
// fault-injecting filesystem, so transient EIO and short writes land in
// the middle of the apply loop.
type ChaosConfig struct {
	Seed     uint64
	Sessions int // default 8
	OpsEach  int // ops per session (default 150)
	// QueueDepth is kept small (default 8) so backpressure engages.
	QueueDepth int
	// FaultEvery injects a transient write fault (alternating EIO and
	// torn short write) every so many data writes (default 25).
	FaultEvery uint64
	Logf       func(format string, args ...any)
}

func (c *ChaosConfig) defaults() {
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.OpsEach <= 0 {
		c.OpsEach = 150
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.FaultEvery == 0 {
		c.FaultEvery = 25
	}
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Metrics         server.MetricsSnapshot
	FaultsInjected  uint64
	RecoveredEvents uint64
	Failures        []Failure
}

// Ok reports a clean run.
func (r *ChaosReport) Ok() bool { return len(r.Failures) == 0 }

func chaosDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

func chaosServerConfig(l *wal.Log, sessions, depth int) server.Config {
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "22"},
			Images: []*rtdb.ImageObject{
				{Name: "temp", Period: 5},
				{Name: "press", Period: 3},
			},
			Derived: []*rtdb.DerivedObject{{
				Name: "status", Sources: []string{"temp", "limit"}, Derive: chaosDerive,
			}},
		},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
			"temp_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest("temp"); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			},
		},
		Registry: rtdb.DeriveRegistry{"status": chaosDerive},
		Rules: []rtdb.Rule{{
			Name: "alarm", On: "sample:temp", Mode: rtdb.Immediate,
			If:   func(db *rtdb.DB, e rtdb.Event) bool { return e.Attr["value"] > "24" },
			Then: func(db *rtdb.DB, e rtdb.Event) {},
		}},
		Sessions:   sessions,
		QueueDepth: depth,
		Log:        l,
	}
}

// Chaos runs the server chaos mode: seeded racing sessions mixing samples,
// deadline-carrying queries (including the firm boundary deadline ==
// EvalCost), as-of reads, and idle ticks, while the WAL underneath them
// takes transient write faults mid-apply-loop. Afterwards it asserts the
// conservation laws — every query accounted exactly once, every accepted
// sample applied, every periodic invocation tallied — and that the WAL
// survived: never poisoned, recoverable, with exactly WalAppends events,
// and a fresh server rebuildable from the recovered state.
func Chaos(cfg ChaosConfig) *ChaosReport {
	cfg.defaults()
	rep := &ChaosReport{}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, Failure{
			Mode: ModeChaos, Seed: cfg.Seed, Events: cfg.Sessions * cfg.OpsEach,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	mem := faultfs.NewMem(pointSeed(cfg.Seed, 0xc4a05))
	// Schedule transient write faults across the whole run, alternating
	// plain EIO and torn short writes. Only data writes are targeted, so
	// the log heals every one of them (fsync faults would rightly poison).
	maxWrites := uint64(cfg.Sessions*cfg.OpsEach*2 + 1024)
	for k, i := cfg.FaultEvery, 0; k < maxWrites; k, i = k+cfg.FaultEvery, i+1 {
		if i%2 == 0 {
			mem.FailWrite(k)
		} else {
			mem.TearWrite(k)
		}
	}

	l, err := wal.Open(wal.Options{Dir: walDir, FS: mem, SegmentSize: 4096, SnapshotEvery: 64, Sync: true})
	if err != nil {
		fail("Open: %v", err)
		return rep
	}
	s, err := server.New(chaosServerConfig(l, cfg.Sessions, cfg.QueueDepth))
	if err != nil {
		fail("server.New: %v", err)
		return rep
	}
	if err := s.RegisterPeriodic(server.PeriodicQuery{
		Name: "watch", Query: "status_q", Period: 7,
		Kind: deadline.Firm, Deadline: 5, MinUseful: 1,
	}); err != nil {
		fail("RegisterPeriodic: %v", err)
		return rep
	}
	s.Start()

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(pointSeed(cfg.Seed, uint64(id)+1), 0x2545f4914f6cdd1d))
			c := s.Session(id)
			for op := 0; op < cfg.OpsEach; op++ {
				// A random yield shakes the interleaving between sessions
				// so repeated runs explore different apply orders.
				if rng.IntN(8) == 0 {
					runtime.Gosched()
				}
				switch r := rng.IntN(100); {
				case r < 55:
					img := "temp"
					if rng.IntN(3) == 0 {
						img = "press"
					}
					if err := c.InjectSample(img, strconv.Itoa(15+rng.IntN(15))); err != nil && err != server.ErrBackpressure {
						errs <- fmt.Errorf("session %d: inject: %w", id, err)
						return
					}
				case r < 70:
					// Firm queries, including the boundary envelope where
					// the relative deadline equals EvalCost (provably late).
					d := 1 + rng.IntN(20)
					_, err := c.Query(server.QueryRequest{
						Query: "status_q", Candidate: "ok",
						Kind: deadline.Firm, Deadline: timeseq.Time(d), MinUseful: 1,
					})
					if err != nil && err != server.ErrBackpressure {
						errs <- fmt.Errorf("session %d: firm query: %w", id, err)
						return
					}
				case r < 80:
					_, err := c.Query(server.QueryRequest{
						Query: "temp_q",
						Kind:  deadline.Soft, Deadline: timeseq.Time(2 + rng.IntN(8)), MinUseful: uint64(rng.IntN(5)),
						U: deadline.Hyperbolic(8, 10),
					})
					if err != nil && err != server.ErrBackpressure {
						errs <- fmt.Errorf("session %d: soft query: %w", id, err)
						return
					}
				case r < 90:
					_, _ = s.ValueAsOf("temp", s.Now()/2)
					_ = s.Metrics.Snapshot()
				default:
					if err := s.Tick(uint64(1 + rng.IntN(3))); err != nil {
						errs <- fmt.Errorf("session %d: tick: %w", id, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fail("%v", err)
	}
	for i := 0; i < cfg.Sessions; i++ {
		if err := s.Session(i).Flush(); err != nil {
			fail("flush session %d: %v", i, err)
		}
	}
	if err := s.Barrier(); err != nil {
		fail("barrier: %v", err)
	}
	m := s.Metrics.Snapshot()
	s.Stop()
	rep.Metrics = m
	rep.FaultsInjected = mem.Injected()

	// Conservation laws: nothing is silently dropped, under faults or not.
	if m.QueriesIn != m.QueriesAccounted() {
		fail("query conservation violated: in=%d accounted=%d", m.QueriesIn, m.QueriesAccounted())
	}
	if m.SamplesIn != m.SamplesApplied {
		fail("sample conservation violated: in=%d applied=%d", m.SamplesIn, m.SamplesApplied)
	}
	if m.PeriodicIssued != m.PeriodicHit+m.PeriodicMiss {
		fail("periodic conservation violated: %d != %d+%d", m.PeriodicIssued, m.PeriodicHit, m.PeriodicMiss)
	}
	if m.QueriesIn == 0 || m.SamplesIn == 0 {
		fail("chaos run did no work: %+v", m)
	}

	// The WAL took mid-apply-loop faults and must have healed every one:
	// transient write errors cost individual records (counted as
	// WalErrors), never the log.
	if err := l.Err(); err != nil {
		fail("WAL poisoned by transient faults: %v", err)
	}
	st := l.Stats()
	if rep.FaultsInjected > 0 && m.WalErrors == 0 && st.SnapshotErrors == 0 {
		fail("%d faults injected but none surfaced in WalErrors or SnapshotErrors", rep.FaultsInjected)
	}
	if err := l.Close(); err != nil {
		fail("close WAL: %v", err)
	}

	// Recovery: exactly the successfully appended events come back, and a
	// fresh server rebuilds from them (load-or-recover).
	l2, err := wal.Open(wal.Options{Dir: walDir, FS: mem, SegmentSize: 4096, SnapshotEvery: 64})
	if err != nil {
		fail("recovery Open: %v", err)
		return rep
	}
	defer l2.Close()
	rep.RecoveredEvents = l2.State().Events
	if rep.RecoveredEvents != m.WalAppends {
		fail("WAL conservation violated: recovered %d events, %d appends acknowledged", rep.RecoveredEvents, m.WalAppends)
	}
	s2, err := server.New(chaosServerConfig(l2, 1, cfg.QueueDepth))
	if err != nil {
		fail("server rebuild from recovered WAL: %v", err)
		return rep
	}
	if s2.Now() != l2.State().LastAt {
		fail("rebuilt server clock %d != recovered LastAt %d", s2.Now(), l2.State().LastAt)
	}
	if cfg.Logf != nil {
		cfg.Logf("chaos: seed=%d sessions=%d ops=%d faults=%d samples=%d queries=%d wal_appends=%d wal_errors=%d recovered=%d",
			cfg.Seed, cfg.Sessions, cfg.OpsEach, rep.FaultsInjected,
			m.SamplesIn, m.QueriesIn, m.WalAppends, m.WalErrors, rep.RecoveredEvents)
	}
	return rep
}
