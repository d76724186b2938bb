// Command rtdbd runs the durable, concurrent real-time database server —
// now on the wire. It loads (or crash-recovers) a write-ahead log
// directory and serves the rtwire protocol over TCP: timed sensor samples,
// firm/soft-deadline queries whose deadlines travel with them, temporal
// as-of reads, and metrics snapshots, with periodic standing queries
// evaluated server-side.
//
// With -listen it serves real sockets until interrupted:
//
//	go run ./cmd/rtdbd -dir /tmp/rtdbd -listen 127.0.0.1:7677 -sessions 32
//
// and a load generator drives it from another terminal:
//
//	go run ./cmd/rtdbload -addr 127.0.0.1:7677 -conns 8 -ops 500
//
// Without -listen it runs the synthetic workload — the same client mix,
// but routed through the client package against in-process loopback
// listeners, so the synthetic and network paths cannot diverge. Run it
// twice against the same -dir to watch recovery replay the log.
//
// Every primary is a shard set: -shards N (default 1) splits the keyspace
// over N complete single-shard stacks behind the deterministic
// rtwire.ShardOf router, with one WAL directory (server.ShardDir: -dir
// itself for one shard, -dir/shard-NN otherwise) and one listener (the
// -listen port plus i) per shard. Clients compute placement with the same
// hash, so the synthetic driver routes exactly the way a remote rtdbload
// -shard-addrs run does.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// config is the parsed command line.
type config struct {
	dir, listen, replicaOf       string
	shards, sessions, ops, queue int
	segSize                      int64
	snapshot, evalCost, deadln   uint64
	fsync, promote               bool
	fsyncWin, promoteAfter       time.Duration
}

func main() {
	var c config
	flag.StringVar(&c.dir, "dir", "", "WAL directory (empty: run without durability)")
	flag.StringVar(&c.listen, "listen", "", "serve rtwire over TCP on this address until interrupted (empty: run the synthetic workload)")
	flag.IntVar(&c.shards, "shards", 1, "shard the keyspace over this many single-shard stacks, one WAL directory and one listener each (1: the -dir layout and -listen address used verbatim)")
	flag.IntVar(&c.sessions, "sessions", 8, "server sessions == max concurrent connections per shard")
	flag.IntVar(&c.ops, "ops", 200, "operations per synthetic connection")
	flag.Int64Var(&c.segSize, "segment-size", 1<<20, "WAL segment rotation size (bytes)")
	flag.Uint64Var(&c.snapshot, "snapshot-every", 2000, "WAL catalog snapshot period (events, 0: never)")
	flag.BoolVar(&c.fsync, "fsync", false, "fsync the WAL after every append")
	flag.DurationVar(&c.fsyncWin, "fsync-window", 200*time.Microsecond, "group-commit window with -fsync: concurrent appends share one fsync per window (0: fsync each append)")
	flag.Uint64Var(&c.evalCost, "eval-cost", 2, "chronons one query evaluation costs")
	flag.Uint64Var(&c.deadln, "deadline", 40, "relative firm deadline for synthetic client queries (chronons)")
	flag.IntVar(&c.queue, "queue-depth", 64, "per-session queue depth")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	flag.StringVar(&c.replicaOf, "replica-of", "", "follow this primary address as a hot standby (requires -dir; one shard)")
	flag.BoolVar(&c.promote, "promote", false, "bump the fencing epoch in -dir before serving (turn a stopped replica into the new primary; one shard)")
	flag.DurationVar(&c.promoteAfter, "promote-after", 0, "replica mode: auto-promote after this much primary silence (0: manual, SIGHUP); use several times the primary heartbeat interval (1s)")
	flag.Parse()
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	err := c.validate()
	switch {
	case err != nil:
	case c.replicaOf != "":
		err = runReplica(c, os.Stdout)
	default:
		err = run(c, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtdbd:", err)
		os.Exit(1)
	}
}

// validate refuses flag combinations that cannot all be honoured, rather
// than silently dropping one of them. Replication and promotion follow one
// WAL, so they exclude a sharded primary.
func (c config) validate() error {
	switch {
	case c.shards < 1:
		return fmt.Errorf("-shards %d: need at least one shard", c.shards)
	case c.shards > 1 && (c.replicaOf != "" || c.promote):
		return fmt.Errorf("-replica-of and -promote act on a single WAL; they cannot be combined with -shards %d", c.shards)
	case c.promote && c.replicaOf != "":
		return errors.New("-promote takes over a stopped replica's WAL; it cannot be combined with -replica-of (promote a running replica with SIGHUP or -promote-after)")
	case c.promote && c.dir == "":
		return errors.New("-promote needs -dir (the replica's WAL to take over)")
	case c.replicaOf != "" && c.dir == "":
		return errors.New("-replica-of needs -dir (the replica keeps its own durable WAL)")
	}
	return nil
}

// walOptions opens the WAL directory dir with the command's log settings.
func (c config) walOptions(dir string) wal.Options {
	return wal.Options{
		Dir: dir, SegmentSize: c.segSize, SnapshotEvery: c.snapshot, Sync: c.fsync,
		GroupWindow: c.fsyncWin,
	}
}

// run opens (or recovers) one WAL per shard under -dir and serves.
func run(c config, out io.Writer) error {
	var logs []*wal.Log
	if c.dir != "" {
		logs = make([]*wal.Log, c.shards)
		for i := range logs {
			dir := server.ShardDir(c.dir, i, c.shards)
			l, err := wal.Open(c.walOptions(dir))
			if err != nil {
				return err
			}
			defer l.Close()
			logs[i] = l
			if st, ls := l.State(), l.Stats(); st.Events > 0 {
				fmt.Fprintf(out, "shard %d: recovered %d events through chronon %d (%d recovered from log replay, %d torn bytes truncated)\n",
					i, st.Events, st.LastAt, ls.RecoveredEvents, ls.TruncatedBytes)
			} else {
				fmt.Fprintf(out, "shard %d: fresh log in %s\n", i, dir)
			}
			if c.promote {
				// Turn a (stopped) replica's log into the new primary's:
				// fence the old one out before serving a single request.
				e, err := l.BumpEpoch()
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "promoted: fencing epoch now %d\n", e)
			}
		}
	}
	return serve(c, logs, out)
}

// sensorBank widens the demo keyspace: temp and pressure alone may hash to
// one shard, so the demo adds a bank of sensors that rtwire.ShardOf spreads
// across every lane. rtdbload drives the same names.
const sensorBank = 16

func sensorName(i int) string { return fmt.Sprintf("sensor-%02d", i%sensorBank) }

// queryHome maps the demo catalog's queries to the object whose shard owns
// their read set: both status_q (derives status from temp+limit) and temp_q
// read temp, so both live on temp's shard.
var queryHome = map[string]string{"status_q": "temp", "temp_q": "temp"}

// serverConfig is the demo deployment every rtdbd role shares: primaries
// install it as their spec, replicas use its catalog and registry for
// degraded standby queries, and a promoted replica becomes a primary with
// the identical books.
func serverConfig(sessions, queue int, evalCost uint64) server.Config {
	images := []*rtdb.ImageObject{
		{Name: "temp", Period: 5},
		{Name: "pressure", Period: 7},
	}
	for i := 0; i < sensorBank; i++ {
		images = append(images, &rtdb.ImageObject{Name: sensorName(i), Period: 5})
	}
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "25"},
			Images:     images,
			Derived: []*rtdb.DerivedObject{
				{Name: "status", Sources: []string{"temp", "limit"}, Derive: statusOf},
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusOf},
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
		Rules: []rtdb.Rule{
			{
				Name: "overheat", On: "sample:temp", Mode: rtdb.Immediate,
				If: func(db *rtdb.DB, e rtdb.Event) bool {
					t, _ := strconv.Atoi(e.Attr["value"])
					return t > 25
				},
				Then: func(db *rtdb.DB, e rtdb.Event) {
					db.Raise(rtdb.Event{Kind: "alarm", At: e.At, Attr: e.Attr})
				},
			},
			{
				Name: "log-alarm", On: "alarm", Mode: rtdb.Immediate,
				Then: func(db *rtdb.DB, e rtdb.Event) {},
			},
		},
		Sessions:   sessions,
		QueueDepth: queue,
		EvalCost:   evalCost,
	}
}

// serve runs a primary to completion: the shard set, its periodic
// queries, one rtwire listener per shard, then either real traffic until a
// signal or the synthetic workload, and finally the metrics report with
// the conservation check. logs is nil or holds one WAL per shard.
func serve(c config, logs []*wal.Log, out io.Writer) error {
	ss, err := server.NewSharded(server.ShardedConfig{
		Base:   serverConfig(c.sessions, c.queue, c.evalCost),
		Shards: c.shards, Logs: logs, QueryHome: queryHome,
	})
	if err != nil {
		return err
	}
	for _, pq := range []server.PeriodicQuery{{
		Name: "status-watch", Query: "status_q",
		Issue: ss.Now(), Period: 11,
		Kind: deadline.Firm, Deadline: timeseq.Time(c.evalCost) + 3, MinUseful: 1,
	}, {
		Name: "temp-trend", Query: "temp_q",
		Issue: ss.Now(), Period: 23,
		Kind: deadline.Soft, Deadline: 5, MinUseful: 2,
		U: deadline.Hyperbolic(10, 5),
	}} {
		if err := ss.RegisterPeriodic(pq); err != nil {
			return err
		}
	}
	ss.Start()

	// A 1s beacon keeps replication links visibly alive, so a replica's
	// -promote-after only needs to clear seconds of genuine silence.
	set := netserve.NewShardSet(ss, netserve.Options{HeartbeatInterval: time.Second})
	err = traffic(c, set, out)
	for _, ns := range set {
		_ = ns.Close()
	}
	ss.Stop() // syncs every WAL and folds its fsync counters into the metrics
	if err != nil {
		return err
	}
	return report(ss, set, logs, out)
}

// traffic binds every shard's listener, then serves real traffic until a
// signal or, without -listen, runs the synthetic workload.
func traffic(c config, set []*netserve.Server, out io.Writer) error {
	addrs := make([]string, len(set))
	for i, ns := range set {
		a, err := shardAddr(c.listen, i)
		if err != nil {
			return err
		}
		bound, err := ns.Listen(a)
		if err != nil {
			return err
		}
		addrs[i] = bound.String()
		fmt.Fprintf(out, "shard %d/%d serving rtwire on %s (%d sessions)\n", i, len(set), addrs[i], c.sessions)
	}
	if c.listen == "" {
		return synthetic(addrs, c.sessions, c.ops, c.deadln, out)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(out, "\ndraining...")
	return nil
}

// shardAddr is shard i's listen address: -listen itself for shard 0 and
// the next ports up for the others, or an ephemeral loopback port when
// -listen is empty (the synthetic workload).
func shardAddr(listen string, i int) (string, error) {
	if listen == "" {
		return "127.0.0.1:0", nil
	}
	if i == 0 {
		return listen, nil
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("-listen %q: %w", listen, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("-listen %q: port must be numeric with -shards: %w", listen, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+i)), nil
}

// synthetic drives the deployment with conns concurrent network
// connections, each a client.Set routing by placement — the same op mix a real deployment would send, through the
// same client package and TCP stack rtdbload uses — while one
// standing-query subscription watches status_q over the same wire, so
// every run demonstrates the push path next to the polled one.
func synthetic(addrs []string, conns, ops int, deadln uint64, out io.Writer) error {
	// One session per shard is reserved for the subscriber riding along.
	if conns > 1 {
		conns--
	}
	sc, err := client.DialSet(addrs, client.Options{Name: "syn-sub"})
	if err != nil {
		return err
	}
	defer sc.Close()
	subscription, err := sc.For("temp").Subscribe(client.SubSpec{
		Query: "status_q", Period: 7,
		Kind: deadline.Soft, Deadline: timeseq.Time(deadln), MinUseful: 1,
		Depth: 16, Buffer: 32,
	})
	if err != nil {
		return err
	}
	var pushes, hits uint64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for p := range subscription.Pushes() {
			pushes++
			if !p.Missed {
				hits++
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, err := client.DialSet(addrs, client.Options{Name: fmt.Sprintf("syn-%d", id)})
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			drive(r, id, ops, deadln)
			if err := r.Flush(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	fmt.Fprintf(out, "synthetic: %d conns × %d ops over %d shards in %v\n",
		conns, ops, len(addrs), time.Since(start).Round(time.Millisecond))

	// Close out the standing query and audit its stream with the cursor
	// arithmetic every subscriber can run locally. The drivers are flushed,
	// so every tick is scheduled; a short settle lets the pump deliver the
	// tail before the audit coordinates are read.
	time.Sleep(300 * time.Millisecond)
	cursor, receivedC := subscription.Cursor(), subscription.Received()
	dropped, expired := subscription.Tallies()
	local := subscription.LocalDrops()
	if err := subscription.Close(); err != nil {
		return err
	}
	<-subDone
	if receivedC+dropped+expired+local != cursor {
		return fmt.Errorf("standing query audit open: received %d + dropped %d + expired %d + local %d != cursor %d",
			receivedC, dropped, expired, local, cursor)
	}
	fmt.Fprintf(out, "standing query: %d pushes (%d deadline hits), cursor %d == %d received + %d dropped + %d expired + %d shed ✓\n",
		pushes, hits, cursor, receivedC, dropped, expired, local)

	// A temporal read against the published history, over the wire: first
	// learn the horizon, then read the temperature half a horizon ago.
	tc := sc.For("temp")
	if _, _, horizon, err := tc.AsOf("temp", 0); err == nil && horizon > 0 {
		if v, ok, _, err := tc.AsOf("temp", horizon/2); err == nil && ok {
			fmt.Fprintf(out, "as-of read: temp was %q at chronon %d (horizon %d)\n", v, horizon/2, horizon)
		}
	}
	return nil
}

// drive is one synthetic connection: a deterministic mix of sensor
// samples, firm- and soft-deadline queries, and no-deadline reads, each
// routed to the shard that owns its object.
func drive(r client.Set, id, ops int, deadln uint64) {
	for op := 0; op < ops; op++ {
		switch op % 5 {
		case 0:
			_ = r.For("temp").InjectSample("temp", strconv.Itoa(18+(id*7+op)%12))
		case 1:
			sensor := sensorName(id + op)
			_ = r.For(sensor).InjectSample(sensor, strconv.Itoa(op%100))
		case 2:
			_ = r.For("pressure").InjectSample("pressure", strconv.Itoa(99+(id+op)%4))
		case 3:
			_, _ = r.For(queryHome["status_q"]).Query(client.Query{
				Query: "status_q", Candidate: "ok",
				Kind: deadline.Firm, Deadline: timeseq.Time(deadln), MinUseful: 1,
			})
		case 4:
			q := client.Query{Query: "temp_q"}
			if op%2 == 0 {
				q = client.Query{
					Query: "temp_q",
					Kind:  deadline.Soft, Deadline: timeseq.Time(deadln),
					MinUseful: 2,
					Decay:     rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 10},
				}
			}
			_, _ = r.For(queryHome["temp_q"]).Query(q)
		}
	}
}

// report prints the aggregated metrics table, the wire counters summed
// over the listeners, the periodic tally, one line per shard, and checks
// the conservation law end to end: each shard's books satisfy it
// independently, so their sum must too.
func report(ss *server.ShardedServer, set []*netserve.Server, logs []*wal.Log, out io.Writer) error {
	m := ss.MetricsSnapshot()
	fmt.Fprintln(out)
	fmt.Fprint(out, m.Table())
	fmt.Fprintln(out)
	fmt.Fprintln(out, "wire:")
	var wire []rtwire.MetricPair
	for i, ns := range set {
		for j, p := range ns.Wire.Snapshot().Pairs() {
			if i == 0 {
				wire = append(wire, p)
			} else {
				wire[j].Value += p.Value
			}
		}
	}
	for _, p := range wire {
		fmt.Fprintf(out, "  %-24s %d\n", p.Name, p.Value)
	}
	fmt.Fprintln(out, "shards and their periodic queries:")
	for i := 0; i < ss.NumShards(); i++ {
		sm := ss.Shard(i).Metrics.Snapshot()
		fmt.Fprintf(out, "  shard %d: chronon %d, %d samples applied, %d queries", i, sm.Chronon, sm.SamplesApplied, sm.QueriesIn)
		if logs != nil {
			fmt.Fprintf(out, ", WAL seq %d (%d events)", logs[i].Seq(), logs[i].State().Events)
		}
		fmt.Fprintln(out)
		for _, p := range ss.Shard(i).PeriodicReport() {
			fmt.Fprintf(out, "    %-14s issued %4d  hit %4d  missed %4d\n", p.Name, p.Issued, p.Hit, p.Missed)
		}
	}
	if got, want := m.QueriesIn, m.QueriesAccounted(); got != want {
		return fmt.Errorf("conservation violated: %d queries in, %d accounted", got, want)
	}
	fmt.Fprintf(out, "\nconservation: %d queries in == %d rejected + %d hit + %d missed + %d no-deadline ✓ (%d expired on arrival)\n",
		m.QueriesIn, m.QueriesRejected, m.DeadlineHit, m.DeadlineMiss, m.NoDeadline, m.ExpiredOnArrival)
	return nil
}

func statusOf(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

// runReplica runs rtdbd as a hot standby: it tails the primary's WAL into
// its own log under -dir, serves standby reads (as-of, metrics, degraded
// soft queries) on -listen, and on promotion — manual via SIGHUP, or
// automatic after -promote-after of primary silence — flips in place to a
// full primary serving the same address with a bumped fencing epoch.
func runReplica(c config, out io.Writer) error {
	cfg := serverConfig(c.sessions, c.queue, c.evalCost)
	r, err := replica.Open(replica.Config{
		Primary:  c.replicaOf,
		WAL:      c.walOptions(c.dir),
		Name:     "rtdbd-replica",
		Catalog:  cfg.Catalog,
		Registry: cfg.Registry,

		PromoteAfter: c.promoteAfter,
	})
	if err != nil {
		return err
	}
	r.Start()

	addr, _ := shardAddr(c.listen, 0) // shard 0's address never fails
	bound, err := r.Listen(addr)
	if err != nil {
		_ = r.Close()
		return err
	}
	fmt.Fprintf(out, "replica of %s: seq %d epoch %d, hot-standby reads on %s\n",
		c.replicaOf, r.Seq(), r.Epoch(), bound)
	if c.promoteAfter > 0 {
		fmt.Fprintf(out, "auto-promotion after %v of primary silence; SIGHUP promotes now\n", c.promoteAfter)
	} else {
		fmt.Fprintln(out, "promotion is manual: SIGHUP promotes")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	for {
		select {
		case <-sig:
			fmt.Fprintln(out, "\ndraining replica...")
			return r.Close()
		case <-hup:
			if _, err := r.Promote(); err != nil {
				_ = r.Close()
				return err
			}
		case <-r.Promoted():
			// The standby listener goes down with Close; the promoted
			// primary reopens the same address, now accepting writes.
			if err := r.Close(); err != nil {
				return err
			}
			l := r.Log()
			defer l.Close()
			fmt.Fprintf(out, "promoted: seq %d epoch %d; serving as primary on %s\n",
				l.Seq(), l.Epoch(), bound)
			c.listen = bound.String()
			return serve(c, []*wal.Log{l}, out)
		}
	}
}
