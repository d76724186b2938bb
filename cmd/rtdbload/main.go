// Command rtdbload is a closed-loop, multi-connection load generator for a
// running rtdbd server: each connection dials the rtwire port, drives a
// deterministic mix of timed samples, firm- and soft-deadline queries, and
// no-deadline reads, waits for every response before the next operation
// (closed loop — offered load tracks service rate), and at the end prints
// the client-side latency/outcome summary plus the server's own metrics
// table fetched over the wire, with the conservation law checked remotely.
//
// Two-terminal example:
//
//	go run ./cmd/rtdbd -listen 127.0.0.1:7677 -sessions 32
//	go run ./cmd/rtdbload -addr 127.0.0.1:7677 -conns 8 -ops 500
//
// A sharded deployment (rtdbd -shards N) is driven the same way, with
// -shard-addrs listing every shard's listener: each connection then holds
// one client per shard and routes each sample by client-side placement,
// and the report breaks throughput and durability out per shard.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtwire"
	"rtc/internal/stats"
	"rtc/internal/timeseq"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7677", "rtdbd rtwire address, or a comma-separated failover list (primary first)")
		conns   = flag.Int("conns", 8, "concurrent connections")
		ops     = flag.Int("ops", 200, "operations per connection")
		deadln  = flag.Uint64("deadline", 40, "relative firm deadline (client chronons)")
		chronon = flag.Duration("chronon", time.Millisecond, "wall-clock length of one client chronon")

		soak       = flag.Int("soak", 0, "age the server by this many injected samples and assert flat serving latency (0: run the mixed load)")
		soakFactor = flag.Float64("soak-factor", 8, "soak mode: max allowed late-run/early-run p99 ratio")

		fanout  = flag.Int("fanout", 0, "standing-query fan-out mode: this many push subscribers watching status_q (0: run the mixed load)")
		writers = flag.Int("writers", 4, "fanout mode: writer connections driving the clock")
		period  = flag.Uint64("period", 2, "fanout mode: subscription period (chronons)")

		shardAddrs = flag.String("shard-addrs", "", "comma-separated per-shard rtwire addresses (shard 0 first): route the mixed load by client-side placement (empty: the one shard at -addr)")
	)
	flag.Parse()
	var err error
	switch {
	case *soak > 0:
		err = runSoak(*addr, *soak, *soakFactor, *chronon)
	case *fanout > 0:
		err = runFanout(*addr, *fanout, *writers, *ops, *deadln, *period, *chronon)
	default:
		targets := []string{*addr}
		if *shardAddrs != "" {
			targets = strings.Split(*shardAddrs, ",")
		}
		err = run(targets, *conns, *ops, *deadln, *chronon, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtdbload:", err)
		os.Exit(1)
	}
}

// sensorName mirrors the rtdbd demo bank: 16 sensors spread over the
// shards by the placement hash.
func sensorName(i int) string { return fmt.Sprintf("sensor-%02d", i%16) }

// tally is the closed-loop outcome count across all connections.
type tally struct {
	queries, hits, misses, expired, backpressure atomic.Uint64

	// Failover accounting across all connections.
	readOnly, opFailed, failedOver, degraded, stale, hbCut atomic.Uint64
}

// shardTally is one shard's share of the run: the samples it acknowledged
// and the highest replication sequence (client SeqWatermark) any
// connection heard from it.
type shardTally struct{ acked, seqWatermark atomic.Uint64 }

// run drives the mixed load against targets, one rtwire address (or
// failover list) per shard, shard 0 first. Every connection holds one
// client per shard and routes each sample to its owner and each query to
// temp's shard, where the demo catalog's queries live.
func run(targets []string, conns, ops int, deadln uint64, chronon time.Duration, out io.Writer) error {
	var (
		wg        sync.WaitGroup
		t         tally
		per       = make([]shardTally, len(targets))
		latMu     sync.Mutex
		latencies []float64 // microseconds, query round trips
		errs      = make(chan error, conns)
	)
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cs, err := client.DialSet(targets, client.Options{
				Name:              fmt.Sprintf("load-%d", id),
				ChrononDuration:   chronon,
				RetryAttempts:     -1, // failover: exhaust the address list
				HeartbeatInterval: 100 * time.Millisecond,
			})
			if err != nil {
				errs <- err
				return
			}
			defer func() {
				cs.Close()
				for s, c := range cs {
					t.failedOver.Add(c.Stats.FailedOver.Load())
					t.degraded.Add(c.Stats.Degraded.Load())
					t.stale.Add(c.Stats.StaleRejected.Load())
					t.hbCut.Add(c.Stats.HeartbeatTimeouts.Load())
					t.readOnly.Add(c.Stats.ReadOnlyRejects.Load())
					for {
						w, old := c.Stats.SeqWatermark.Load(), per[s].seqWatermark.Load()
						if w <= old || per[s].seqWatermark.CompareAndSwap(old, w) {
							break
						}
					}
				}
			}()
			inject := func(object, value string) {
				s := cs[0].ShardFor(object)
				if cs[s].InjectSample(object, value) == nil {
					per[s].acked.Add(1)
				}
			}
			home := cs.For("temp")
			var local []float64
			for op := 0; op < ops; op++ {
				switch op % 5 {
				case 0:
					inject("temp", strconv.Itoa(18+(id*7+op)%12))
				case 1:
					sensor := sensorName(id + op)
					inject(sensor, strconv.Itoa(op%100))
				case 2:
					inject("pressure", strconv.Itoa(99+(id+op)%4))
				case 3, 4:
					q := client.Query{
						Query: "status_q", Candidate: "ok",
						Kind: deadline.Firm, Deadline: timeseq.Time(deadln), MinUseful: 1,
					}
					if op%10 == 4 {
						q = client.Query{
							Query: "temp_q",
							Kind:  deadline.Soft, Deadline: timeseq.Time(deadln),
							MinUseful: 2,
							Decay:     rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 10},
						}
					}
					qs := time.Now()
					res, err := home.Query(q)
					t.queries.Add(1)
					switch {
					case err == client.ErrBackpressure || (err != nil && res.Missed):
						t.backpressure.Add(1)
						t.misses.Add(1)
					case errors.Is(err, client.ErrReadOnly):
						// Mid-failover: a firm query landed on a standby.
						t.misses.Add(1)
					case err != nil:
						// An outage longer than the retry budget: the op
						// failed; the run keeps going and reports it.
						t.opFailed.Add(1)
						t.misses.Add(1)
					case res.ExpiredOnArrival:
						t.expired.Add(1)
						t.misses.Add(1)
					case res.Missed:
						t.misses.Add(1)
					default:
						t.hits.Add(1)
					}
					local = append(local, float64(time.Since(qs).Microseconds()))
				}
			}
			if err := cs.Flush(); err != nil {
				errs <- err
				return
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}

	fmt.Fprintf(out, "%d conns × %d ops over %d shards in %v (%.0f ops/s closed-loop)\n",
		conns, ops, len(targets), elapsed.Round(time.Millisecond),
		float64(conns*ops)/elapsed.Seconds())
	fmt.Fprintf(out, "queries: %d  hit %d  miss %d (expired-on-arrival %d, backpressure %d)\n",
		t.queries.Load(), t.hits.Load(), t.misses.Load(), t.expired.Load(), t.backpressure.Load())
	if len(latencies) > 0 {
		s := stats.Summarize(latencies)
		fmt.Fprintf(out, "query rtt µs: mean %.0f  median %.0f  min %.0f  max %.0f\n",
			s.Mean, s.Median, s.Lo, s.Hi)
	}

	var acked uint64
	for s := range per {
		acked += per[s].acked.Load()
	}
	fmt.Fprintf(out, "failover: %d acked writes, %d failed-over, %d degraded, %d read-only rejects, %d failed ops, %d stale-fenced, %d heartbeat cuts\n",
		acked, t.failedOver.Load(), t.degraded.Load(), t.readOnly.Load(), t.opFailed.Load(), t.stale.Load(), t.hbCut.Load())

	// Fetch each shard's own books over the wire, then check the
	// conservation law remotely: every query this tool (and anyone else)
	// submitted is accounted as exactly one terminal outcome. Each shard's
	// books satisfy it independently, so the sums must too.
	var in, rejected, hit, missed, noDeadline uint64
	for s, target := range targets {
		mm, err := shardBooks(target, s, len(targets), out)
		if err != nil {
			return err
		}
		in += mm["queries_in"]
		rejected += mm["queries_rejected"]
		hit += mm["deadline_hit"]
		missed += mm["deadline_miss"]
		noDeadline += mm["no_deadline"]
		acked := per[s].acked.Load()
		fmt.Fprintf(out, "shard %d: %6d acked samples (%7.0f/s)  applied %6d  wal_seq %d\n",
			s, acked, float64(acked)/elapsed.Seconds(), mm["samples_applied"], mm["wal_seq"])

		// Failover durability: the node this shard's target ended on must
		// carry every write the lost primary acknowledged, up to the last
		// replication sequence heard from it.
		if w := per[s].seqWatermark.Load(); w > 0 {
			finalSeq, ok := mm["wal_seq"]
			if !ok {
				return fmt.Errorf("shard %d failed over past seq %d but the final node reports no wal_seq", s, w)
			}
			if finalSeq < w {
				return fmt.Errorf("LOST ACKED WRITES on shard %d: final node at wal_seq %d < pre-failover watermark %d (%d missing)",
					s, finalSeq, w, w-finalSeq)
			}
			fmt.Fprintf(out, "shard %d failover durability: final wal_seq %d >= pre-failover watermark %d — zero lost acked writes ✓\n", s, finalSeq, w)
		}
	}
	if accounted := rejected + hit + missed + noDeadline; in != accounted {
		return fmt.Errorf("conservation violated on server: %d queries in, %d accounted", in, accounted)
	}
	fmt.Fprintf(out, "conservation (server books): %d queries in == %d rejected + %d hit + %d missed + %d no-deadline ✓\n",
		in, rejected, hit, missed, noDeadline)
	return nil
}

// shardBooks fetches shard s's metrics table and checks its shard label: a
// sharded listener prepends "shard" and "shards" rows, a lone one none. A
// lone shard's table is printed whole — the same table rtdbd prints.
func shardBooks(target string, s, shards int, out io.Writer) (map[string]uint64, error) {
	c, err := client.Dial(target, client.Options{Name: "load-metrics"})
	if err != nil {
		return nil, err
	}
	m, err := c.Metrics()
	c.Close()
	if err != nil {
		return nil, err
	}
	mm := m.Map()
	if got, ok := mm["shard"]; ok != (shards > 1) || got != uint64(s) {
		return nil, fmt.Errorf("listener %s metrics label shard=%d (present=%v), want shard %d of %d", target, got, ok, s, shards)
	}
	if shards == 1 {
		tab := stats.NewTable("metric", "value")
		for _, p := range m.Pairs {
			tab.Row(p.Name, p.Value)
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, tab.String())
		fmt.Fprintln(out)
	}
	return mm, nil
}
