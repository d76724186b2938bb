package server

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

// The differential shard suite: one seeded workload pushed through a
// 1-shard and an 8-shard deployment must be observationally identical —
// same query responses (answers, match, deadline verdicts, issue/serve
// stamps), same as-of reads at every probed instant, same conservation
// sums, and the same per-object sample order in the WALs. Sharding is an
// execution strategy, not a semantic: if any of these drift, the router
// leaked into the model.
//
// The workload is driven sequentially with flush points between phases
// (the regime in which the routing clock provably mirrors a single-shard
// clock — concurrent drivers keep the laws but not bit-identical stamps),
// and registers no periodic queries: a periodic evaluation advances only
// its home shard's lane between flushes, so its issue stamps are
// flush-aligned rather than identical. Those are exercised by
// TestShardSingleByteIdentical (byte-level, with periodics) and the race
// suite (concurrent, law-level).

// diffOutcome is everything observable the driver collects from one run.
type diffOutcome struct {
	resps     []Response
	asof      map[string]string // "obj@t" -> value ("?" when absent)
	horizon   timeseq.Time
	applied   uint64
	queries   [4]uint64 // in, hit, miss, nodeadline
	firings   uint64
	perObject map[string][]string // per-object WAL sample sequence "at=value"
}

// driveDifferential runs the seeded workload against any session handle.
type shardSession interface {
	InjectSample(image, value string) error
	Query(QueryRequest) (Response, error)
	Flush() error
}

func driveDifferential(t *testing.T, c shardSession, seed int64, phases, perPhase int, objs []string) []Response {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var resps []Response
	for p := 0; p < phases; p++ {
		for i := 0; i < perPhase; i++ {
			obj := objs[rng.Intn(len(objs))]
			switch rng.Intn(5) {
			case 0, 1, 2:
				if err := c.InjectSample(obj, strconv.Itoa(rng.Intn(100))); err != nil {
					t.Fatal(err)
				}
			case 3:
				// Queries quiesce first: issue stamps must not depend on
				// how far an apply loop got through the queue (true of the
				// raw server too — see TestShardSingleByteIdentical).
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				resp, err := c.Query(QueryRequest{
					Query: "q-" + obj, Candidate: "42",
					Kind: deadline.Firm, Deadline: 10, MinUseful: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				resps = append(resps, resp)
			case 4:
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				kind, u := deadline.None, deadline.Usefulness(nil)
				var dl timeseq.Time
				if rng.Intn(2) == 0 {
					kind, dl = deadline.Soft, 6
					u = deadline.Hyperbolic(8, 6)
				}
				resp, err := c.Query(QueryRequest{
					Query: "status_q", Kind: kind, Deadline: dl, MinUseful: 1, U: u,
				})
				if err != nil {
					t.Fatal(err)
				}
				resps = append(resps, resp)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return resps
}

// runDifferential builds a deployment at the given shard count, drives the
// seeded workload, and collects every observable.
func runDifferential(t *testing.T, shards int, seed int64, objs []string) diffOutcome {
	t.Helper()
	base := filepath.Join(t.TempDir(), "wal")
	opt := wal.Options{SegmentSize: 1 << 16, SnapshotEvery: 16}
	cfg, home := shardedSpecConfig(len(objs))
	cfg.QueueDepth = 256
	logs := openShardLogs(t, base, shards, opt)
	ss, err := NewSharded(ShardedConfig{Base: cfg, Shards: shards, Logs: logs, QueryHome: home})
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()

	out := diffOutcome{asof: map[string]string{}, perObject: map[string][]string{}}
	out.resps = driveDifferential(t, ss.Session(0), seed, 6, 40, objs)

	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	out.horizon = ss.HistoryHorizon()
	// Probe the whole keyspace at a spread of instants up to the horizon.
	for _, obj := range objs {
		for _, frac := range []timeseq.Time{0, 1, 2, 4} {
			at := out.horizon / (frac + 1)
			v, ok := ss.ValueAsOf(obj, at)
			if !ok {
				v = "?"
			}
			out.asof[fmt.Sprintf("%s@%d", obj, at)] = string(v)
		}
	}
	m := ss.MetricsSnapshot()
	out.applied = m.SamplesApplied
	out.queries = [4]uint64{m.QueriesIn, m.DeadlineHit, m.DeadlineMiss, m.NoDeadline}
	out.firings = m.RuleFirings
	if m.QueriesIn != m.QueriesAccounted() {
		t.Fatalf("shards=%d conservation: in=%d accounted=%d", shards, m.QueriesIn, m.QueriesAccounted())
	}
	ss.Stop()
	closeLogs(t, logs)

	// Recover each shard's WAL and extract the per-object sample sequences
	// — the ack order each object's writers observed, as made durable.
	for i := 0; i < shards; i++ {
		o := opt
		o.Dir = ShardDir(base, i, shards)
		l, err := wal.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		st := l.State()
		for name, img := range st.Images {
			var seq []string
			for _, s := range img.Samples {
				seq = append(seq, fmt.Sprintf("%d=%s", s.At, s.Value))
			}
			if _, dup := out.perObject[name]; dup {
				t.Fatalf("image %q recovered from two shards", name)
			}
			out.perObject[name] = seq
		}
		l.Close()
	}
	return out
}

// TestShardDifferential is the suite's centerpiece: shards=1 vs shards=8,
// same seed, every observable equal.
func TestShardDifferential(t *testing.T) {
	objs := shardObjects(16)
	const seed = 0x5eed
	one := runDifferential(t, 1, seed, objs)
	eight := runDifferential(t, 8, seed, objs)

	if len(one.resps) != len(eight.resps) {
		t.Fatalf("response counts differ: %d vs %d", len(one.resps), len(eight.resps))
	}
	for i := range one.resps {
		if !reflect.DeepEqual(one.resps[i], eight.resps[i]) {
			t.Errorf("response %d differs:\n shards=1: %+v\n shards=8: %+v", i, one.resps[i], eight.resps[i])
		}
	}
	if one.horizon != eight.horizon {
		t.Errorf("horizons differ: %d vs %d", one.horizon, eight.horizon)
	}
	for k, v1 := range one.asof {
		if v8, ok := eight.asof[k]; !ok || v8 != v1 {
			t.Errorf("as-of %s: shards=1 %q, shards=8 %q", k, v1, v8)
		}
	}
	if one.applied != eight.applied {
		t.Errorf("SamplesApplied differ: %d vs %d", one.applied, eight.applied)
	}
	if one.queries != eight.queries {
		t.Errorf("query accounting differs: %v vs %v", one.queries, eight.queries)
	}
	if one.firings != eight.firings {
		t.Errorf("rule firings differ: %d vs %d", one.firings, eight.firings)
	}
	for name, seq1 := range one.perObject {
		if !reflect.DeepEqual(seq1, eight.perObject[name]) {
			t.Errorf("per-object WAL order for %q differs:\n shards=1: %v\n shards=8: %v", name, seq1, eight.perObject[name])
		}
	}
	for name := range eight.perObject {
		if _, ok := one.perObject[name]; !ok {
			t.Errorf("object %q only present in the 8-shard WALs", name)
		}
	}
	// The workload actually spread: at 8 shards, more than one WAL
	// directory must hold samples (otherwise the differential proves
	// nothing about routing).
	if len(eight.perObject) < 2 {
		t.Fatalf("only %d objects recovered", len(eight.perObject))
	}
}

// TestShardDifferentialSeeds runs the same differential over a handful of
// seeds and shard counts — cheap insurance that the identity is not an
// artifact of one lucky interleaving.
func TestShardDifferentialSeeds(t *testing.T) {
	objs := shardObjects(12)
	for _, seed := range []int64{1, 7, 0xbeef} {
		for _, shards := range []int{2, 4} {
			one := runDifferential(t, 1, seed, objs)
			n := runDifferential(t, shards, seed, objs)
			if !reflect.DeepEqual(one.resps, n.resps) {
				t.Errorf("seed %#x shards %d: responses differ", seed, shards)
			}
			if one.applied != n.applied || one.queries != n.queries {
				t.Errorf("seed %#x shards %d: accounting differs (%d/%v vs %d/%v)",
					seed, shards, one.applied, one.queries, n.applied, n.queries)
			}
			if !reflect.DeepEqual(one.perObject, n.perObject) {
				t.Errorf("seed %#x shards %d: per-object WAL order differs", seed, shards)
			}
		}
	}
}
