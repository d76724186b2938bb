package torture

import (
	"fmt"
	"math/rand/v2"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// ModeShard power-cuts ONE shard's WAL at every fault point of a sharded
// deployment while the other shards keep committing, then recovers every
// shard and checks the sharded durability invariants.
const ModeShard Mode = "shard"

// shardSalt decorrelates the per-shard filesystems of one fault point.
func shardSalt(shard int) uint64 { return 0x100000001b3 * uint64(shard+1) }

// shardWorkload is the seeded event stream of one sharded run, pre-routed:
// step i carries the events issued at step i for each shard. A sample or
// firing lands on its object's owner (rtwire.ShardOf — the same placement
// clients compute); an invariant overwrite is broadcast to every shard,
// exactly as splitSpec replicates invariants.
type shardWorkload struct {
	objects []string
	owner   []int          // objects[i] -> owning shard
	steps   [][]shardEvent // per step, the routed events
}

type shardEvent struct {
	shard int
	e     wal.Event
}

// makeShardWorkload builds the routed workload: a per-shard catalog
// prologue (shared invariant + owned images), then n seeded steps mixing
// samples, invariant broadcasts, and rule firings across a keyspace wide
// enough that every shard owns at least one object.
func makeShardWorkload(seed uint64, n, shards int) *shardWorkload {
	w := &shardWorkload{}
	for i := 0; len(w.objects) < 3*shards; i++ {
		w.objects = append(w.objects, fmt.Sprintf("obj-%02d", i))
	}
	for _, o := range w.objects {
		w.owner = append(w.owner, int(rtwire.ShardOf(o, shards)))
	}

	// Prologue: every shard gets the invariant; each image goes to its
	// owner. One prologue step per event keeps fault points fine-grained.
	broadcast := func(e wal.Event) {
		var step []shardEvent
		for s := 0; s < shards; s++ {
			step = append(step, shardEvent{shard: s, e: e})
		}
		w.steps = append(w.steps, step)
	}
	broadcast(wal.Invariant("limit", "22"))
	for i, o := range w.objects {
		w.steps = append(w.steps, []shardEvent{{shard: w.owner[i], e: wal.Image(o, timeseq.Time(3+i%5))}})
	}

	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	at := timeseq.Time(0)
	for i := 0; i < n; i++ {
		at += timeseq.Time(rng.IntN(3))
		oi := rng.IntN(len(w.objects))
		switch rng.IntN(12) {
		case 0:
			w.steps = append(w.steps, []shardEvent{{shard: w.owner[oi], e: wal.Firing(at, "alarm")}})
		case 1:
			broadcast(wal.Invariant("limit", fmt.Sprintf("%d", 20+rng.IntN(5))))
		default:
			w.steps = append(w.steps, []shardEvent{{shard: w.owner[oi], e: wal.Sample(at, w.objects[oi], fmt.Sprintf("v%d", i))}})
		}
	}
	return w
}

// ShardSweep runs the sharded variant of the crash sweep. For every victim
// shard in turn, it arms a power cut at every Stride-th mutating
// filesystem operation of that shard's WAL, drives the routed workload —
// the surviving shards keep committing after the victim dies — and at each
// point asserts:
//
//   - per-shard durability: the victim recovers acked ≤ n ≤ acked+1 of the
//     events issued to it, deep-equal to the reference prefix; every
//     survivor recovers exactly its acked events,
//   - cross-shard sum conservation: Σ recovered lies within
//     [Σ acked, Σ acked + 1] — only the victim's single in-flight append
//     may exceed its acks,
//   - no horizon regression: the group's consistent horizon (min over
//     shards of the recovered last chronon) is never behind the horizon
//     computed from acknowledged writes,
//   - liveness: the recovered victim accepts a post-crash append.
func (c Config) ShardSweep() *Report {
	c.defaults()
	if c.Shards <= 0 {
		c.Shards = 4
	}
	victims := make([]int, 0, c.Shards)
	if c.At > 0 {
		victims = append(victims, c.Victim%c.Shards)
	} else {
		for v := 0; v < c.Shards; v++ {
			victims = append(victims, v)
		}
	}
	w := makeShardWorkload(c.Seed, c.Events, c.Shards)
	passes := make([]pass, len(victims))
	for i, victim := range victims {
		passes[i].point = func(at uint64) (bool, *Failure) { return c.shardPoint(w, victim, at) }
	}
	return c.sweep(&Report{}, fmt.Sprintf("shard sweep: shards=%d", c.Shards), passes...)
}

// shardPoint runs one routed workload with a power cut armed at mutating
// op `at` of the victim shard's filesystem. done reports that `at` lies
// beyond the victim's op count (this victim's sweep is complete).
func (c Config) shardPoint(w *shardWorkload, victim int, at uint64) (done bool, fail *Failure) {
	mems := make([]*faultfs.Mem, c.Shards)
	logs := make([]*wal.Log, c.Shards)
	for s := 0; s < c.Shards; s++ {
		mems[s] = faultfs.NewMem(pointSeed(c.Seed, at) ^ shardSalt(s))
	}
	pt := c.fault(ModeShard, at, mems[victim])
	pt.Victim = victim
	for s := 0; s < c.Shards; s++ {
		l, err := wal.Open(c.walOptions(mems[s]))
		if err != nil {
			return false, pt.fail("shard %d Open: %v", s, err)
		}
		logs[s] = l
	}
	mems[victim].CrashAt(at)

	// Drive the routed workload. The victim's first failed append kills it
	// (power cut); every other shard must keep acking to the end.
	issued := make([][]wal.Event, c.Shards) // per-shard issue order
	acked := make([]int, c.Shards)
	ackedAt := make([]timeseq.Time, c.Shards) // last acked chronon per shard
	victimDead := false
	for _, step := range w.steps {
		for _, se := range step {
			if se.shard == victim && victimDead {
				continue
			}
			issued[se.shard] = append(issued[se.shard], se.e)
			if err := logs[se.shard].Append(se.e); err != nil {
				if se.shard != victim {
					return false, pt.fail("survivor shard %d append failed: %v", se.shard, err)
				}
				victimDead = true
				continue
			}
			acked[se.shard]++
			if se.e.At > ackedAt[se.shard] {
				ackedAt[se.shard] = se.e.At
			}
		}
	}
	if !mems[victim].Dead() {
		// The fault point lies beyond this victim's op count.
		for _, l := range logs {
			l.Close()
		}
		return true, nil
	}
	mems[victim].Crash()

	// Survivors shut down cleanly; the victim's handle is garbage now (its
	// filesystem is dead), recovery below reopens from the crash image.
	ackedSum, recoveredSum := 0, 0
	ackHorizon := timeseq.Time(1<<62 - 1)
	recHorizon := timeseq.Time(1<<62 - 1)
	for s := 0; s < c.Shards; s++ {
		ackedSum += acked[s]
		if ackedAt[s] < ackHorizon {
			ackHorizon = ackedAt[s]
		}
		if s != victim {
			if err := logs[s].Close(); err != nil {
				return false, pt.fail("survivor shard %d close: %v", s, err)
			}
		}
	}

	for s := 0; s < c.Shards; s++ {
		l2, err := wal.Open(c.walOptions(mems[s]))
		if err != nil {
			return false, pt.fail("shard %d recovery Open: %v", s, err)
		}
		st := l2.State()
		n := int(st.Events)
		recoveredSum += n
		if st.LastAt < recHorizon {
			recHorizon = st.LastAt
		}
		switch {
		case s == victim && !c.NoSync && n < acked[s]:
			l2.Close()
			return false, pt.fail("victim recovered %d events but %d were acked+fsynced (durability lost)", n, acked[s])
		case s == victim && n > acked[s]+1:
			l2.Close()
			return false, pt.fail("victim recovered %d events but only %d were issued before the cut (resurrection)", n, acked[s]+1)
		case s != victim && n != acked[s]:
			l2.Close()
			return false, pt.fail("survivor shard %d recovered %d events, acked %d — survivors must be exact", s, n, acked[s])
		case n > len(issued[s]):
			l2.Close()
			return false, pt.fail("shard %d recovered %d events, only %d issued", s, n, len(issued[s]))
		}
		want := Reference(issued[s][:n])
		if d := want.Diff(st); d != "" {
			l2.Close()
			return false, pt.fail("shard %d recovery invariant violated at prefix %d: %s", s, n, d)
		}
		if s == victim {
			// Liveness: the recovered victim takes a post-crash append for
			// an image it already knows about.
			for name := range st.Images {
				if err := l2.Append(wal.Sample(st.LastAt+1, name, "post-crash")); err != nil {
					l2.Close()
					return false, pt.fail("victim append after recovery: %v", err)
				}
				break
			}
		}
		if err := l2.Close(); err != nil {
			return false, pt.fail("shard %d close after recovery: %v", s, err)
		}
	}

	// Cross-shard sum conservation: the group as a whole may exceed its
	// acknowledged writes by at most the victim's single in-flight append.
	if recoveredSum < ackedSum || recoveredSum > ackedSum+1 {
		return false, pt.fail("cross-shard sum conservation violated: recovered %d, acked %d", recoveredSum, ackedSum)
	}
	// No horizon regression: every acknowledged write is durable, so the
	// consistent horizon recomputed from the recovered shards can never be
	// behind the horizon the group had acknowledged.
	if recHorizon < ackHorizon {
		return false, pt.fail("consistent horizon regressed: acked %d, recovered %d", ackHorizon, recHorizon)
	}
	return false, nil
}
