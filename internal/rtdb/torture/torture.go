// Package torture crash-tortures the rtdbd durability layer: it drives the
// write-ahead log (internal/rtdb/log) over the injectable filesystem
// (internal/faultfs) through seeded workloads, kills it at every Nth
// mutating operation across a sweep of fault points — power cuts with torn
// and dropped unsynced writes, transient EIO, short writes, rename
// failures — then recovers and asserts the recovery invariant:
//
//	recovered state ≡ reference(events[:n])  (deep-equal)
//	acked ≤ n ≤ acked+1                      (with per-append fsync)
//
// where acked counts the appends that returned nil. Every append the log
// acknowledged survives the crash; at most the single in-flight event may
// additionally appear; nothing else — no reordering, no partial applies, no
// resurrection of healed frames. Recovery is additionally checked to be
// idempotent (a second Open deep-equals the first) and live (a
// post-recovery append lands).
//
// Everything is deterministic from a seed: a failing fault point prints a
// one-command reproduction (cmd/rttorture -mode M -seed S -at K) and
// carries the post-crash segment images so they can seed the log package's
// segment fuzz corpus.
package torture

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

// Mode names one fault family of the sweep.
type Mode string

// The sweep modes. ModeAll is accepted by cmd/rttorture and fans out to
// every family plus the server chaos run.
const (
	ModeCrash  Mode = "crash"  // op-count power cut; unsynced data dropped or torn
	ModeEIO    Mode = "eio"    // transient EIO / short write on one data write
	ModeRename Mode = "rename" // one snapshot rename fails
	ModeChaos  Mode = "chaos"  // concurrent server under mid-apply-loop faults
)

// Config parameterizes one sweep.
type Config struct {
	// Seed drives the workload and every per-point crash materialization.
	Seed uint64
	// Events is the workload length (default 90).
	Events int
	// Stride tests every Stride-th fault point (default 1: all of them).
	Stride int
	// At, when nonzero, tests exactly one fault point — the reproduction
	// path for a failure printed by a sweep.
	At uint64
	// Shards is the deployment width of the shard sweep (default 4).
	Shards int
	// Victim selects which shard's WAL takes the power cut when At pins a
	// single shard-sweep fault point; the full sweep rotates every victim.
	Victim int
	// SegmentSize (default 2048) is kept small so rotation is exercised.
	SegmentSize int64
	// SnapshotEvery (default 32 appends) keeps snapshot + rename traffic
	// inside the fault window.
	SnapshotEvery uint64
	// NoSync disables per-append fsync; the invariant then weakens to
	// "recovered state is a prefix of the issued events" (0 ≤ n ≤ issued).
	NoSync bool
	// GroupWindow, when > 0, enables leader-based group commit on every WAL
	// the sweep opens (wal.Options.GroupWindow): appends batch their fsyncs
	// behind a commit window instead of paying one each.
	GroupWindow time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Events <= 0 {
		c.Events = 90
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 2048
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 32
	}
}

// Failure is one fault point whose recovery violated the invariant.
type Failure struct {
	Mode   Mode
	Seed   uint64
	At     uint64 // fault point: mutating-op / write / rename index
	Events int
	Victim int // shard whose WAL took the cut (shard mode only)
	Detail string
	// Segments holds the post-crash byte images of the WAL directory's
	// files, exportable as fuzz corpus seeds (cmd/rttorture -corpus).
	Segments map[string][]byte
}

// Repro renders the one-command reproduction for this failure.
func (f Failure) Repro() string {
	s := fmt.Sprintf("go run ./cmd/rttorture -mode %s -seed %d -at %d -events %d", f.Mode, f.Seed, f.At, f.Events)
	if f.Mode == ModeShard {
		s += fmt.Sprintf(" -victim %d", f.Victim)
	}
	return s
}

func (f Failure) String() string {
	return fmt.Sprintf("FAIL mode=%s seed=%d at=%d: %s\n  repro: %s", f.Mode, f.Seed, f.At, f.Detail, f.Repro())
}

// Report aggregates one or more sweeps.
type Report struct {
	Points     int // fault points exercised
	Recoveries int // recoveries that passed every invariant
	Failures   []Failure
	// Streams holds reader-visible malformed byte streams the network
	// fault sweep captured (cut prefixes, post-drop desyncs, corrupted
	// frames), keyed by their fault point — exportable as rtwire
	// frame-fuzzer corpus seeds (cmd/rttorture -corpus). Collected on
	// passing points too: a stream the codec survived is still a seed.
	Streams map[string][]byte
}

// Merge folds another report into r.
func (r *Report) Merge(o *Report) {
	r.Points += o.Points
	r.Recoveries += o.Recoveries
	r.Failures = append(r.Failures, o.Failures...)
	for k, v := range o.Streams {
		if r.Streams == nil {
			r.Streams = make(map[string][]byte)
		}
		r.Streams[k] = v
	}
}

// Ok reports a clean sweep.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// pass is one walk over a sweep's fault points: point runs the workload
// with its fault armed at `at`, and last bounds the walk (0: until point
// reports done — the fault point lies past the workload).
type pass struct {
	last  uint64
	point func(at uint64) (done bool, fail *Failure)
}

// sweep is the one point loop every sweep drives. Each pass walks fault
// points 1, 1+Stride, ... through its bound — or exactly At, the one-point
// reproduction — and every outcome is tallied into rep. The summary line
// goes to Logf under label.
func (c Config) sweep(rep *Report, label string, passes ...pass) *Report {
	for _, ps := range passes {
		start := uint64(1)
		if c.At > 0 {
			start = c.At
		}
		for at := start; ps.last == 0 || at <= ps.last; at += uint64(c.Stride) {
			done, fail := ps.point(at)
			if done {
				break
			}
			rep.Points++
			if fail != nil {
				rep.Failures = append(rep.Failures, *fail)
			} else {
				rep.Recoveries++
			}
			if c.At > 0 {
				break
			}
		}
	}
	if c.Logf != nil {
		streams := ""
		if rep.Streams != nil {
			streams = fmt.Sprintf(" streams=%d", len(rep.Streams))
		}
		c.Logf("%s seed=%d points=%d recoveries=%d failures=%d%s",
			label, c.Seed, rep.Points, rep.Recoveries, len(rep.Failures), streams)
	}
	return rep
}

// fault names one fault point; its fail method is the one constructor
// every point reports failures through. The post-fault segments of mem (if
// any) ride along as fuzz seeds, and tag prefixes the detail.
type fault struct {
	Failure
	mem *faultfs.Mem
	tag string
}

// probeFailed reports a sweep whose faultless probe run failed.
func (c Config) probeFailed(mode Mode, format string, args ...any) *Report {
	return &Report{Failures: []Failure{*c.fault(mode, 0, nil).fail(format, args...)}}
}

// fault names fault point at of this sweep in the given mode.
func (c Config) fault(mode Mode, at uint64, mem *faultfs.Mem) *fault {
	return &fault{Failure: Failure{Mode: mode, Seed: c.Seed, At: at, Events: c.Events}, mem: mem}
}

func (f *fault) fail(format string, args ...any) *Failure {
	out := f.Failure
	out.Detail = f.tag + fmt.Sprintf(format, args...)
	if f.mem != nil {
		out.Segments = dumpSegments(f.mem)
	}
	return &out
}

const walDir = "wal"

// Workload generates the seeded event sequence a sweep replays at every
// fault point: a catalog prologue, then a mix of samples across three
// image objects, invariant overwrites, rule firings, and query issues with
// randomized §4.1 deadline envelopes.
func Workload(seed uint64, n int) []wal.Event {
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	images := []string{"temp", "press", "flow"}
	events := []wal.Event{
		wal.Invariant("limit", "22"),
		wal.Image("temp", 5),
		wal.Image("press", 3),
		wal.Image("flow", 7),
		wal.Derived("status", "temp", "limit"),
	}
	at := timeseq.Time(0)
	for i := 0; i < n; i++ {
		at += timeseq.Time(rng.IntN(3))
		switch rng.IntN(12) {
		case 0:
			events = append(events, wal.Firing(at, "alarm"))
		case 1:
			events = append(events, wal.Query(at, fmt.Sprintf("s%d", rng.IntN(4)), "status_q", "ok",
				uint64(rng.IntN(3)), uint64(rng.IntN(8)), uint64(rng.IntN(4))))
		case 2:
			events = append(events, wal.Invariant("limit", fmt.Sprintf("%d", 20+rng.IntN(5))))
		default:
			events = append(events, wal.Sample(at, images[rng.IntN(len(images))], fmt.Sprintf("v%d", i)))
		}
	}
	return events
}

// Reference replays events into a fresh state — the ground truth every
// recovery is compared against.
func Reference(events []wal.Event) *wal.State {
	st := wal.NewState()
	for _, e := range events {
		if err := st.Apply(e); err != nil {
			panic(fmt.Sprintf("torture: reference workload invalid: %v", err))
		}
	}
	return st
}

// pointSeed mixes the sweep seed with a fault point so each point explores
// a different crash materialization while staying reproducible.
func pointSeed(seed, at uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(at+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func (c Config) walOptions(fs faultfs.FS) wal.Options {
	return wal.Options{
		Dir: walDir, FS: fs,
		SegmentSize:   c.SegmentSize,
		SnapshotEvery: c.SnapshotEvery,
		Sync:          !c.NoSync,
		GroupWindow:   c.GroupWindow,
	}
}

// dumpSegments snapshots the WAL directory's current file images.
func dumpSegments(mem *faultfs.Mem) map[string][]byte {
	out := map[string][]byte{}
	names, err := mem.ReadDir(walDir)
	if err != nil {
		return out
	}
	for _, name := range names {
		out[name] = mem.DumpFile(walDir + "/" + name)
	}
	return out
}

// CrashSweep power-cuts the log at every Stride-th mutating filesystem
// operation, recovers from the materialized crash image, and checks the
// recovery invariant at each point. It returns once the fault point moves
// past the workload's total op count.
func (c Config) CrashSweep() *Report {
	c.defaults()
	events := Workload(c.Seed, c.Events)
	return c.sweep(&Report{}, "crash sweep:", pass{point: func(at uint64) (bool, *Failure) {
		return c.crashPoint(events, at)
	}})
}

// crashPoint runs one workload with a power cut armed at mutating op `at`.
// done reports that `at` lies beyond the workload (sweep complete).
func (c Config) crashPoint(events []wal.Event, at uint64) (done bool, fail *Failure) {
	mem := faultfs.NewMem(pointSeed(c.Seed, at))
	pt := c.fault(ModeCrash, at, mem)
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return false, pt.fail("initial Open: %v", err)
	}
	mem.CrashAt(at)
	acked := 0
	for _, e := range events {
		if err := l.Append(e); err != nil {
			break
		}
		acked++
	}
	if !mem.Dead() {
		// The fault point lies beyond the workload's op count.
		l.Close()
		return true, nil
	}
	mem.Crash()

	l2, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return false, pt.fail("recovery Open after crash: %v", err)
	}
	defer l2.Close()
	n := int(l2.State().Events)
	switch {
	case !c.NoSync && n < acked:
		return false, pt.fail("recovered %d events but %d were acked+fsynced (durability lost)", n, acked)
	case n > acked+1:
		return false, pt.fail("recovered %d events but only %d were issued before the cut (resurrection)", n, acked+1)
	case n > len(events):
		return false, pt.fail("recovered %d events, workload only has %d", n, len(events))
	}
	want := Reference(events[:n])
	if d := want.Diff(l2.State()); d != "" {
		return false, pt.fail("recovery invariant violated at prefix %d: %s", n, d)
	}

	// Recovery is idempotent: the first Open normalized the torn tail, so
	// a second one must reproduce the identical state.
	if err := l2.Close(); err != nil {
		return false, pt.fail("close after recovery: %v", err)
	}
	l3, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return false, pt.fail("second recovery Open: %v", err)
	}
	defer l3.Close()
	if d := want.Diff(l3.State()); d != "" {
		return false, pt.fail("recovery not idempotent: %s", d)
	}

	// The recovered log is live: an append past the crash lands and is
	// itself recoverable.
	post := wal.Sample(want.LastAt+1, "temp", "post-crash")
	if n >= 2 { // catalog prologue replayed, image exists
		if err := l3.Append(post); err != nil {
			return false, pt.fail("append after recovery: %v", err)
		}
	}
	return false, nil
}

// EIOSweep injects one transient fault — alternating plain EIO and a torn
// short write — into every Stride-th data write of the workload. The log
// must heal (or, for faults on snapshot writes, defer the snapshot), stay
// unpoisoned, acknowledge every other append, and recover to exactly the
// acknowledged events.
func (c Config) EIOSweep() *Report {
	c.defaults()
	events := Workload(c.Seed, c.Events)

	// Probe the faultless run once to learn the write count.
	probe := faultfs.NewMem(pointSeed(c.Seed, 0))
	l, err := wal.Open(c.walOptions(probe))
	if err != nil {
		return c.probeFailed(ModeEIO, "%v", err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			return c.probeFailed(ModeEIO, "faultless probe append failed: %v", err)
		}
	}
	writes := probe.Writes()
	l.Close()

	return c.sweep(&Report{}, fmt.Sprintf("eio sweep: writes=%d", writes), pass{
		last:  writes,
		point: func(at uint64) (bool, *Failure) { return false, c.eioPoint(events, at) },
	})
}

func (c Config) eioPoint(events []wal.Event, at uint64) *Failure {
	mem := faultfs.NewMem(pointSeed(c.Seed, at))
	pt := c.fault(ModeEIO, at, mem)
	if at%2 == 0 {
		mem.TearWrite(at)
	} else {
		mem.FailWrite(at)
	}
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return pt.fail("Open: %v", err)
	}
	var acked []wal.Event
	faulted := 0
	for _, e := range events {
		err := l.Append(e)
		switch {
		case err == nil:
			acked = append(acked, e)
		case errors.Is(err, faultfs.ErrInjected):
			faulted++
		case faulted > 0:
			// The fault may have cost a catalog event (an image or derived
			// registration); later events depending on it are then rightly
			// rejected by validation — neither acked nor applied.
		default:
			return pt.fail("append returned unexpected error: %v", err)
		}
	}
	if perr := l.Err(); perr != nil {
		return pt.fail("transient fault poisoned the log: %v", perr)
	}
	if faulted > 1 {
		return pt.fail("one injected write fault surfaced %d append errors", faulted)
	}
	want := Reference(acked)
	if d := want.Diff(l.State()); d != "" {
		return pt.fail("live state after heal: %s", d)
	}
	if err := l.Close(); err != nil {
		return pt.fail("close: %v", err)
	}
	l2, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return pt.fail("recovery Open: %v", err)
	}
	defer l2.Close()
	if d := want.Diff(l2.State()); d != "" {
		return pt.fail("recovered state != acked events: %s", d)
	}
	return nil
}

// RenameSweep fails each snapshot's tmp→snap rename in turn. Appends must
// be unaffected (snapshots are accelerators), the failure must be counted,
// and recovery — served by an older snapshot or a full replay — must still
// reconstruct every event.
func (c Config) RenameSweep() *Report {
	c.defaults()
	events := Workload(c.Seed, c.Events)

	probe := faultfs.NewMem(pointSeed(c.Seed, 0))
	l, err := wal.Open(c.walOptions(probe))
	if err != nil {
		return c.probeFailed(ModeRename, "%v", err)
	}
	for _, e := range events {
		l.Append(e)
	}
	renames := probe.Renames()
	l.Close()

	// Every rename is swept regardless of Stride: a workload has only a
	// handful of snapshots.
	c.Stride = 1
	return c.sweep(&Report{}, fmt.Sprintf("rename sweep: renames=%d", renames), pass{
		last:  renames,
		point: func(at uint64) (bool, *Failure) { return false, c.renamePoint(events, at) },
	})
}

func (c Config) renamePoint(events []wal.Event, at uint64) *Failure {
	mem := faultfs.NewMem(pointSeed(c.Seed, at))
	pt := c.fault(ModeRename, at, mem)
	mem.FailRename(at)
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return pt.fail("Open: %v", err)
	}
	for i, e := range events {
		if err := l.Append(e); err != nil {
			return pt.fail("append %d failed under a rename fault: %v", i, err)
		}
	}
	if st := l.Stats(); st.SnapshotErrors == 0 {
		return pt.fail("rename fault was never counted (SnapshotErrors=0, %d snapshots)", st.Snapshots)
	}
	if err := l.Close(); err != nil {
		return pt.fail("close: %v", err)
	}
	want := Reference(events)
	l2, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return pt.fail("recovery Open: %v", err)
	}
	defer l2.Close()
	if d := want.Diff(l2.State()); d != "" {
		return pt.fail("recovered state after failed snapshot rename: %s", d)
	}
	return nil
}
