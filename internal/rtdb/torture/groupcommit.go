package torture

import (
	"errors"
	"fmt"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
)

// ModeGroupCommit tortures the leader-based group-commit path: appends
// enqueue commit tickets behind a commit window and crash/EIO faults are
// armed at every point inside the batch, so the whole-batch failure
// semantics (one fsync covers many acks; one fault poisons them all) are
// exercised at every op the batch performs.
const ModeGroupCommit Mode = "groupcommit"

// groupBatchEvery is the driver's fsync cadence: the workload appends
// tickets and issues one explicit Sync per this many appends, so a sweep
// point knows exactly which tickets each covering fsync acknowledged.
const groupBatchEvery = 4

// groupWindow is deliberately longer than any sweep run: the batch leaders
// park on their timers and every fsync in the op stream is the driver's
// own, keeping the fault points deterministic in filesystem-op counts.
const groupWindow = time.Hour

// GroupCommitSweep is the group-commit variant of the crash and EIO
// sweeps. Appends go through AppendTicket into hour-long commit windows;
// the driver fsyncs every groupBatchEvery appends, so each fault point
// lands somewhere inside a batch: before its frames, between them, or on
// the covering fsync itself. The invariants are the grouped durability
// contract:
//
//   - every ticket resolves (crash, poison, or commit — never a hang),
//   - tickets resolved nil form a prefix of issue order (a batch never
//     commits over an earlier uncommitted one),
//   - acked ≤ n ≤ issued+1: no nil-resolved ticket's event is lost, and
//     nothing resurrects beyond the issued suffix,
//   - n − acked ≤ groupBatchEvery+1: at most one unacked batch window
//     (plus the in-flight frame) survives the cut,
//   - transient EIO inside a batch heals without poisoning, and the final
//     fsync releases every surviving ticket nil.
func (c Config) GroupCommitSweep() *Report {
	c.defaults()
	c.GroupWindow = groupWindow
	events := Workload(c.Seed, c.Events)

	// Probe the faultless grouped run once to learn the EIO half's write
	// count.
	probe := faultfs.NewMem(pointSeed(c.Seed, 0))
	l, err := wal.Open(c.walOptions(probe))
	if err != nil {
		return c.probeFailed(ModeGroupCommit, "%v", err)
	}
	issued := 0
	for _, e := range events {
		if _, err := l.AppendTicket(e, false); err != nil {
			return c.probeFailed(ModeGroupCommit, "faultless probe append failed: %v", err)
		}
		if issued++; issued%groupBatchEvery == 0 {
			if err := l.Sync(); err != nil {
				return c.probeFailed(ModeGroupCommit, "faultless probe sync failed: %v", err)
			}
		}
	}
	writes := probe.Writes()
	l.Close()

	return c.sweep(&Report{}, fmt.Sprintf("groupcommit sweep: writes=%d", writes),
		// Crash half: power cut at every Stride-th mutating op.
		pass{point: func(at uint64) (bool, *Failure) { return c.groupCrashPoint(events, at) }},
		// EIO half: one transient write fault at every Stride-th data write.
		pass{last: writes, point: func(at uint64) (bool, *Failure) { return false, c.groupEIOPoint(events, at) }},
	)
}

// groupCrashPoint runs one grouped workload with a power cut armed at
// mutating op `at`. done reports that `at` lies beyond the workload.
func (c Config) groupCrashPoint(events []wal.Event, at uint64) (done bool, fail *Failure) {
	mem := faultfs.NewMem(pointSeed(c.Seed, at))
	pt := c.fault(ModeGroupCommit, at, mem)
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return false, pt.fail("initial Open: %v", err)
	}
	mem.CrashAt(at)
	var tickets []*wal.Ticket
	for _, e := range events {
		t, err := l.AppendTicket(e, false)
		if err != nil {
			break
		}
		tickets = append(tickets, t)
		if len(tickets)%groupBatchEvery == 0 {
			if err := l.Sync(); err != nil {
				break
			}
		}
	}
	dead := mem.Dead()
	// Close resolves every outstanding ticket: on a dead filesystem its
	// fsync fails and the whole tail releases with the error; on a live one
	// it commits the tail. Either way no leader goroutine outlives the
	// point parked on an hour-long window.
	_ = l.Close()
	if !dead {
		// The fault point lies beyond the workload's op count.
		return true, nil
	}
	mem.Crash()

	// Every ticket must have resolved, and the nil resolutions must form a
	// prefix of issue order: a later batch committing over an earlier
	// uncommitted one would reorder durability.
	issued := len(tickets)
	acked, firstErr := 0, -1
	for i, t := range tickets {
		if !t.Resolved() {
			return false, pt.fail("ticket %d (seq %d) never resolved after the cut", i, t.Seq())
		}
		if t.Wait() == nil {
			if firstErr >= 0 {
				return false, pt.fail("nil-resolved tickets not a prefix: ticket %d committed after ticket %d failed", i, firstErr)
			}
			acked++
		} else if firstErr < 0 {
			firstErr = i
		}
	}

	l2, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return false, pt.fail("recovery Open after crash: %v", err)
	}
	defer l2.Close()
	n := int(l2.State().Events)
	switch {
	case n < acked:
		return false, pt.fail("recovered %d events but %d tickets committed (durability lost)", n, acked)
	case n > issued+1:
		return false, pt.fail("recovered %d events but only %d were issued before the cut (resurrection)", n, issued+1)
	case n-acked > groupBatchEvery+1:
		return false, pt.fail("recovered %d events with only %d acked: more than one batch window survived unacked", n, acked)
	}
	if ds, sq := l2.DurableSeq(), l2.Seq(); ds != sq {
		return false, pt.fail("recovered log's durable tail %d != tail %d", ds, sq)
	}
	want := Reference(events[:n])
	if d := want.Diff(l2.State()); d != "" {
		return false, pt.fail("recovery invariant violated at prefix %d: %s", n, d)
	}

	// Idempotent: a second Open reproduces the identical state.
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

	// Live: a grouped append past the crash lands and commits via Sync.
	if n >= 2 { // catalog prologue replayed, image exists
		t, err := l3.AppendTicket(wal.Sample(want.LastAt+1, "temp", "post-crash"), false)
		if err != nil {
			return false, pt.fail("append after recovery: %v", err)
		}
		if err := l3.Sync(); err != nil {
			return false, pt.fail("sync after recovery: %v", err)
		}
		if err := t.Wait(); err != nil {
			return false, pt.fail("post-crash ticket resolved %v after a clean sync", err)
		}
	}
	return false, nil
}

// groupEIOPoint injects one transient fault — alternating torn short write
// and plain EIO — into data write `at` of the grouped workload. The log
// must heal without poisoning the batch, and the final fsync must release
// every surviving ticket nil.
func (c Config) groupEIOPoint(events []wal.Event, at uint64) *Failure {
	mem := faultfs.NewMem(pointSeed(c.Seed, at))
	pt := c.fault(ModeGroupCommit, at, mem)
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
	var tickets []*wal.Ticket
	faulted := 0
	for _, e := range events {
		t, err := l.AppendTicket(e, false)
		switch {
		case err == nil:
			acked = append(acked, e)
			tickets = append(tickets, t)
			if len(tickets)%groupBatchEvery == 0 {
				if err := l.Sync(); err != nil {
					return pt.fail("sync failed after heal: %v", err)
				}
			}
		case errors.Is(err, faultfs.ErrInjected):
			faulted++
		case faulted > 0:
			// The fault may have cost a catalog event; later events that
			// depend on it are rightly rejected by validation.
		default:
			return pt.fail("append returned unexpected error: %v", err)
		}
	}
	// The final fsync covers the tail batch: every ticket must resolve nil
	// — a healed transient fault never fails a committed neighbor.
	if err := l.Sync(); err != nil {
		return pt.fail("final sync: %v", err)
	}
	for i, t := range tickets {
		if !t.Resolved() {
			return pt.fail("ticket %d (seq %d) unresolved after final sync", i, t.Seq())
		}
		if err := t.Wait(); err != nil {
			return pt.fail("ticket %d (seq %d) resolved %v; the transient fault leaked into the batch", i, t.Seq(), err)
		}
	}
	if perr := l.Err(); perr != nil {
		return pt.fail("transient fault poisoned the log: %v", perr)
	}
	if faulted > 1 {
		return pt.fail("one injected write fault surfaced %d append errors", faulted)
	}
	if st := l.Stats(); st.GroupCommits == 0 {
		return pt.fail("grouped run recorded zero group commits (%d appends)", st.Appends)
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
