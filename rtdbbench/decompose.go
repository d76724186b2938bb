package main

import (
	"sort"
	"time"

	"rtc/internal/rtwire"
)

// The layer decomposition of one request, from the spans the traced run
// recorded at the seams. For a query (or a commit probe's Flush) with
// root span [t0, t7] around the client call:
//
//	t1, t2  client.write of the request frame (start, end)
//	t3      server.read that completed the request frame
//	t4, t5  server.write that carried the reply frame (start, end)
//	t6      client.read that completed the reply frame
//
// The components are consecutive, so they add up to t7 − t0 exactly:
//
//	client_encode   t1 − t0   encode, client lock, pending-call registration
//	wire_in         t3 − t1   write syscall, loopback, server read wake-up
//	server window   t4 − t3   split below
//	reply_write     t5 − t4   the server's write syscall
//	wire_out        t6 − t5   loopback, client read wake-up
//	client_decode   t7 − t6   reply decode, dispatch, caller wake-up
//
// The server window is split by what the seams and the in-process probe
// measured, each clipped to what is left of the window: group-commit
// fsync wait (overlap with log.fsync spans), WAL append (overlap with
// log.write spans), server decode (rtwire decode time per frame),
// apply and evaluate (Session call on the quiet stack) and session-queue
// wait (the same call under load minus quiet). The rest of the window is
// the unattributed_us remainder row.
type decomposition struct {
	n       int
	missing int
	sum     map[string]float64
}

var decompRows = []string{
	"client_encode_us", "wire_in_us", "server_decode_us", "session_queue_wait_us",
	"apply_eval_us", "wal_append_us", "fsync_wait_us", "reply_write_us",
	"wire_out_us", "client_decode_us", "unattributed_us",
}

type spanKey struct {
	conn int8
	id   uint64
}

// intervals is one span kind's intervals, sorted and non-overlapping.
type intervals []span

// overlap is the total time the intervals cover inside [a, b].
func (iv intervals) overlap(a, b int64) int64 {
	i := sort.Search(len(iv), func(i int) bool { return iv[i].end > a })
	var total int64
	for ; i < len(iv) && iv[i].start < b; i++ {
		total += min(iv[i].end, b) - max(iv[i].start, a)
	}
	return total
}

// decompose adds the query and commit layer decompositions and the
// per-layer self times to the traced run's report rows.
func decompose(res *result, spans *spanLog, p *layerProbe, layers map[string]float64) {
	from := int64(res.rs.origin.Sub(spans.origin))
	all := spans.spans
	var (
		roots         = map[uint8][]int{}
		clientWrites  = map[int8][]int{} // request frames by conn, in start order
		serverReads   = map[spanKey]int{}
		serverWrites  = map[spanKey]int{}
		clientReads   = map[spanKey]int{}
		logW, logSync intervals
	)
	for i, s := range all {
		if s.start < from {
			continue
		}
		switch s.name {
		case spBenchQuery, spBenchCommit:
			roots[s.name] = append(roots[s.name], i)
		case spClientWrite:
			if s.kind == rtwire.KindQuery || s.kind == rtwire.KindFlush {
				clientWrites[s.conn] = append(clientWrites[s.conn], i)
			}
		case spServerRead:
			if s.kind == rtwire.KindQuery || s.kind == rtwire.KindFlush {
				serverReads[spanKey{s.conn, s.id}] = i
			}
		case spServerWrite:
			if isReply(s.kind) {
				serverWrites[spanKey{s.conn, s.id}] = i
			}
		case spClientRead:
			if isReply(s.kind) {
				clientReads[spanKey{s.conn, s.id}] = i
			}
		case spLogWrite:
			logW = append(logW, s)
		case spLogFsync:
			logSync = append(logSync, s)
		}
	}
	sortSpans(logW)
	sortSpans(logSync)
	for _, cw := range clientWrites {
		sort.Slice(cw, func(i, j int) bool { return all[cw[i]].start < all[cw[j]].start })
	}

	decodeUs := layers["rtwire.decode_ns_per_frame"] / 1e3
	queueUs := max(layers["server.queue_wait_us"], 0)
	// Apply and evaluate: the quiet stack's barrier (session hop and one
	// apply-loop step, no durability wait); a query adds its evaluation,
	// which the quiet Session.Query shows where no WAL wait is in it.
	applyUs := max(percentile(p.idleFlush, 50), 0)
	queryApplyUs := applyUs
	if !p.wal {
		queryApplyUs = max(percentile(p.idleQuery, 50), 0)
	}

	for _, c := range []struct {
		name  string
		root  uint8
		kind  rtwire.Kind
		apply float64
	}{
		{"query", spBenchQuery, rtwire.KindQuery, queryApplyUs},
		{"commit", spBenchCommit, rtwire.KindFlush, applyUs},
	} {
		d := decomposition{sum: map[string]float64{}}
		for _, ri := range roots[c.root] {
			r := &all[ri]
			cws := clientWrites[r.conn]
			j := sort.Search(len(cws), func(j int) bool { return all[cws[j]].start >= r.start })
			if j == len(cws) || all[cws[j]].start > r.end || all[cws[j]].kind != c.kind {
				d.missing++
				continue
			}
			cw := &all[cws[j]]
			key := spanKey{r.conn, cw.id}
			sri, ok1 := serverReads[key]
			swi, ok2 := serverWrites[key]
			cri, ok3 := clientReads[key]
			if !ok1 || !ok2 || !ok3 {
				d.missing++
				continue
			}
			sr, sw, cr := &all[sri], &all[swi], &all[cri]
			cw.parent, sr.parent, sw.parent, cr.parent = int32(ri), int32(ri), int32(ri), int32(ri)
			us := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }
			window := us(sw.start - sr.end)
			left := window
			take := func(v float64) float64 {
				v = min(max(v, 0), max(left, 0))
				left -= v
				return v
			}
			d.sum["fsync_wait_us"] += take(us(logSync.overlap(sr.end, sw.start)))
			d.sum["wal_append_us"] += take(us(logW.overlap(sr.end, sw.start)))
			d.sum["server_decode_us"] += take(decodeUs)
			d.sum["apply_eval_us"] += take(c.apply)
			d.sum["session_queue_wait_us"] += take(queueUs)
			d.sum["unattributed_us"] += left
			d.sum["client_encode_us"] += us(cw.start - r.start)
			d.sum["wire_in_us"] += us(sr.end - cw.start)
			d.sum["reply_write_us"] += us(sw.end - sw.start)
			d.sum["wire_out_us"] += us(cr.end - sw.end)
			d.sum["client_decode_us"] += us(r.end - cr.end)
			d.sum["total_us"] += us(r.end - r.start)
			d.n++
		}
		if d.n == 0 {
			continue
		}
		n := float64(d.n)
		res.diag("decomp."+c.name+".total_us", d.sum["total_us"]/n, "us",
			"mean over matched requests; the rows below add up to it")
		for _, k := range decompRows {
			res.diag("decomp."+c.name+"."+k, d.sum[k]/n, "us", "")
		}
		res.diag("decomp."+c.name+".matched", n, "count", "")
		res.diag("decomp."+c.name+".unmatched", float64(d.missing), "count", "roots whose seam spans were not all found")
		mean := func(k string) float64 { return d.sum[k] / n }
		res.diag("self."+c.name+".client_us", mean("client_encode_us")+mean("client_decode_us"), "us", "per-layer self time")
		res.diag("self."+c.name+".wire_us", mean("wire_in_us")+mean("wire_out_us"), "us", "")
		res.diag("self."+c.name+".server_us", mean("server_decode_us")+mean("session_queue_wait_us")+mean("apply_eval_us")+mean("unattributed_us"), "us", "")
		res.diag("self."+c.name+".log_us", mean("wal_append_us")+mean("fsync_wait_us"), "us", "")
		res.diag("self."+c.name+".reply_write_us", mean("reply_write_us"), "us", "")
	}
	var due []float64
	for i, s := range all {
		if s.name == spBenchCommitDue && s.start >= from {
			due = append(due, float64(all[i].end-all[i].start)/float64(time.Microsecond))
		}
	}
	res.diag("decomp.commit.probe_late_us", percentile(due, 50), "us", "median probe start past its tick (outside the rows above)")
}

func isReply(k rtwire.Kind) bool {
	return k == rtwire.KindResult || k == rtwire.KindFlushed || k == rtwire.KindErr
}
