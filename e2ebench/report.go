package main

import (
	"fmt"
	"sort"
	"time"
)

// compute derives every metric of the run from the op records, the counter
// snapshots taken at the window's edges and after the readback, the
// readback's reads, and the churn records.
func (r *report) compute(ops []opRecord, setups []time.Duration, start, end time.Time, before, after, readEnd counters, ch *churner, tr *tracer) {
	var writes, reads []timed
	var calls, lateness, sessionWait []time.Duration
	var acks []time.Time
	for _, op := range ops {
		if op.warm {
			continue
		}
		r.Buckets.add(op.bucket)
		if !op.started.IsZero() {
			lateness = append(lateness, op.started.Sub(op.intended))
		}
		if !op.sent.IsZero() {
			sessionWait = append(sessionWait, op.sent.Sub(op.started))
		}
		t := timed{at: op.intended.Sub(start), lat: op.done.Sub(op.intended), ok: op.bucket == bucketAcked}
		if op.read {
			reads = append(reads, t)
		} else {
			writes = append(writes, t)
		}
		if !t.ok {
			continue
		}
		calls = append(calls, op.done.Sub(op.sent))
		acks = append(acks, op.done)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	r.BucketMap = map[string]int64{}
	for b, n := range r.Buckets {
		r.BucketMap[bucketNames[b]] = n
	}
	acked := r.Buckets[bucketAcked]

	e2e := func(name string, v float64, unit string) { r.EndToEnd[name] = metric{v, unit} }
	layer := func(name string, v float64, unit string) { r.PerLayer[name] = metric{v, unit} }
	pct := func(lats []time.Duration, missing int64, q float64) float64 {
		v, _ := percentile(lats, missing, q, opDeadline)
		return ms(v)
	}
	sliced := func(ops []timed, q float64) float64 {
		return ms(slicedPercentile(ops, end.Sub(start), q, opDeadline))
	}

	writeP50, writeP99 := sliced(writes, 0.50), sliced(writes, 0.99)
	e2e("setup_s", median(setups).Seconds(), "s")
	e2e("cpu_us_per_op", float64(after.cpu-before.cpu)/float64(time.Microsecond)/float64(max(acked, 1)), "us")
	// From the first op's due time to the last ack; never shorter than the
	// window when some op went unacked, so a wedge cannot inflate it.
	span := end.Sub(start)
	if len(acks) > 0 && (acked == r.Buckets.offered() || acks[len(acks)-1].After(end)) {
		span = acks[len(acks)-1].Sub(start)
	}
	goodput := float64(acked) / span.Seconds()
	e2e("goodput_ops", goodput, "ops/s")

	readP50, readP99 := 0.0, 0.0
	if len(reads) > 0 {
		readP50, readP99 = sliced(reads, 0.50), sliced(reads, 0.99)
	}
	var reconfigCalls, gaps, firsts, servings []time.Duration
	for i, rc := range ch.reconfigs {
		status := "ok"
		if rc.err != nil {
			status = rc.err.Error()
		} else {
			reconfigCalls = append(reconfigCalls, rc.end.Sub(rc.start))
		}
		gaps = append(gaps, longestGap(acks, rc.start, rc.end))
		if rc.firstDecide > 0 {
			firsts = append(firsts, rc.firstDecide)
		}
		if rc.serving > 0 {
			servings = append(servings, rc.serving)
		}
		r.Reconfigs = append(r.Reconfigs, fmt.Sprintf("reconfig %d -> %v: call %.1fms first-decide %.1fms serving %.1fms gap %.1fms (%s)",
			i+1, rc.members, ms(rc.end.Sub(rc.start)), ms(rc.firstDecide), ms(rc.serving), ms(gaps[i]), status))
	}
	var catchup time.Duration
	if rs := ch.restart; rs != nil {
		catchup = rs.catchup
		r.Restart = fmt.Sprintf("restart %s: caught up in %.1fms (err %v)", rs.node, ms(rs.catchup), rs.err)
	}
	r.ChurnAttempted, r.ChurnFailed = ch.actions()

	// Per-layer metrics. "Per op" divides by acked ops in the window.
	per := func(x int64) float64 { return float64(x) / float64(max(acked, 1)) }
	c := windowCounts(before, after)
	callP99 := pct(calls, 0, 0.99)
	layer("client.call_p50_ms", pct(calls, 0, 0.50), "ms")
	layer("client.call_p99_ms", callP99, "ms")
	layer("client.attempts_per_op", float64(after.attempts-before.attempts)/float64(max(r.Buckets.offered(), 1)), "ratio")
	layer("client.redirects_per_op", per(after.redirect-before.redirect), "ratio")
	layer("client.busy_per_op", per(after.busy-before.busy), "ratio")
	layer("client.adopts", float64(after.adopts-before.adopts), "count")

	lateP99 := pct(lateness, 0, 0.99)
	opP99 := sliced(append(append([]timed(nil), writes...), reads...), 0.99)
	r.GenBound = opP99 > 10 && lateP99 >= opP99/2
	layer("gen.lateness_p99_ms", lateP99, "ms")
	layer("gen.session_wait_p99_ms", pct(sessionWait, 0, 0.99), "ms")
	layer("gen.write_p50_ms", writeP50, "ms")
	layer("gen.write_p99_ms", writeP99, "ms")
	// The sliced percentiles are the typical slice's; the run's worst
	// stall, and the backlog behind it, shows in the whole window's p99.9.
	var writeLats []time.Duration
	var writesMissing int64
	for _, t := range writes {
		if t.ok {
			writeLats = append(writeLats, t.lat)
		} else {
			writesMissing++
		}
	}
	layer("gen.write_p999_ms", pct(writeLats, writesMissing, 0.999), "ms")
	layer("gen.read_p50_ms", readP50, "ms")
	layer("gen.read_p99_ms", readP99, "ms")
	// Keys the readback could not read sit above every limit.
	rb := r.Readback
	layer("readback.read_p50_ms", pct(rb.reads, int64(rb.Unverified), 0.50), "ms")
	layer("readback.read_p99_ms", pct(rb.reads, int64(rb.Unverified), 0.99), "ms")
	readRate := 0.0
	if rb.elapsed > 0 {
		readRate = float64(rb.Checked+rb.Wrong) / rb.elapsed.Seconds()
	}
	layer("readback.reads_per_s", readRate, "1/s")
	layer("gen.failed_frac", r.Buckets.failedFrac(), "ratio")
	layer("gen.gap_ms", ms(median(gaps)), "ms")

	layer("transport.msgs_per_op", per(after.net.MessagesSent-before.net.MessagesSent), "msgs")
	layer("transport.bytes_per_op", per(after.net.BytesSent-before.net.BytesSent), "bytes")
	layer("transport.dropped_busy", float64(after.net.DroppedBusy-before.net.DroppedBusy), "count")

	layer("reconfig.shed_per_op", per(c.ShedSubmits), "ratio")
	layer("reconfig.submit_queue_high", float64(c.SubmitQueueHigh), "count")
	layer("reconfig.apply_queue_high", float64(c.ApplyQueueHighWater), "count")
	layer("reconfig.apply_stalls", float64(c.ApplyStalls), "count")
	layer("reconfig.checkpoints", float64(c.CheckpointsPublished), "count")
	layer("reconfig.truncated_slots", float64(c.TruncatedSlots), "count")
	layer("reconfig.retained_slots", float64(c.RetainedSlots), "count")
	// Reads are counted through the readback, which every workload does.
	rc := windowCounts(before, readEnd)
	fast := 0.0
	if n := rc.FastReads + rc.ReadFallbacks + rc.ReadFenced; n > 0 {
		fast = float64(rc.FastReads) / float64(n)
	}
	layer("reconfig.fast_read_frac", fast, "ratio")
	layer("reconfig.completed", float64(len(reconfigCalls)), "count")
	layer("reconfig.call_ms", ms(median(reconfigCalls)), "ms")
	layer("reconfig.first_decide_ms", ms(median(firsts)), "ms")
	layer("reconfig.serving_ms", ms(median(servings)), "ms")
	layer("reconfig.chunks_fetched", float64(c.ChunksFetched), "count")
	layer("reconfig.chunk_retries", float64(c.ChunkRetries), "count")
	layer("reconfig.wedge_capture_us", float64(c.WedgeCaptureNS)/1e3, "us")
	layer("reconfig.spec_decides", float64(c.SpeculativeDecides), "count")
	layer("reconfig.restart_catchup_ms", ms(catchup), "ms")
	layer("reconfig.catchup_fetches", float64(c.CatchupFetches), "count")

	layer("paxos.group_commits_per_op", per(c.GroupCommits), "ratio")
	layer("paxos.dropped_inbound", float64(c.DroppedInbound), "count")

	layer("storage.fsyncs_per_op", per(after.syncs-before.syncs), "ratio")
	layer("storage.appends_per_op", per(after.appends-before.appends), "ratio")

	dup := 0.0
	if c.Applied > 0 {
		dup = float64(c.Duplicates) / float64(c.Applied)
	}
	layer("statemachine.dup_frac", dup, "ratio")

	layer("process.heap_live_mb", float64(liveHeap())/(1<<20), "MiB")

	overhead := 0.0
	if tr != nil {
		tr.mu.Lock()
		overhead = float64(tr.cost) / float64(time.Microsecond) / float64(max(len(ops), 1))
		tr.mu.Unlock()
	}
	layer("trace.overhead_us_per_op", overhead, "us")
}
