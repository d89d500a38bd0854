package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/statemachine"
)

// workload is one traffic mix. Every workload is open loop: ops are due on a
// fixed schedule whether or not earlier ones finished.
type workload struct {
	name     string
	rate     float64 // offered ops/s
	readFrac float64 // share of ops that are linearizable Client.Reads
	// ballastBytes is state preloaded beyond the working keys, in
	// ballastSize-byte values, so each state transfer moves real bytes.
	ballastBytes int
	// churnEvery is the reconfiguration period (0: no reconfigurations).
	// Each step slides the 3-of-5 member window by two, replacing two
	// members; one follower is crashed and restarted once per run.
	churnEvery time.Duration
	// logReadback reads the final state back through the log, with a CAS
	// that expects the key's last acked value and writes it back
	// unchanged, instead of through Client.Read. On write-steady a
	// read-index read can meet a truncation and deadlock its replica
	// (Wedge A: 2 of 55 readbacks, keys unanswered or the node wedged
	// after them). A member truncates only once it has a checkpoint in
	// its current configuration, and churn replaces the configuration
	// every 2s; its readback met no Wedge A in about 40 runs and times
	// Client.Read.
	logReadback bool
}

const (
	numKeys     = 10000
	ballastSize = 8 << 10
	// opDeadline bounds each op from its intended start. An op still
	// unacked then is unresolved: it counts in failed_frac and sits above
	// every latency limit. A truncation stall shows as latency, not as
	// failures: stalls run 1.2-3.4s, and after a 3.4s one the open loop's
	// backlog took another 4s to drain, so 1,422 ops due in that stall were
	// still unacked 5s after their start.
	opDeadline = 10 * time.Second
)

// The workloads and why each was chosen (README.md has the long form).
var workloads = []workload{
	// The log, fsync, checkpoint and truncation path does all the work.
	{name: "write-steady", rate: 1000, logReadback: true},
	// The read-index path does most of the work, the write path little.
	{name: "read-mostly", rate: 2000, readFrac: 0.9},
	// The paper's own operation: membership changes with state transfer
	// under load, plus a follower restart.
	{name: "reconfig-churn", rate: 1000, ballastBytes: 2 << 20, churnEvery: 2 * time.Second},
}

// interval is the time between two ops of the schedule.
func (w workload) interval() time.Duration { return time.Duration(float64(time.Second) / w.rate) }

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opRecord is one offered op's fate.
type opRecord struct {
	key      int
	read     bool
	warm     bool // due before the measured window: checked, not measured
	intended time.Time
	started  time.Time // the op's goroutine began; it then waits for the key's session
	sent     time.Time // zero if never sent
	done     time.Time
	bucket   bucket
	finished bool
}

// generator drives one open-loop window against a deployment.
type generator struct {
	d      *deployment
	w      workload
	tw     *tripwire
	tracer *tracer // nil when tracing is off

	mu         sync.Mutex
	ops        []opRecord
	closed     bool     // set at the cutoff: later completions are ignored
	mismatches []string // the first few wrong replies
	wrong      int      // every wrong reply
	wg         sync.WaitGroup
}

// run offers ops on the workload's schedule from first until end; ops due
// before start are warm-up. It returns once the last op is dispatched; wait
// collects them. Once the run is wedged, the rest of the schedule is offered
// without being sent: those ops are unresolved.
func (g *generator) run(first, start, end time.Time, rng *rand.Rand) {
	for k := 0; ; k++ {
		intended := intendedStart(first, k, g.w.interval())
		if !intended.Before(end) {
			return
		}
		rec := opRecord{key: rng.Intn(numKeys), read: rng.Float64() < g.w.readFrac, warm: intended.Before(start), intended: intended}
		if g.tw.ctx.Err() != nil {
			rec.bucket, rec.finished = bucketUnresolved, true
			g.mu.Lock()
			g.ops = append(g.ops, rec)
			g.mu.Unlock()
			continue
		}
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		g.mu.Lock()
		g.ops = append(g.ops, rec)
		g.mu.Unlock()
		g.wg.Add(1)
		go g.do(k, rec)
	}
}

// do runs op k on its key's session.
func (g *generator) do(k int, rec opRecord) {
	defer g.wg.Done()
	rec.started = time.Now()
	g.tw.outstanding.Add(1)
	defer g.tw.outstanding.Add(-1)
	ctx, cancel := context.WithDeadline(g.tw.ctx, rec.intended.Add(opDeadline))
	defer cancel()
	lock := g.d.locks[rec.key]
	select {
	case lock <- struct{}{}:
	case <-ctx.Done():
		g.finish(k, rec.started, time.Time{}, bucketUnresolved)
		return
	}
	defer func() { <-lock }()
	ks := g.d.keys
	sess := g.d.sessions[rec.key]
	key := ks.key(rec.key)
	sent := time.Now()
	var b bucket
	if rec.read {
		reply, err := sess.Read(ctx, statemachine.EncodeGet(key))
		if b = classify(err); b == bucketAcked {
			if statemachine.ReplyStatus(reply) != statemachine.StatusOK || !ks.allowed(rec.key, statemachine.ReplyPayload(reply)) {
				g.mismatch("read %s returned %q (status %s)", key, statemachine.ReplyPayload(reply), statemachine.ReplyStatus(reply))
			}
		}
	} else {
		v := ks.opValue(k)
		ks.send(rec.key, v)
		reply, err := sess.Submit(ctx, statemachine.EncodePut(key, v))
		if b = classify(err); b == bucketAcked {
			if !bytes.Equal(reply, []byte{byte(statemachine.StatusOK)}) {
				g.mismatch("put %s replied %q", key, reply)
			}
			ks.ack(rec.key, v)
		}
	}
	g.finish(k, rec.started, sent, b)
}

func (g *generator) finish(k int, started, sent time.Time, b bucket) {
	done := time.Now()
	if b == bucketAcked {
		g.tw.lastAck.Store(done.UnixNano())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	op := &g.ops[k]
	op.started, op.sent, op.done, op.bucket, op.finished = started, sent, done, b, true
	if g.tracer != nil && !op.warm {
		g.tracer.op(k, op)
	}
}

func (g *generator) mismatch(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.wrong++
	if len(g.mismatches) < 20 {
		g.mismatches = append(g.mismatches, fmt.Sprintf(format, args...))
	}
}

// wait collects the ops: it returns once every op finished or at cutoff,
// whichever is first, and reports whether every op finished. Ops still
// running at the cutoff are unresolved; their goroutines are abandoned.
func (g *generator) wait(cutoff time.Time) ([]opRecord, bool) {
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	all := true
	select {
	case <-done:
	case <-time.After(time.Until(cutoff)):
		all = false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	out := make([]opRecord, len(g.ops))
	copy(out, g.ops)
	for i := range out {
		if !out[i].finished {
			out[i].bucket = bucketUnresolved
		}
	}
	return out, all
}
