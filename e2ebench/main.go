// Command e2ebench is the repository's end-to-end benchmark. It deploys the
// composed system (one group of three processes plus two spares, WAL storage
// with fsync, real loopback TCP), drives the real client library with an
// open-loop generator, checks every result, and prints the metrics by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with the end-to-end metrics when -trace 0 and the per-layer metrics when
// -trace 1. Run it through run.py, which builds it first:
//
//	python3 e2ebench/run.py --workload write-steady --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/statemachine"
	"repro/internal/types"
)

// setupRuns is how many times a run deploys and preloads; setup_s is the
// median. The last deployment is the one measured.
const setupRuns = 5

// warmup is how long the open loop runs before the measured window. It
// covers the first checkpoint and truncation after the preload, whose stall
// is longer than the steady-state ones because it releases the preload's
// log too.
const warmup = 6 * time.Second

const (
	setupTimeout  = 60 * time.Second
	readbackLimit = 20 * time.Second
	// violationsTimeout bounds the run's invariant check.
	violationsTimeout = 20 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", ".bench_out", "directory for reports, traces and data")
		commit  = flag.String("commit", "unknown", "source revision to stamp on the result")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	st := stamp{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: *commit,
	}
	if err := os.MkdirAll(filepath.Join(*out, "data"), 0o755); err != nil {
		fatal(err)
	}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	tw := newTripwire(base + "-goroutines.txt")
	go tw.watch()
	r, err := run(w, st, *out, base, tw)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	if err := r.save(base + ".json"); err != nil {
		fatal(err)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		r.Correct,
		r.Buckets.offered() + int64(r.Readback.Checked+r.Readback.Wrong+r.Readback.Unverified) + r.ChurnAttempted + 1,
		r.Buckets.notAcked() + int64(r.Readback.Unverified) + r.ChurnFailed + b2i(r.ViolationsUnread),
		r.EndToEnd,
	}
	if *trace == 1 {
		res.Metrics = r.PerLayer
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// report is one run's full record, saved next to its goroutine dump.
type report struct {
	Stamp      stamp             `json:"stamp"`
	Correct    bool              `json:"correct"`
	Wedged     []string          `json:"wedged,omitempty"`
	Buckets    tally             `json:"-"`
	BucketMap  map[string]int64  `json:"buckets"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Setups     []float64         `json:"setup_s_each"`
	Wrong      int               `json:"wrong"` // replies and readback values that were wrong
	Mismatches []string          `json:"mismatches,omitempty"`
	Violations int64             `json:"violations"`
	// ViolationsUnread is set when the invariant check could not be made;
	// the check counts as one attempted item of the result, failed then.
	ViolationsUnread bool           `json:"violations_unread"`
	Readback         readbackResult `json:"readback"`
	// SettleS is how long the group took to settle before the readback.
	SettleS   float64  `json:"settle_s"`
	Reconfigs []string `json:"reconfigs,omitempty"`
	Restart   string   `json:"restart,omitempty"`
	GenBound  bool     `json:"generator_bound"`
	// The churn's reconfigurations and restart, and those that failed (a
	// restart fails when it misses its catch-up). Both count in the
	// result's attempted and failed.
	ChurnAttempted int64 `json:"churn_attempted"`
	ChurnFailed    int64 `json:"churn_failed"`
}

func run(w workload, st stamp, out, base string, tw *tripwire) (*report, error) {
	r := &report{Stamp: st, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	d, setups, err := setUp(w, st, out, tw)
	for _, s := range setups {
		r.Setups = append(r.Setups, s.Seconds())
	}
	if err != nil {
		// Nothing was offered: every op of the window and every key is a
		// failure, and the run is flagged.
		r.Wedged = append(tw.tripped(), "set-up: "+err.Error())
		dumpGoroutines(tw.dump)
		start := time.Now()
		end := start.Add(time.Duration(st.Seconds) * time.Second)
		var ops []opRecord
		for k := 0; intendedStart(start, k, w.interval()).Before(end); k++ {
			ops = append(ops, opRecord{intended: intendedStart(start, k, w.interval()), bucket: bucketUnresolved, finished: true})
		}
		ks := newKeyspace(numKeys, st.Seed, w.ballastBytes, ballastSize)
		r.Readback.Unverified = ks.n + ks.ballastKeys
		r.ViolationsUnread = true
		r.compute(ops, setups, start, end, counters{}, counters{}, counters{}, &churner{}, nil)
		r.Correct = true
		return r, nil
	}

	// The open loop runs through a warm-up into the measured window, so the
	// window starts in steady state: past the truncation of the preload's
	// log, with the schedule already running.
	var tr *tracer
	first := time.Now().Add(5 * time.Millisecond)
	start := first.Add(warmup)
	end := start.Add(time.Duration(st.Seconds) * time.Second)
	beforeCh := make(chan counters, 1)
	time.AfterFunc(time.Until(start), func() { beforeCh <- readCounters(d) })
	if st.Trace == 1 {
		tr = &tracer{t0: start}
	}
	g := &generator{d: d, w: w, tw: tw, tracer: tr}
	ch := &churner{d: d, every: w.churnEvery, tw: tw, tracer: tr}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		if w.churnEvery > 0 {
			ch.run(start, end)
		}
	}()
	g.run(first, start, end, rand.New(rand.NewSource(st.Seed)))
	ops, all := g.wait(end.Add(opDeadline + time.Second))
	before := <-beforeCh
	if !all {
		r.Wedged = append(r.Wedged, "ops still running past their deadline")
	}
	select {
	case <-churnDone:
	case <-time.After(15 * time.Second):
		r.Wedged = append(r.Wedged, "churn step still running")
	}
	after := readCounters(d)
	if after.timeouts > 0 {
		r.Wedged = append(r.Wedged, fmt.Sprintf("%d counter probes timed out", after.timeouts))
	}

	// A tripped run is wedged and cannot be read back: every read would
	// park one more goroutine behind the wedge. A counter probe that timed
	// out at the window's end is not enough to skip the readback: a
	// truncation can hold Node.mu past the probe's bound and then let go,
	// and settle waits for that.
	readEnd := after
	var violations int64
	if tw.ctx.Err() == nil {
		took, ok := settle(tw.ctx, d)
		r.SettleS = took.Seconds()
		if !ok {
			r.Wedged = append(r.Wedged, fmt.Sprintf("group not settled after %s", settleLimit))
		}
		// The invariant check is made on the settled group, before the
		// readback: a read that reaches a replica while a checkpoint
		// announce truncates can deadlock it (Wedge A) after every key was
		// answered, and the count is then unreadable.
		violations, err = probeWithin(violationsTimeout, d.gm.TotalViolations)
		r.Readback = readback(tw.ctx, d, w.logReadback)
		if n := r.Readback.Unverified; n > 0 {
			r.Wedged = append(r.Wedged, fmt.Sprintf("readback: %d keys unanswered", n))
		}
		readEnd = readCounters(d)
		if readEnd.timeouts > 0 {
			r.Wedged = append(r.Wedged, fmt.Sprintf("%d counter probes timed out after the readback", readEnd.timeouts))
		}
		// The count is read again so that a violation during the readback
		// counts too; a wedge after the readback flags the run and keeps
		// the count made before it.
		if err == nil {
			if v, err := probeWithin(violationsTimeout, d.gm.TotalViolations); err == nil {
				violations = v
			} else {
				r.Wedged = append(r.Wedged, "violation count unreadable after the readback")
			}
		}
	} else {
		r.Readback.Unverified = d.keys.n + d.keys.ballastKeys
		violations, err = probeWithin(violationsTimeout, d.gm.TotalViolations)
	}
	if err != nil {
		r.Wedged = append(r.Wedged, "violation count unreadable")
		r.ViolationsUnread = true
	}
	r.Violations = violations + ch.crashViolations

	g.mu.Lock()
	r.Mismatches = append(r.Mismatches, g.mismatches...)
	wrong := g.wrong
	g.mu.Unlock()
	r.Mismatches = append(r.Mismatches, r.Readback.Mismatches...)
	r.compute(ops, setups, start, end, before, after, readEnd, ch, tr)
	// Correct means no output was wrong. Ops and readback keys that got no
	// answer (a wedge) are failures, counted in the result's failed.
	r.Wrong = wrong + r.Readback.Wrong
	r.Correct = r.Violations == 0 && r.Buckets[bucketAmbiguous] == 0 && r.Wrong == 0

	if tr != nil {
		if err := tr.write(base + "-trace.json"); err != nil {
			return nil, err
		}
	}
	// Teardown of a wedged system hangs; the process exit reclaims it.
	if tw.ctx.Err() == nil && len(r.Wedged) == 0 && !d.close() {
		r.Wedged = append(r.Wedged, "teardown hung")
	}
	r.Wedged = append(tw.tripped(), r.Wedged...)
	if len(r.Wedged) > 0 && tw.ctx.Err() == nil {
		dumpGoroutines(tw.dump)
	}
	if len(r.Wedged) == 0 {
		for i := 0; i < setupRuns; i++ {
			_ = os.RemoveAll(dataDirFor(out, i))
		}
	}
	return r, nil
}

// setUp deploys setupRuns times and keeps the last deployment; it returns
// each set-up's time. A wedged deployment can block in a call that takes no
// context, so the set-ups run on their own goroutine and are abandoned after
// setupTimeout; the set-up in progress then counts as taking until then.
func setUp(w workload, st stamp, out string, tw *tripwire) (*deployment, []time.Duration, error) {
	ctx, cancel := context.WithTimeout(tw.ctx, setupTimeout)
	defer cancel()
	var mu sync.Mutex
	var setups []time.Duration
	var began time.Time // of the set-up in progress
	done := make(chan error, 1)
	var d *deployment
	go func() {
		for i := 0; i < setupRuns; i++ {
			ks := newKeyspace(numKeys, st.Seed, w.ballastBytes, ballastSize)
			// The previous deployment's garbage is collected before, not
			// during, the timed set-up.
			runtime.GC()
			mu.Lock()
			began = time.Now()
			mu.Unlock()
			dep, err := deploy(ctx, dataDirFor(out, i), ks)
			if err != nil {
				done <- fmt.Errorf("set-up %d: %w", i+1, err)
				return
			}
			mu.Lock()
			setups = append(setups, time.Since(began))
			began = time.Time{}
			mu.Unlock()
			if i < setupRuns-1 && !dep.close() {
				done <- fmt.Errorf("teardown of set-up %d hung", i+1)
				return
			}
			mu.Lock()
			d = dep
			mu.Unlock()
		}
		done <- nil
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(setupTimeout + probeTimeout):
		err = fmt.Errorf("still running after %s", setupTimeout+probeTimeout)
	}
	mu.Lock()
	defer mu.Unlock()
	if err != nil && !began.IsZero() {
		setups = append(setups, time.Since(began))
	}
	return d, append([]time.Duration(nil), setups...), err
}

// readbackResult is the final-state check: every working key must hold a
// value its session's history allows, and every ballast key its preload.
// The readback is also where the read path is timed: each working key's
// linearizable Client.Read, with the writes stopped. With viaLog (see
// workload.logReadback) each key is read through the log instead.
type readbackResult struct {
	Checked    int      `json:"checked"`    // keys holding an allowed value
	Wrong      int      `json:"wrong"`      // keys holding anything else
	Unverified int      `json:"unverified"` // keys that could not be read
	Mismatches []string `json:"mismatches,omitempty"`
	// reads is the call time of every working key's successful read;
	// elapsed is the whole readback's.
	reads   []time.Duration
	elapsed time.Duration
}

func readback(ctx context.Context, d *deployment, viaLog bool) readbackResult {
	ks := d.keys
	total := ks.n + ks.ballastKeys
	const workers = 16
	began := time.Now()
	deadline := began.Add(readbackLimit)
	var mu sync.Mutex
	var res readbackResult
	var wg sync.WaitGroup
	keep := func(m string) {
		res.Wrong++
		if len(res.Mismatches) < 20 {
			res.Mismatches = append(res.Mismatches, m)
		}
	}
	for w := 0; w < workers; w++ {
		sess := d.dir.Session(types.NodeID(fmt.Sprintf("readback-%d", w)), clientOptions)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < total; i += workers {
				var key string
				var want []byte
				if i < ks.n {
					key = ks.key(i)
				} else {
					key, want = ks.ballastKey(i-ks.n), ks.ballastValue(i-ks.n)
				}
				rctx, cancel := context.WithDeadline(ctx, deadline)
				sent := time.Now()
				var reply []byte
				var err error
				if viaLog {
					expect := want
					if i < ks.n {
						expect = ks.lastAcked(i)
					}
					reply, err = sess.Submit(rctx, statemachine.EncodeCAS(key, expect, expect))
					reply = casValue(reply, expect)
				} else {
					reply, err = sess.Read(rctx, statemachine.EncodeGet(key))
				}
				took := time.Since(sent)
				cancel()
				mu.Lock()
				if err == nil && i < ks.n {
					res.reads = append(res.reads, took)
				}
				switch {
				case err != nil:
				case statemachine.ReplyStatus(reply) != statemachine.StatusOK:
					keep(fmt.Sprintf("readback %s: status %s", key, statemachine.ReplyStatus(reply)))
				case i < ks.n && !ks.allowed(i, statemachine.ReplyPayload(reply)),
					i >= ks.n && string(statemachine.ReplyPayload(reply)) != string(want):
					keep(fmt.Sprintf("readback %s: unexpected value %.40q", key, statemachine.ReplyPayload(reply)))
				default:
					res.Checked++
				}
				mu.Unlock()
			}
		}()
	}
	// A read stuck in a wedged transport ignores its context, so the wait
	// is bounded too; every key without a verdict is unverified.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline) + probeTimeout):
	}
	mu.Lock()
	defer mu.Unlock()
	out := res
	out.Mismatches = append([]string(nil), res.Mismatches...)
	out.reads = append([]time.Duration(nil), res.reads...)
	out.elapsed = time.Since(began)
	out.Unverified = total - res.Checked - res.Wrong
	return out
}

// casValue turns the reply of a CAS that expected v and wrote it back into
// the reply a get would have given: OK with v, or OK with the value that
// did not match.
func casValue(reply, v []byte) []byte {
	switch statemachine.ReplyStatus(reply) {
	case statemachine.StatusOK:
		return append([]byte{byte(statemachine.StatusOK)}, v...)
	case statemachine.StatusConflict:
		return append([]byte{byte(statemachine.StatusOK)}, statemachine.ReplyPayload(reply)...)
	}
	return reply
}

func (r *report) print(f *os.File) {
	s := r.Stamp
	fmt.Fprintf(f, "e2ebench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		s.Workload, s.Seed, s.Seconds, s.Trace, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Commit)
	fmt.Fprintf(f, "  correct=%v violations=%d wrong=%d readback=%d/%d buckets=%v\n",
		r.Correct, r.Violations, r.Wrong, r.Readback.Checked, r.Readback.Checked+r.Readback.Wrong+r.Readback.Unverified, r.BucketMap)
	fmt.Fprintf(f, "  settled in %.2fs before the readback\n", r.SettleS)
	for _, m := range r.Mismatches {
		fmt.Fprintf(f, "  MISMATCH %s\n", m)
	}
	for _, w := range r.Wedged {
		fmt.Fprintf(f, "  WEDGED %s\n", w)
	}
	if r.ChurnFailed > 0 {
		fmt.Fprintf(f, "  CHURN-FAILED %d of %d reconfigurations and restarts failed\n", r.ChurnFailed, r.ChurnAttempted)
	}
	if r.GenBound {
		fmt.Fprintf(f, "  GENERATOR-BOUND gen.lateness_p99_ms tracks the op p99: the tail is the generator's\n")
	}
	for _, group := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", r.EndToEnd}, {"per-layer", r.PerLayer}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(f, "  %s:\n", group.title)
		for _, n := range names {
			fmt.Fprintf(f, "    %-28s %14.4f %s\n", n, group.m[n].Value, group.m[n].Unit)
		}
	}
	for _, rc := range r.Reconfigs {
		fmt.Fprintf(f, "  %s\n", rc)
	}
	if r.Restart != "" {
		fmt.Fprintf(f, "  %s\n", r.Restart)
	}
}

func (r *report) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
