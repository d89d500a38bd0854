package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wedge limits. A wedged node holds its mutex forever while every client
// resend parks one more server goroutine behind it, so goroutines and heap
// grow without bound; a stall longer than an op's deadline with ops
// outstanding is the same wedge seen from the client side.
const (
	goroutineLimit = 100000
	liveHeapLimit  = 1 << 30 // heap still reachable after the last GC
)

// softMemoryLimit keeps garbage from doubling the five servers' live heap:
// the churn workload's live heap grows with every reconfiguration.
const softMemoryLimit = 1280 << 20

// tripwire ends a wedged run early and on time. Every context the run uses
// derives from ctx, so tripping it cancels in-flight ops, the churn and the
// readback at once; the run then reports what it has, marked wedged.
type tripwire struct {
	ctx    context.Context
	cancel context.CancelFunc
	dump   string // goroutine dump path

	mu      sync.Mutex
	reasons []string

	lastAck     atomic.Int64 // unix ns of the latest acked op
	outstanding atomic.Int64 // ops started and not finished
}

func newTripwire(dump string) *tripwire {
	debug.SetMemoryLimit(softMemoryLimit)
	ctx, cancel := context.WithCancel(context.Background())
	t := &tripwire{ctx: ctx, cancel: cancel, dump: dump}
	t.lastAck.Store(time.Now().UnixNano())
	return t
}

// trip records why the run wedged, saves a goroutine dump the first time,
// and cancels the run's context.
func (t *tripwire) trip(reason string) {
	t.mu.Lock()
	first := len(t.reasons) == 0
	t.reasons = append(t.reasons, reason)
	t.mu.Unlock()
	if first {
		dumpGoroutines(t.dump)
		t.cancel()
	}
}

func (t *tripwire) tripped() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.reasons...)
}

// watch checks the run's health every 100ms until the run is tripped. The
// hard kill of a run that hangs anyway is run.py's.
func (t *tripwire) watch() {
	for range time.Tick(100 * time.Millisecond) {
		live := liveHeap()
		switch {
		case t.ctx.Err() != nil:
			return
		case live > liveHeapLimit:
			saveHeapProfile(strings.TrimSuffix(t.dump, "-goroutines.txt") + "-heap.pprof")
			t.trip(fmt.Sprintf("live heap %d MiB", live>>20))
		case runtime.NumGoroutine() > goroutineLimit:
			t.trip(fmt.Sprintf("%d goroutines", runtime.NumGoroutine()))
		case t.outstanding.Load() > 0 && time.Since(time.Unix(0, t.lastAck.Load())) > opDeadline:
			t.trip(fmt.Sprintf("no op acked for %s with %d outstanding", opDeadline, t.outstanding.Load()))
		}
	}
}

// liveHeap reports the heap live at the last GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// saveHeapProfile saves what holds the heap when it outgrows liveHeapLimit.
func saveHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: heap profile:", err)
		return
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: heap profile:", err)
	}
}

// dumpGoroutines saves every goroutine's stack, grouped by stack so a
// wedge's pile-up stays small.
func dumpGoroutines(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: goroutine dump:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup("goroutine").WriteTo(f, 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: goroutine dump:", err)
	}
}
