package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/statemachine"
)

func msd(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestPercentileFailedOpsSitAboveEveryLimit(t *testing.T) {
	lats := []time.Duration{msd(5), msd(1), msd(3), msd(2), msd(4)}
	ceiling := 5 * time.Second
	cases := []struct {
		missing int64
		q       float64
		want    time.Duration
		above   bool
	}{
		{0, 0.5, msd(3), false},
		{0, 0.99, msd(5), false},
		{0, 0, msd(1), false},
		// 5 acked + 5 missing: the median rank (5) is still an acked op...
		{5, 0.5, msd(5), false},
		// ...but any rank past the acked ones lands on a missing op.
		{5, 0.6, ceiling, true},
		{1, 0.99, ceiling, true},
		{95, 0.01, msd(1), false},
		{96, 0.05, ceiling, true},
	}
	for _, c := range cases {
		got, above := percentile(append([]time.Duration(nil), lats...), c.missing, c.q, ceiling)
		if got != c.want || above != c.above {
			t.Errorf("percentile(missing=%d, q=%v) = %v,%v; want %v,%v", c.missing, c.q, got, above, c.want, c.above)
		}
	}
	if got, _ := percentile(nil, 0, 0.5, ceiling); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got, above := percentile(nil, 3, 0.5, ceiling); got != ceiling || !above {
		t.Errorf("only missing ops: got %v,%v, want ceiling", got, above)
	}
}

func TestIntendedStartAnchorsLatency(t *testing.T) {
	start := time.Unix(1000, 0)
	interval := time.Millisecond
	if got := intendedStart(start, 0, interval); !got.Equal(start) {
		t.Fatalf("op 0 due at %v, want %v", got, start)
	}
	due := intendedStart(start, 250, interval)
	if want := start.Add(250 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("op 250 due at %v, want %v", due, want)
	}
	// A late dispatch does not shift the schedule of later ops.
	if next := intendedStart(start, 251, interval); next.Sub(due) != interval {
		t.Fatalf("schedule drifted: %v", next.Sub(due))
	}
}

// TestComputeChargesLatencyFromIntendedStart feeds the report synthetic ops
// whose goroutine ran 40ms late and whose session was free 1ms later; the
// service then took 2ms. Each op is charged 43ms, not the 2ms its call took.
func TestComputeChargesLatencyFromIntendedStart(t *testing.T) {
	start := time.Unix(1000, 0)
	end := start.Add(sliceLen)
	var ops []opRecord
	for k := 0; k < 100; k++ {
		due := intendedStart(start, k, time.Millisecond)
		started := due.Add(msd(40))
		sent := started.Add(msd(1))
		ops = append(ops, opRecord{intended: due, started: started, sent: sent, done: sent.Add(msd(2)), bucket: bucketAcked, finished: true})
	}
	// A warm-up op is checked but not measured.
	early := start.Add(-time.Second)
	ops = append(ops, opRecord{warm: true, intended: early, started: early, sent: early, done: early.Add(time.Hour), bucket: bucketAcked, finished: true})
	r := &report{EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	r.compute(ops, nil, start, end, counters{}, counters{}, counters{}, &churner{}, nil)
	for name, want := range map[string]float64{
		"gen.write_p50_ms":        43,
		"gen.write_p99_ms":        43,
		"gen.write_p999_ms":       43,
		"client.call_p50_ms":      2,
		"gen.lateness_p99_ms":     40,
		"gen.session_wait_p99_ms": 1,
	} {
		if got := r.PerLayer[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := r.Buckets.offered(); got != 100 {
		t.Errorf("offered %d, want the window's 100 ops", got)
	}
}

func TestEveryOpEndsInExactlyOneBucket(t *testing.T) {
	errs := []struct {
		err  error
		want bucket
	}{
		{nil, bucketAcked},
		{&client.BudgetError{Attempts: 12}, bucketRefused},
		{fmt.Errorf("wrapped: %w", &client.BudgetError{Attempts: 3}), bucketRefused},
		{&client.BudgetError{Attempts: 12, Ambiguous: true}, bucketAmbiguous},
		{context.DeadlineExceeded, bucketUnresolved},
		{fmt.Errorf("call: %w", context.Canceled), bucketUnresolved},
		{client.ErrClosed, bucketFailed},
		{errors.New("boom"), bucketFailed},
	}
	var tl tally
	for _, e := range errs {
		b := classify(e.err)
		if b != e.want {
			t.Errorf("classify(%v) = %s, want %s", e.err, bucketNames[b], bucketNames[e.want])
		}
		before := tl.offered()
		tl.add(b)
		if tl.offered() != before+1 {
			t.Fatalf("op counted %d times", tl.offered()-before)
		}
	}
	if tl.offered() != int64(len(errs)) {
		t.Fatalf("offered %d, want %d", tl.offered(), len(errs))
	}
	if tl[bucketAcked]+tl.notAcked() != tl.offered() {
		t.Fatalf("acked %d + not acked %d != offered %d", tl[bucketAcked], tl.notAcked(), tl.offered())
	}
	if want := 7.0 / 8.0; tl.failedFrac() != want {
		t.Fatalf("failed_frac %v, want %v", tl.failedFrac(), want)
	}
	var empty tally
	if empty.failedFrac() != 0 {
		t.Fatalf("failed_frac of nothing offered: %v", empty.failedFrac())
	}
}

func TestLongestGap(t *testing.T) {
	base := time.Unix(2000, 0)
	at := func(msec float64) time.Time { return base.Add(msd(msec)) }
	acks := []time.Time{at(0), at(1), at(2), at(10), at(11), at(30), at(31)}
	cases := []struct {
		name     string
		from, to float64
		want     float64
	}{
		// The gap runs from the last ack before the window...
		{"spans the window", 3, 5, 8},
		// ...to the first ack after it, and covers every gap in between.
		{"two gaps", 1.5, 12, 19},
		{"inside dense acks", 0.5, 1.5, 1},
		// No ack before the window: the window start stands in.
		{"before first ack", -5, 0.5, 5},
		// No ack after the window: the window end stands in.
		{"after last ack", 31.5, 40, 9},
		{"no acks in the window", 50, 60, 29},
	}
	for _, c := range cases {
		if got := longestGap(acks, at(c.from), at(c.to)); got != msd(c.want) {
			t.Errorf("%s: longestGap = %v, want %v", c.name, got, msd(c.want))
		}
	}
	if got := longestGap(nil, at(0), at(7)); got != msd(7) {
		t.Errorf("no acks: %v, want 7ms", got)
	}
}

func TestSlicedPercentileIsTheMedianSlice(t *testing.T) {
	window := 3 * sliceLen
	var ops []timed
	// Slice 0 has a 900ms stall at its tail, slice 1 a 1200ms one and slice
	// 2 a 1000ms one; each slice has 1000 fast ops.
	for s, stall := range []time.Duration{msd(900), msd(1200), msd(1000)} {
		for i := 0; i < 1000; i++ {
			ops = append(ops, timed{at: time.Duration(s)*sliceLen + time.Duration(i), lat: msd(1), ok: true})
		}
		for i := 0; i < 20; i++ {
			ops = append(ops, timed{at: time.Duration(s)*sliceLen + time.Second, lat: stall, ok: true})
		}
	}
	if got := slicedPercentile(ops, window, 0.99, time.Hour); got != msd(1000) {
		t.Fatalf("sliced p99 = %v, want the median slice's 1000ms", got)
	}
	if got := slicedPercentile(ops, window, 0.5, time.Hour); got != msd(1) {
		t.Fatalf("sliced p50 = %v, want 1ms", got)
	}
	// A failed op sits above every limit in its own slice only.
	for i := 0; i < 30; i++ {
		ops = append(ops, timed{at: 2 * sliceLen, ok: false})
	}
	if got := slicedPercentile(ops, window, 0.99, time.Hour); got != msd(1200) {
		t.Fatalf("sliced p99 with slice 2 failing = %v, want 1200ms", got)
	}
	// A remainder shorter than a slice joins the last one.
	short := []timed{{at: 0, lat: msd(1), ok: true}, {at: sliceLen + sliceLen/2, lat: msd(3), ok: true}}
	if got := slicedPercentile(short, sliceLen+sliceLen/2+1, 0.99, time.Hour); got != msd(3) {
		t.Fatalf("short window = %v, want the p99 of one slice holding 1ms and 3ms", got)
	}
}

// TestCASReadbackReadsAsGet pins how the log-path readback turns the reply
// of a CAS that expected v and wrote it back into a get's reply.
func TestCASReadbackReadsAsGet(t *testing.T) {
	v := []byte("acked")
	for _, c := range []struct {
		name        string
		reply, want []byte
	}{
		{"match", []byte{byte(statemachine.StatusOK)}, append([]byte{byte(statemachine.StatusOK)}, v...)},
		{"conflict", append([]byte{byte(statemachine.StatusConflict)}, "other"...), append([]byte{byte(statemachine.StatusOK)}, "other"...)},
		{"absent", []byte{byte(statemachine.StatusNotFound)}, []byte{byte(statemachine.StatusNotFound)}},
	} {
		if got := casValue(c.reply, v); !bytes.Equal(got, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
