package main

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/client"
)

// bucket is where one offered op ends. Every op lands in exactly one.
type bucket int

const (
	bucketAcked      bucket = iota // definitive reply
	bucketRefused                  // BudgetError, provably never executed
	bucketAmbiguous                // BudgetError, may have executed (a correctness failure)
	bucketFailed                   // any other error
	bucketUnresolved               // still unacked at its deadline
	numBuckets
)

var bucketNames = [numBuckets]string{"acked", "refused", "ambiguous", "failed", "unresolved"}

// classify maps the error a Submit/Read returned to its bucket.
func classify(err error) bucket {
	var be *client.BudgetError
	switch {
	case err == nil:
		return bucketAcked
	case errors.As(err, &be) && be.Ambiguous:
		return bucketAmbiguous
	case errors.As(err, &be):
		return bucketRefused
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return bucketUnresolved
	default:
		return bucketFailed
	}
}

// tally counts offered ops per bucket.
type tally [numBuckets]int64

func (t *tally) add(b bucket) { t[b]++ }

func (t tally) offered() int64 {
	var n int64
	for _, v := range t {
		n += v
	}
	return n
}

// notAcked is everything failed_frac counts: failed, refused, ambiguous and
// unresolved ops.
func (t tally) notAcked() int64 { return t.offered() - t[bucketAcked] }

func (t tally) failedFrac() float64 {
	if t.offered() == 0 {
		return 0
	}
	return float64(t.notAcked()) / float64(t.offered())
}

// intendedStart is when op k of an open-loop schedule was due. Latency is
// charged from here, not from the actual send, so a stall that delays later
// sends is counted against them (safe against coordinated omission).
func intendedStart(start time.Time, k int, interval time.Duration) time.Time {
	return start.Add(time.Duration(k) * interval)
}

// percentile returns the nearest-rank q-quantile of the acked latencies with
// `missing` more ops (failed, refused or unresolved) placed above every
// limit; lats is sorted in place. When the rank falls among the missing ops the result is `ceiling`
// and above is true.
func percentile(lats []time.Duration, missing int64, q float64, ceiling time.Duration) (v time.Duration, above bool) {
	n := int64(len(lats)) + missing
	if n == 0 {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > int64(len(lats)) {
		return ceiling, true
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[rank-1], false
}

// sliceLen is the length of the slices a window's latency percentiles are
// taken over. Each slice of the write workloads holds about 5000 ops, so its
// p99 has 50 ops beyond it.
const sliceLen = 5 * time.Second

// timed is one op's latency, charged to the slice of its intended start.
type timed struct {
	at  time.Duration // intended start, since the window start
	lat time.Duration
	ok  bool // acked; otherwise it sits above every limit
}

// slicedPercentile is the median, over the window's sliceLen slices, of each
// slice's q-quantile (see percentile). A window shorter than two slices is
// one slice, and a remainder shorter than a slice joins the last one. The
// system's truncation stall lasts about a second every few seconds, so a
// whole-window p99 is set by the longest one or two stalls of the run; the
// median over slices is the typical slice's tail, which repeats better.
func slicedPercentile(ops []timed, window time.Duration, q float64, ceiling time.Duration) time.Duration {
	n := max(int(window/sliceLen), 1)
	lats := make([][]time.Duration, n)
	missing := make([]int64, n)
	for _, op := range ops {
		i := min(int(op.at/sliceLen), n-1)
		if op.ok {
			lats[i] = append(lats[i], op.lat)
		} else {
			missing[i]++
		}
	}
	var per []time.Duration
	for i := range lats {
		if len(lats[i]) == 0 && missing[i] == 0 {
			continue
		}
		v, _ := percentile(lats[i], missing[i], q, ceiling)
		per = append(per, v)
	}
	return median(per)
}

// longestGap is the time without service around [from, to]: the longest
// interval between consecutive acks, where the sequence runs from the last
// ack at or before from through the first ack at or after to. Missing acks on
// either side are replaced by the window edge. acks must be sorted.
func longestGap(acks []time.Time, from, to time.Time) time.Duration {
	i := sort.Search(len(acks), func(i int) bool { return acks[i].After(from) })
	prev := from
	if i > 0 {
		prev = acks[i-1]
	}
	var gap time.Duration
	for ; i < len(acks); i++ {
		if d := acks[i].Sub(prev); d > gap {
			gap = d
		}
		prev = acks[i]
		if !acks[i].Before(to) {
			return gap
		}
	}
	if d := to.Sub(prev); d > gap {
		gap = d
	}
	return gap
}

// median of a duration sample (0 when empty).
func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
