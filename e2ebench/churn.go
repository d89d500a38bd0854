package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/types"
)

// reconfigRecord is one membership change made under load, with its stages
// timed from outside, each from the ReconfigureGroup call.
type reconfigRecord struct {
	members     []types.NodeID
	start, end  time.Time
	err         error
	firstDecide time.Duration // earliest FirstDecide on a joining member (0: unknown)
	serving     time.Duration // until every joining member is Serving (0: unknown)
}

// catchupLimit bounds a restarted follower's catch-up.
const catchupLimit = 5 * time.Second

// restartRecord is the once-per-run follower crash and restart.
type restartRecord struct {
	node    types.NodeID
	start   time.Time
	catchup time.Duration // RestartProcess until its AppliedSlot reaches the leader's
	err     error         // the restart failed or missed catchupLimit
}

// churner slides the 3-of-5 member window by two every period, so each step
// replaces two members and does a real state transfer, and crashes and
// restarts one follower halfway through the second period.
type churner struct {
	d      *deployment
	every  time.Duration
	tw     *tripwire
	tracer *tracer

	reconfigs []reconfigRecord
	restart   *restartRecord
	// crashViolations is the crashed node's invariant violation count at
	// the crash; its restarted replica counts from zero.
	crashViolations int64
}

// run churns from start until end; it returns after its last step. A step
// whose reconfiguration failed leaves the member set as it was.
func (c *churner) run(start, end time.Time) {
	members := pool[:3]
	for step := 1; ; step++ {
		at := start.Add(time.Duration(step) * c.every)
		if !at.Before(end) {
			return
		}
		if !sleepUntil(c.tw.ctx, at) {
			return
		}
		next := []types.NodeID{
			pool[(2*step)%len(pool)],
			pool[(2*step+1)%len(pool)],
			pool[(2*step+2)%len(pool)],
		}
		rec := c.reconfigure(step, members, next)
		c.reconfigs = append(c.reconfigs, rec)
		if rec.err == nil {
			members = next
		}
		if step == 2 {
			mid := at.Add(c.every / 2)
			if mid.Before(end) {
				if !sleepUntil(c.tw.ctx, mid) {
					return
				}
				c.restart = c.crashRestart(members)
			}
		}
	}
}

// reconfigure moves the group from old to next, timing the joining
// members' first decide and serving from outside.
func (c *churner) reconfigure(step int, old, next []types.NodeID) reconfigRecord {
	rec := reconfigRecord{members: next}
	var joiners []types.NodeID
	for _, id := range next {
		if !contains(old, id) {
			joiners = append(joiners, id)
		}
	}
	c.tracer.counters(fmt.Sprintf("reconfig-%d-start", step), c.d)
	// Serving on a joiner implies the new configuration is installed there,
	// so polling may start with the call.
	servingAt := make(chan time.Time, 1)
	stopPoll := make(chan struct{})
	go c.pollServing(joiners, servingAt, stopPoll)
	ctx, cancel := context.WithTimeout(c.tw.ctx, 10*time.Second)
	rec.start = time.Now()
	cfg, err := c.d.gm.ReconfigureGroup(ctx, gid, next)
	rec.end = time.Now()
	cancel()
	rec.err = err
	select {
	case t := <-servingAt:
		rec.serving = t.Sub(rec.start)
	case <-time.After(2 * time.Second):
	}
	close(stopPoll)
	if err == nil {
		for _, id := range joiners {
			n, ok := c.d.node(id)
			if !ok {
				continue
			}
			t, err := probe(func() time.Time {
				t, _ := n.FirstDecide(cfg.ID)
				return t
			})
			if err != nil || t.IsZero() {
				continue
			}
			if d := t.Sub(rec.start); rec.firstDecide == 0 || d < rec.firstDecide {
				rec.firstDecide = d
			}
		}
	}
	c.tracer.reconfig(step, rec)
	c.tracer.counters(fmt.Sprintf("reconfig-%d-end", step), c.d)
	return rec
}

// pollServing sends the first time every joiner serves.
func (c *churner) pollServing(joiners []types.NodeID, at chan<- time.Time, stop <-chan struct{}) {
	for {
		all := true
		for _, id := range joiners {
			n, ok := c.d.node(id)
			if !ok {
				all = false
				break
			}
			serving, err := probe(n.Serving)
			if err != nil || !serving {
				all = false
				break
			}
		}
		if all {
			at <- time.Now()
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// crashRestart crashes a follower of the current members, restarts it over
// its surviving store, and times its catch-up to the leader's applied slot.
func (c *churner) crashRestart(members []types.NodeID) *restartRecord {
	lead := c.d.leader()
	var victim types.NodeID
	for _, id := range members {
		if id != lead {
			victim = id
			break
		}
	}
	rec := &restartRecord{node: victim}
	c.tracer.counters("crash-"+string(victim), c.d)
	if n, ok := c.d.node(victim); ok {
		if st, err := probe(n.Stats); err == nil {
			c.crashViolations = st.InvariantViolations
		}
	}
	c.d.gm.CrashProcess(victim)
	time.Sleep(100 * time.Millisecond)
	rec.start = time.Now()
	if rec.err = c.d.gm.RestartProcess(victim); rec.err != nil {
		rec.catchup = catchupLimit
		return rec
	}
	var target applied
	for deadline := time.Now().Add(catchupLimit); time.Now().Before(deadline) && c.tw.ctx.Err() == nil; time.Sleep(time.Millisecond) {
		if target.cfg == 0 { // the leader's position, once one is known
			target = c.appliedOf(c.d.leader())
			continue
		}
		if got := c.appliedOf(victim); got.cfg > target.cfg || (got.cfg == target.cfg && got.slot >= target.slot) {
			rec.catchup = time.Since(rec.start)
			break
		}
	}
	if rec.catchup == 0 {
		// A missed catch-up reads as the limit, never as the best case.
		rec.catchup = catchupLimit
		rec.err = fmt.Errorf("%s did not catch up within %s", victim, catchupLimit)
	}
	c.tracer.restart(rec)
	c.tracer.counters("restart-"+string(victim)+"-caught-up", c.d)
	return rec
}

type applied struct {
	cfg  types.ConfigID
	slot types.Slot
}

func (c *churner) appliedOf(id types.NodeID) applied {
	n, ok := c.d.node(id)
	if !ok {
		return applied{}
	}
	a, _ := probe(func() applied {
		cfg, slot := n.AppliedSlot()
		return applied{cfg, slot}
	})
	return a
}

// sleepUntil waits until t; it reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func contains(ids []types.NodeID, id types.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// actions counts the churn's reconfigurations and restart; failed counts
// those that returned an error or, for the restart, missed its catch-up.
func (c *churner) actions() (attempted, failed int64) {
	for _, rc := range c.reconfigs {
		attempted++
		if rc.err != nil {
			failed++
		}
	}
	if c.restart != nil {
		attempted++
		if c.restart.err != nil {
			failed++
		}
	}
	return attempted, failed
}
