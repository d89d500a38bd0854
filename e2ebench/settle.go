package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/reconfig"
	"repro/internal/types"
)

// The readback checks the final state, so it waits for the state to be
// final: for the group to settle after the window. Reads that reach a
// replica while a truncation runs can deadlock it (Wedge A, which
// read-mostly hits in every run); without this wait the readback met the
// window's last truncation in 2 of 70 write-steady runs, and a truncation
// after the readback held Node.mu past the invariant check's bound in 2.
const (
	settleLimit = 20 * time.Second
	settleQuiet = time.Second // how long nothing may move
	settlePoll  = 50 * time.Millisecond
	// settleProbe bounds each stats read while settling. A truncation
	// holds Node.mu for about a second once its control queue is full, so
	// a slow read means one is running.
	settleProbe = 100 * time.Millisecond
	// checkpointInterval is reconfig's default CheckpointInterval, which
	// the deployment keeps: a member whose applied slot is this far past
	// its newest checkpoint base is about to publish one, then truncate.
	checkpointInterval = 4096
)

// settle waits until every member of the group's newest configuration has
// applied the same slot, has no checkpoint due, and answers its stats
// promptly, with none of its log counters moving for settleQuiet. It
// returns how long it waited and whether the group settled within
// settleLimit.
func settle(ctx context.Context, d *deployment) (time.Duration, bool) {
	began := time.Now()
	var last string
	var since time.Time
	for time.Since(began) < settleLimit && ctx.Err() == nil {
		state, ok := settledState(d)
		now := time.Now()
		if !ok || state != last {
			last, since = state, now
			if !ok {
				last = ""
			}
		} else if now.Sub(since) >= settleQuiet {
			return now.Sub(began), true
		}
		time.Sleep(settlePoll)
	}
	return time.Since(began), false
}

// settledState describes the members' log positions, or reports false when
// some member is slow to answer, has a checkpoint due, or has applied
// another slot than the rest.
func settledState(d *deployment) (string, bool) {
	// A member the churn removed may not know its successor, so the newest
	// configuration any process knows is the group's.
	var newest types.Config
	for _, id := range pool {
		n, ok := d.node(id)
		if !ok {
			continue
		}
		cfg, err := probeWithin(settleProbe, n.CurrentConfig)
		if err != nil {
			return "", false
		}
		if cfg.ID > newest.ID {
			newest = cfg
		}
	}
	members := newest.Members
	if len(members) == 0 {
		return "", false
	}
	var b strings.Builder
	var first applied
	for i, id := range members {
		n, ok := d.node(id)
		if !ok {
			return "", false
		}
		st, err := probeWithin(settleProbe, n.Stats)
		if err != nil {
			return "", false
		}
		a, err := probeWithin(settleProbe, func() applied {
			cfg, slot := n.AppliedSlot()
			return applied{cfg, slot}
		})
		if err != nil || !checkpointed(a.slot, st) {
			return "", false
		}
		if i == 0 {
			first = a
		} else if a != first {
			return "", false
		}
		fmt.Fprintf(&b, "%s:%d/%d/%d/%d/%d/%d ", id, a.cfg, a.slot, st.CheckpointBase,
			st.CheckpointsPublished, st.TruncatedSlots, st.RetainedSlots)
	}
	return b.String(), true
}

// checkpointed reports whether a member at applied slot has no checkpoint
// due.
func checkpointed(slot types.Slot, st reconfig.NodeStats) bool {
	return int64(slot) < st.CheckpointBase+checkpointInterval
}
