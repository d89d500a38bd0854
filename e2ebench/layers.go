package main

import (
	"syscall"
	"time"

	"repro/internal/reconfig"
	"repro/internal/transport"
	"repro/internal/types"
)

// counters is a snapshot of every counter the modules export, read from
// outside through their public functions. Node and network reads go through
// probe: a wedged node or network holds its mutex forever.
type counters struct {
	cpu      time.Duration // this process's user+system CPU time
	nodes    map[types.NodeID]reconfig.NodeStats
	net      transport.Stats
	syncs    int64 // WAL fsyncs, summed over processes
	appends  int64 // WAL appends, summed over processes
	attempts int64 // client RPC attempts, summed over sessions
	redirect int64
	busy     int64
	adopts   int64
	timeouts int // probes abandoned
}

func readCounters(d *deployment) counters {
	c := counters{cpu: processCPU(), nodes: make(map[types.NodeID]reconfig.NodeStats)}
	for _, s := range d.sessions {
		st := s.Stats()
		c.attempts += st.Attempts
		c.redirect += st.Redirects
		c.busy += st.Busy
	}
	c.adopts = d.dir.Stats().Adopts
	// After one probe times out the system is wedged and every further
	// probe would wait out its timeout too, so the rest are skipped.
	for _, id := range pool {
		n, err := probe(func() *reconfig.Node { return d.gm.Node(gid, id) })
		if err != nil {
			c.timeouts++
			return c
		}
		if n == nil {
			continue
		}
		st, err := probe(n.Stats)
		if err != nil {
			c.timeouts++
			return c
		}
		c.nodes[id] = st
	}
	for _, id := range pool {
		// StoreIO takes the manager's lock, which a wedged node can pin.
		io, err := probe(func() [2]int64 {
			syncs, appends, _ := d.gm.StoreIO(id)
			return [2]int64{syncs, appends}
		})
		if err != nil {
			c.timeouts++
			return c
		}
		c.syncs += io[0]
		c.appends += io[1]
	}
	var err error
	if c.net, err = probe(d.gm.Network().Stats); err != nil {
		c.timeouts++
	}
	return c
}

// processCPU is the CPU time this process has used: the five servers, the
// client library and the generator share it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// nodeDelta is the change in one node's monotonic counters between two
// snapshots. A node restarted in between starts from zero again, so its end
// snapshot is the whole delta.
func nodeDelta(before, after reconfig.NodeStats, hadBefore bool) reconfig.NodeStats {
	if !hadBefore || after.Applied < before.Applied {
		return after
	}
	return reconfig.NodeStats{
		Applied:            after.Applied - before.Applied,
		Duplicates:         after.Duplicates - before.Duplicates,
		ChunksFetched:      after.ChunksFetched - before.ChunksFetched,
		ChunkRetries:       after.ChunkRetries - before.ChunkRetries,
		FastReads:          after.FastReads - before.FastReads,
		ReadFallbacks:      after.ReadFallbacks - before.ReadFallbacks,
		ReadFenced:         after.ReadFenced - before.ReadFenced,
		DroppedInbound:     after.DroppedInbound - before.DroppedInbound,
		ApplyStalls:        after.ApplyStalls - before.ApplyStalls,
		GroupCommits:       after.GroupCommits - before.GroupCommits,
		SpeculativeDecides: after.SpeculativeDecides - before.SpeculativeDecides,
		ShedSubmits:        after.ShedSubmits - before.ShedSubmits,
		CheckpointsPublished: after.CheckpointsPublished -
			before.CheckpointsPublished,
		TruncatedSlots: after.TruncatedSlots - before.TruncatedSlots,
		CatchupFetches: after.CatchupFetches - before.CatchupFetches,
		// High-water marks and gauges are read as of the end.
		ApplyQueueHighWater: after.ApplyQueueHighWater,
		SubmitQueueHigh:     after.SubmitQueueHigh,
		RetainedSlots:       after.RetainedSlots,
		WedgeCaptureNS:      after.WedgeCaptureNS,
	}
}

// windowCounts sums the window's per-node deltas, except the high-water
// marks and gauges, which are the maximum over nodes.
func windowCounts(before, after counters) reconfig.NodeStats {
	var s reconfig.NodeStats
	for id, a := range after.nodes {
		b, had := before.nodes[id]
		d := nodeDelta(b, a, had)
		s.Applied += d.Applied
		s.Duplicates += d.Duplicates
		s.ChunksFetched += d.ChunksFetched
		s.ChunkRetries += d.ChunkRetries
		s.FastReads += d.FastReads
		s.ReadFallbacks += d.ReadFallbacks
		s.ReadFenced += d.ReadFenced
		s.DroppedInbound += d.DroppedInbound
		s.ApplyStalls += d.ApplyStalls
		s.GroupCommits += d.GroupCommits
		s.SpeculativeDecides += d.SpeculativeDecides
		s.ShedSubmits += d.ShedSubmits
		s.CheckpointsPublished += d.CheckpointsPublished
		s.TruncatedSlots += d.TruncatedSlots
		s.CatchupFetches += d.CatchupFetches
		s.ApplyQueueHighWater = max(s.ApplyQueueHighWater, d.ApplyQueueHighWater)
		s.SubmitQueueHigh = max(s.SubmitQueueHigh, d.SubmitQueueHigh)
		s.RetainedSlots = max(s.RetainedSlots, d.RetainedSlots)
		s.WedgeCaptureNS = max(s.WedgeCaptureNS, d.WedgeCaptureNS)
	}
	return s
}
